"""Independent oracles and seeded generators shared by tests.

The dense oracle never goes through the orbit engine's iterated
application: it materializes the operator matrix, forms the polynomial
matrix with explicit matrix powers and multiplies.  The loop oracle is
the per-vector reference the engine must match bit for bit: each member
evaluated on its own, one single-vector application per degree, every
coefficient added in ascending order.
"""

import numpy as np

from convexcyclic import (BackwardShift, ConvexPolynomial, Dense, DirectSum,
                          ForwardShift, Identity, Scale, TruncationOverflow,
                          TruncVector, to_dense)


def dense_poly_matrix(P, op, dim):
    mat = to_dense(op, dim)
    acc = P.coeffs[0] * np.eye(dim, dtype=mat.dtype)
    power = np.eye(dim, dtype=mat.dtype)
    for a in P.coeffs[1:]:
        power = mat @ power
        acc = acc + a * power
    return acc


def dense_eval(P, op, v):
    return dense_poly_matrix(P, op, v.dim) @ v.coords


def _loop_weights(weight, count):
    if isinstance(weight, tuple):
        return np.asarray(weight[:count])
    return np.full(count, weight)


def loop_apply(op, x):
    """One single-vector application of ``op`` to the 1-D array ``x``."""
    dim = x.size
    if isinstance(op, BackwardShift):
        out = np.zeros_like(x)
        if dim > 1:
            out[:-1] = _loop_weights(op.weight, dim)[1:] * x[1:]
        return out
    if isinstance(op, ForwardShift):
        if x[-1] != 0:
            raise TruncationOverflow("forward shift overflow")
        out = np.zeros_like(x)
        out[1:] = _loop_weights(op.weight, dim - 1) * x[:-1]
        return out
    if isinstance(op, Scale):
        return op.factor * loop_apply(op.inner, x)
    if isinstance(op, DirectSum):
        return np.concatenate([loop_apply(op.left, x[: op.split].copy()),
                               loop_apply(op.right, x[op.split:].copy())])
    if isinstance(op, Dense):
        return op.matrix @ x
    return x


def loop_images(op, x, polys):
    """[P(T)x for P in polys], each member on its own: acc = a_0 x, then
    acc + a_i T^i x for every i >= 1 with a running power."""
    out = []
    for P in polys:
        acc = P.coeffs[0] * x
        power = x
        for a in P.coeffs[1:]:
            power = loop_apply(op, power)
            acc = acc + a * power
        out.append(acc)
    return out


def random_convex_poly(rng, max_degree=6):
    degree = int(rng.integers(0, max_degree + 1))
    coeffs = rng.dirichlet(np.ones(degree + 1))
    return ConvexPolynomial(tuple(float(c) / float(np.sum(coeffs)) for c in coeffs))


def _random_weight(rng, complex_field=False):
    w = float(rng.uniform(0.25, 2.0)) * float(rng.choice([-1.0, 1.0]))
    if complex_field:
        return w * complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return w


def random_operator(rng, dim, complex_field=False):
    """A random spec together with the forward-shift depth of each block.

    The depths let callers zero enough top coordinates that truncated
    forward shifts never overflow, keeping the matrix oracle faithful.
    With ``complex_field`` the weights, factors and dense entries are
    complex.
    """
    kind = rng.choice(["backward", "backward_weights", "forward", "scale",
                       "direct_sum", "dense", "identity"])
    if kind == "backward":
        return BackwardShift(_random_weight(rng, complex_field)), [(0, dim, False)]
    if kind == "backward_weights":
        weights = tuple(_random_weight(rng, complex_field) for _ in range(dim))
        return BackwardShift(weights), [(0, dim, False)]
    if kind == "forward":
        return ForwardShift(_random_weight(rng, complex_field)), [(0, dim, True)]
    if kind == "scale":
        inner, blocks = random_operator(rng, dim, complex_field)
        factor = float(rng.uniform(-2.0, 2.0))
        if complex_field:
            factor *= complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        return Scale(factor, inner), blocks
    if kind == "direct_sum" and dim >= 2:
        split = int(rng.integers(1, dim))
        left, lb = random_operator(rng, split, complex_field)
        right, rb = random_operator(rng, dim - split, complex_field)
        blocks = [(lo, hi, fwd) for lo, hi, fwd in lb]
        blocks += [(lo + split, hi + split, fwd) for lo, hi, fwd in rb]
        return DirectSum(left, right, split=split), blocks
    if kind == "dense":
        mat = rng.standard_normal((dim, dim))
        if complex_field:
            mat = mat + 1j * rng.standard_normal((dim, dim))
        return Dense(mat), [(0, dim, False)]
    return Identity(), [(0, dim, False)]


def random_vector(rng, dim, blocks, degree, p=2.0, complex_field=False):
    """Random vector whose forward-shift blocks have clear headroom."""
    coords = rng.standard_normal(dim)
    if complex_field:
        coords = coords + 1j * rng.standard_normal(dim)
    for lo, hi, forward in blocks:
        if forward:
            top = min(degree, hi - lo)
            if top:
                coords[hi - top: hi] = 0.0
    return TruncVector(coords, p=p)


def random_triple(rng, dim, max_degree=6):
    op, blocks = random_operator(rng, dim)
    P = random_convex_poly(rng, max_degree)
    v = random_vector(rng, dim, blocks, P.degree)
    return op, P, v
