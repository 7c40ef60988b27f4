"""Independent oracles and seeded generators shared by tests.

The dense oracle never goes through the orbit engine's iterated
application: it materializes the operator matrix, forms the polynomial
matrix with explicit matrix powers and multiplies.  The loop oracle is
the per-vector reference the engine must match bit for bit: each member
evaluated on its own, one single-vector application per degree, every
coefficient added in ascending order.  The serial criterion reference
checks the criterion conditions and runs the builder one vector at a
time, one engine walk per (vector, polynomial list), as the checkers did
before they batched their walks.  The serial diagnostics score density
and search transitivity one image at a time, with the block kernels of
``spaces`` applied to one row, as the diagnostics did before they
measured engine blocks.  The exact recovery norms hold, in Fractions, the
l^2 norm of each recovery vector 2^-d S^d y of the T = 2B gallery, with
its correctly rounded float.
"""

import math
from fractions import Fraction

import numpy as np

from convexcyclic import (BackwardShift, BuildVerificationFailed,
                          DensityReport, PairResult, TargetScore,
                          TransitivityReport, Verdict, invariance_check,
                          sample_ball,
                          ConvexPolynomial, Dense, DirectSum, ForwardShift,
                          Identity, Scale, ScheduleInfeasible,
                          TruncationOverflow, TruncVector, distance_to_subspace,
                          images, norm, to_dense, xi_schedule)
from convexcyclic.criteria import (BuildResult, BuildStep, Cond1Result,
                                   Cond2Result, Cond3Detail, Cond3Result,
                                   CriterionVerdict, _settles)
from convexcyclic.spaces import (MEMBERSHIP_RTOL, off_span_argmax,
                                 off_span_norms, row_distance, row_norms,
                                 row_tolerances)


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
        w = _loop_weights(op.weight, dim)[1:]
        out = np.zeros(dim, np.result_type(w, x))
        out[:-1] = w * x[1:]
        return out
    if isinstance(op, ForwardShift):
        if x[-1] != 0:
            raise TruncationOverflow("forward shift overflow")
        w = _loop_weights(op.weight, dim - 1)
        out = np.zeros(dim, np.result_type(w, x))
        out[1:] = w * x[:-1]
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


def backward_windows(X, degree):
    """The live windows, as (first column, block shape), that the engine
    walks X through under a backward shift (weighted or scaled): from the
    span of X's nonzero columns, one degree step per window while it is
    nonempty, none after; the first step is taken in any case."""
    cols = np.flatnonzero((X != 0).any(axis=0))
    lo, hi = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)
    windows = []
    for i in range(1, degree + 1):
        if i > 1 and lo == hi:
            break
        windows.append((lo, (len(X), hi - lo)))
        lo, hi = max(lo - 1, 0), max(hi - 1, 0)
    return windows


def backward_jumps(X, degrees):
    """The closed-form walk of X under +-2^e B through ``degrees``
    (ascending, each within the float range): one jump to each degree, as
    (degrees jumped, first column, block shape) of the window it lands on,
    up to the first empty window."""
    cols = np.flatnonzero((X != 0).any(axis=0))
    lo, hi = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)
    jumps, last = [], 0
    for d in degrees:
        a, b = max(lo - d, 0), max(hi - d, 0)
        jumps.append((d - last, a, (len(X), b - a)))
        if a == b:
            break
        last = d
    return jumps


def random_convex_poly(rng, max_degree=6):
    degree = int(rng.integers(0, max_degree + 1))
    coeffs = rng.dirichlet(np.ones(degree + 1))
    return ConvexPolynomial(tuple(float(c) / float(np.sum(coeffs)) for c in coeffs))


def _random_weight(rng, complex_field=False):
    w = float(rng.uniform(0.25, 2.0)) * float(rng.choice([-1.0, 1.0]))
    if complex_field:
        return w * complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return w


OPERATOR_KINDS = ("backward", "backward_weights", "forward", "scale",
                  "direct_sum", "dense", "identity")


def random_operator(rng, dim, complex_field=False, kind=None):
    """A random spec together with the forward-shift depth of each block.

    The depths let callers zero enough top coordinates that truncated
    forward shifts never overflow, keeping the matrix oracle faithful.
    With ``complex_field`` the weights, factors and dense entries are
    complex.  ``kind`` fixes the outermost spec kind; inner ones are drawn.
    """
    if kind is None:
        kind = rng.choice(list(OPERATOR_KINDS))
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


# ---------------------------------------------------------------------------
# Exact recovery norms under T = 2B
# ---------------------------------------------------------------------------


def exact_recovery_norm_sq(y, degree):
    """||2^-d S^d y||_2^2 for a real y, as an exact Fraction: 4^-d times the
    sum of the squares of y's floats (each float is a dyadic rational)."""
    return sum(Fraction(float(c)) ** 2 for c in y.coords) / 4 ** degree


def rounded_sqrt(q):
    """The float nearest sqrt(q), ties to even, for a Fraction q > 0 whose
    root lies in the normal float range."""
    k = max(0, 62 - (q.numerator.bit_length() - q.denominator.bit_length()) // 2)
    scaled = q * 4 ** k
    s = math.isqrt(math.floor(scaled))
    if s * s == scaled:
        return float(Fraction(s, 2 ** k))
    # The root lies strictly inside (s, s + 1) and s has over 60 bits, so
    # s + 1/2 rounds to the same float (Fraction to float rounds correctly).
    return float(Fraction(2 * s + 1, 2 ** (k + 1)))


# ---------------------------------------------------------------------------
# Serial criterion reference: one vector at a time
# ---------------------------------------------------------------------------


def _orbit(op, x, polys):
    return images(op, x.coords[None], polys)[:, 0]


def _serial_cond1(inst, horizon, tol):
    worst = 0.0
    passed = True
    for x in inst.X:
        seq = [float(row_norms(w[None], x.p)[0])
               for w in _orbit(inst.op, x, inst.polys[:horizon])]
        worst = max(worst, seq[-1])
        if not _settles(seq, tol):
            passed = False
    return Cond1Result(passed=passed, worst_tail_norm=worst)


def _serial_decay(inst, y_index, horizon):
    y = inst.Y[y_index]
    norms = []
    errors = []
    for k in range(1, horizon + 1):
        xk = inst.recovery_vector(y_index, k)
        norms.append(norm(xk))
        errors.append(row_distance(_orbit(inst.op, xk, [inst.poly(k)])[0], xk.p, y))
    return tuple(norms), tuple(errors)


def _serial_cond2(inst, horizon, tol):
    worst_norm = 0.0
    worst_err = 0.0
    passed = True
    decay = []
    for y_index in range(len(inst.Y)):
        norms, errors = _serial_decay(inst, y_index, horizon)
        decay.append((norms, errors))
        worst_norm = max(worst_norm, norms[-1])
        worst_err = max(worst_err, errors[-1])
        if not (_settles(norms, tol) and _settles(errors, tol)):
            passed = False
    return Cond2Result(passed=passed, worst_tail_norm=worst_norm,
                       worst_recovery_error=worst_err, decay=tuple(decay))


def serial_criterion_I(inst, horizon, tol):
    if not 1 <= horizon <= len(inst.polys):
        raise ValueError(f"horizon must lie in 1..{len(inst.polys)}")
    m = inst.materialized()
    cond1 = _serial_cond1(inst, horizon, tol)
    cond2 = _serial_cond2(inst, horizon, tol)
    mask = m.mask()
    details = []
    for k in range(1, horizon + 1):
        worst, source, landing = 0.0, None, None
        for j in m.indices:
            w = _orbit(inst.op, TruncVector.basis(j, m.dim), [inst.poly(k)])[0]
            residual = float(off_span_norms(w[None], mask, 2.0)[0])
            worst = max(worst, residual)
            if source is None and residual > row_tolerances(w[None], 2.0,
                                                            inst.membership_rtol)[0]:
                source, landing = j, off_span_argmax(w, mask)
        details.append(Cond3Detail(k=k, passed=source is None, max_residual=worst,
                                   source_index=source, landing_index=landing))
    cond3 = Cond3Result(passed=all(d.passed for d in details), details=tuple(details))
    return CriterionVerdict("I", cond1, cond2, cond3, horizon)


def serial_criterion_II(inst, horizon, tol):
    if not 1 <= horizon <= len(inst.polys):
        raise ValueError(f"horizon must lie in 1..{len(inst.polys)}")
    mask = inst.materialized().mask()
    cond1 = _serial_cond1(inst, horizon, tol)
    cond2 = _serial_cond2(inst, horizon, tol)
    worst = [0.0] * horizon
    source = [None] * horizon
    landing = [None] * horizon
    for x_index, x in enumerate(inst.X):
        for k, w in enumerate(_orbit(inst.op, x, inst.polys[:horizon])):
            residual = float(off_span_norms(w[None], mask, x.p)[0])
            if residual > worst[k]:
                worst[k] = residual
            if source[k] is None and residual > tol:
                source[k] = x_index
                landing[k] = off_span_argmax(w, mask)
    details = [Cond3Detail(k=k + 1, passed=source[k] is None, max_residual=worst[k],
                           source_index=source[k], landing_index=landing[k])
               for k in range(horizon)]
    cond3 = Cond3Result(passed=all(d.passed for d in details), details=tuple(details))
    return CriterionVerdict("II", cond1, cond2, cond3, horizon)


def serial_build(inst, j_max, c=1.0, *, k_step=64):
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if not inst.Y:
        raise ValueError("the builder needs a nonempty target list")
    m = inst.materialized()
    steps = min(j_max, len(inst.Y))
    xi = xi_schedule(steps, c)
    chosen_k = []
    chosen_x = []
    prev_k = 0
    records = []
    for j in range(1, steps + 1):
        y = inst.Y[j - 1]
        budget = xi[j - 1]
        best_bound = math.inf
        best_k = None
        picked = None
        for k in range(prev_k + 1, min(prev_k + k_step, len(inst.polys)) + 1):
            P = inst.poly(k)
            try:
                xc = inst.recovery_vector(j - 1, k)
            except TruncationOverflow:
                break
            if distance_to_subspace(xc, m) > inst.membership_rtol * norm(xc) and norm(xc) > 0:
                continue
            base = norm(xc) + row_distance(_orbit(inst.op, xc, [P])[0], xc.p, y)
            worst_cross = 0.0
            for ki, xi_vec in zip(chosen_k, chosen_x):
                ahead = _orbit(inst.op, xi_vec, [P])[0]
                back = _orbit(inst.op, xc, [inst.poly(ki)])[0]
                cross = float(row_norms(ahead[None], xi_vec.p)[0]
                              + row_norms(back[None], xc.p)[0])
                worst_cross = max(worst_cross, cross)
            bound = base + worst_cross
            if bound < best_bound:
                best_bound = bound
                best_k = k
            if bound < budget:
                picked = (k, xc, bound)
                break
        if picked is None:
            raise ScheduleInfeasible(step=j, required=budget,
                                     best_bound=best_bound, best_k=best_k)
        k, xc, bound = picked
        chosen_k.append(k)
        chosen_x.append(xc)
        prev_k = k
        records.append((j, k, xi[j - 1], bound))
    x = chosen_x[0]
    for xc in chosen_x[1:]:
        x = x + xc
    tail = [math.fsum(xi[j:]) for j in range(1, steps + 1)]
    out = []
    for (j, k, xi_j, bound) in records:
        limit = j * xi_j + tail[j - 1]
        err = row_distance(_orbit(inst.op, x, [inst.poly(k)])[0], x.p, inst.Y[j - 1])
        if err > limit * (1 + 1e-9) + 1e-15:
            raise BuildVerificationFailed(step=j, error=err, limit=limit)
        out.append(BuildStep(j=j, k=k, xi=xi_j, four_term_bound=bound,
                             post_limit=limit, post_error=err))
    return BuildResult(x=x, steps=tuple(out))


# ---------------------------------------------------------------------------
# Serial diagnostics: one image at a time
# ---------------------------------------------------------------------------


def members_of(family):
    """The members of a family with ``members()``, or of a plain sequence."""
    return tuple(family.members() if hasattr(family, "members") else family)


def serial_density(op, x, m, family, targets, epsilon, rtol=MEMBERSHIP_RTOL):
    """``density_score`` image by image, for targets inside the span: an
    orbit error is raised where it occurs, a distance error after the whole
    orbit, for the first target."""
    members = members_of(family)
    mask = m.mask()
    admissible, distances, errors = [], [[] for _ in targets], [None] * len(targets)
    for j, P in enumerate(members):
        w = _orbit(op, x, [P])[0]
        if off_span_norms(w[None], mask, x.p)[0] > row_tolerances(w[None], x.p, rtol)[0]:
            continue
        admissible.append(j)
        for t_idx, y in enumerate(targets):
            try:
                distances[t_idx].append(row_distance(w, x.p, y))
            except ValueError as err:
                errors[t_idx] = errors[t_idx] or err
    for err in errors:
        if err is not None:
            raise err
    scores = []
    for dists in distances:
        if not dists:
            scores.append(TargetScore(math.inf, None, None))
            continue
        best = min(dists)
        pos = next(pos for pos, d in enumerate(dists) if d <= best + 1e-12)
        scores.append(TargetScore(dists[pos], members[admissible[pos]], admissible[pos]))
    verdict = (Verdict.DENSE_AT_SCALE if all(s.best_distance <= epsilon for s in scores)
               else Verdict.NOT_COVERED_AT_SCALE)
    return DensityReport(tuple(targets), tuple(scores), float(epsilon), verdict, family,
                         len(members), len(admissible))


def serial_transitivity(op, m, pairs, family, samples_per_ball, seed, rtol=MEMBERSHIP_RTOL):
    """``transitivity_search`` image by image, in (member, sample) order."""
    members = members_of(family)
    mask = m.mask()
    results = []
    for p_idx, pair in enumerate(pairs):
        samples = sample_ball(pair.v_center, m, pair.radius, samples_per_ball,
                              seed + 1000003 * p_idx)
        p = pair.v_center.p
        result = PairResult(False, None, None, 0.0)
        for j, P in enumerate(members):
            for v in samples:
                w = _orbit(op, v, [P])[0]
                if off_span_norms(w[None], mask, p)[0] > row_tolerances(w[None], p, rtol)[0]:
                    continue
                if row_distance(w, p, pair.u_center) <= pair.radius:
                    residual = invariance_check(P, op, m, membership_rtol=rtol).max_residual
                    result = PairResult(True, P, j, residual)
                    break
            if result.found:
                break
        results.append(result)
    return TransitivityReport(tuple(pairs), tuple(results), family, samples_per_ball, seed)
