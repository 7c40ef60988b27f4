"""Symbolic operator specs, convex polynomials, and the orbit engine.

Operators are described symbolically (shifts, scalings, direct sums, dense
matrices) so one spec can act at any truncation size.  Backward shifts are
truncation-exact; forward shifts raise TruncationOverflow when nonzero mass
would leave the truncation.

Every orbit {P(T)x : P in a family} is computed by one engine, ``images``,
on raw row blocks (batch x dim, one row per vector).  Its input is a term
table (``TermTable``): each member's degree and constant term, and its
nonzero terms of positive degree.  ``Monomials`` builds its table directly
in O(D); any other family, or a plain polynomial sequence, is read through
its members once per diagnostic call, and a ``ConvexPolynomial`` is built
again only for a witness or a payload.  The engine walks the degrees once
in ascending order with a single running power block T^i X, adding
a_i T^i X into each member's accumulator where a_i is nonzero: one block
application per degree, no stored power table.  The arithmetic is the
elementwise axpy of the single-vector recurrence, so each image is bit for
bit what a per-member ascending-degree loop gives, up to the sign of a
zero (below).

The power block holds only its live column window [lo, hi), taken from
X's nonzero columns when a walk starts; outside it T^i X is exactly zero.
A backward shift moves the window one index down and drops column 0, a
forward shift moves it one index up, and with unit weight on real rows
that is a change of offset, not a copy; a non-unit weight multiplies the
window by its slice of the global weight array.  ``Scale`` multiplies
the window, ``Identity`` keeps it, and ``DirectSum`` and ``Dense`` widen
it to the full row.  Each degree adds its terms into the window's columns
of the accumulators only, and once the window is empty every later power
is zero and the walk stops.  So no signed zero is added outside the
window: a zero there can differ in sign from the loop's (+0.0 for the
power where a negative weight or factor gave -0.0), which no norm,
distance or argmax reads.

``image_stream`` is the one loop over engine blocks that the diagnostics
read: it splits large member x row products into blocks of at most
BLOCK_BYTES, carries each row slice's walk from one member block to the
next wherever the next block's terms all lie above the degree reached (so
``Monomials(D)`` costs at most D block applications per slice), and
yields each block once, with its member and row offsets and the errors
its images' single-vector evaluations would raise.  ``TruncVector`` wraps
results only at the public boundary (``apply``, ``eval_poly``); ``apply``
acts on the full row through the same windowed step and widens it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionMismatch, NumericalOverflow, TruncationOverflow
from .spaces import TruncVector

#: Upper bound on the bytes of images one engine block holds, counted at
#: complex128 size; the running power block of a row slice is no larger.
BLOCK_BYTES = 2 * 1024 * 1024

#: The screen's growth test: some ||T^n|| estimate within the horizon
#: must reach this value.
GROWTH_THRESHOLD = 10.0


# ---------------------------------------------------------------------------
# Operator specifications
# ---------------------------------------------------------------------------


def _coerce_weight(weight):
    if np.isscalar(weight):
        w = complex(weight)
        if w == 0 or not math.isfinite(abs(w)):
            raise ValueError("shift weight must be finite and nonzero")
        return w.real if w.imag == 0 else w
    seq = tuple(complex(x).real if complex(x).imag == 0 else complex(x) for x in weight)
    if not seq:
        raise ValueError("per-index weights must be nonempty")
    if any(x == 0 or not math.isfinite(abs(x)) for x in seq):
        raise ValueError("shift weights must be finite and nonzero")
    return seq


@dataclass(frozen=True)
class BackwardShift:
    """e_n -> weight_n * e_{n-1}; e_0 is annihilated.

    ``weight`` is a constant scalar or a per-index tuple indexed by the
    source coordinate n (entries for n >= 1 are used).
    """

    weight: object = 1.0

    def __post_init__(self):
        object.__setattr__(self, "weight", _coerce_weight(self.weight))


@dataclass(frozen=True)
class ForwardShift:
    """e_n -> weight_n * e_{n+1}; overflow-checked at the truncation edge."""

    weight: object = 1.0

    def __post_init__(self):
        object.__setattr__(self, "weight", _coerce_weight(self.weight))


@dataclass(frozen=True)
class Scale:
    """factor * inner."""

    factor: complex
    inner: "OperatorSpec"

    def __post_init__(self):
        f = complex(self.factor)
        if not math.isfinite(abs(f)):
            raise ValueError("scale factor must be finite")
        object.__setattr__(self, "factor", f.real if f.imag == 0 else f)


@dataclass(frozen=True)
class DirectSum:
    """Blockwise action: left on coordinates [0, split), right on [split, dim)."""

    left: "OperatorSpec"
    right: "OperatorSpec"
    split: int

    def __post_init__(self):
        if self.split <= 0:
            raise ValueError("split must be positive")


@dataclass(frozen=True)
class Dense:
    """Explicit square matrix acting on one fixed truncation size."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"dense operator needs a square matrix, got {mat.shape}")
        if np.iscomplexobj(mat):
            mat = mat.astype(np.complex128)
        else:
            mat = mat.astype(np.float64)
        if not np.all(np.isfinite(mat)):
            raise ValueError("dense matrix entries must be finite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class Identity:
    """The identity operator at any truncation size."""


OperatorSpec = Union[BackwardShift, ForwardShift, Scale, DirectSum, Dense, Identity]


def _weight_array(weight, count: int, label: str) -> np.ndarray:
    """Weights for source indices 0..count-1."""
    if isinstance(weight, tuple):
        if len(weight) < count:
            raise ValueError(
                f"{label}: per-index weights cover {len(weight)} indices, need {count}")
        return np.asarray(weight[:count])
    return np.full(count, weight)


class _RowFailure(Exception):
    """Rows of a block whose single-vector application raises ``error``."""

    def __init__(self, rows: np.ndarray, error: Exception):
        super().__init__(error)
        self.rows = rows
        self.error = error


def _mul(w, X: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``w * X``, into ``out`` if given (of the product's dtype or wider).

    Complex-by-complex products go row by row: numpy rounds them
    differently in different loops (fused multiply-add or not), and a row
    is what single-vector evaluation multiplied.  Every other product is
    rounded once, whatever the loop.
    """
    if out is None:
        out = np.empty(X.shape, np.result_type(w, X))
    if np.iscomplexobj(w) and np.iscomplexobj(X):
        for r, row in enumerate(X):
            out[r] = w * row
    else:
        np.multiply(w, X, out=out)
    return out


def _unit(weight, X: np.ndarray) -> bool:
    """Whether a shift with ``weight`` only moves real ``X``, unmultiplied.

    1.0 * x == x bit for bit on real rows.  Complex rows keep the multiply:
    numpy multiplies them by 1 + 0j, which can flip the sign of a zero
    part (-0.0 - 5j becomes 0.0 - 5j).
    """
    return not isinstance(weight, tuple) and weight == 1.0 and not np.iscomplexobj(X)


def _widen(X: np.ndarray, lo: int, dim: int) -> np.ndarray:
    """The full rows of the window ``X``: columns lo.. of rows of length
    ``dim`` that are zero everywhere else."""
    if X.shape[1] == dim:
        return X
    out = np.zeros((len(X), dim), X.dtype)
    out[:, lo: lo + X.shape[1]] = X
    return out


def _act_window(op: OperatorSpec, X: np.ndarray, lo: int, dim: int,
                check: bool = True) -> Tuple[np.ndarray, int]:
    """Act with ``op`` on every row of a window: ``(out, lo)`` after it.

    ``X`` holds columns lo..lo + width - 1 of rows of length ``dim``; every
    other column is zero, and so is every column of the image outside the
    returned window.  A shift moves the window one index, and drops a
    column its action annihilates or checks for overflow; with unit weight
    on real rows that is a view, not a copy.  Weights are read from the
    global weight array, whose length is checked against ``dim`` however
    narrow the window.  A direct sum or a dense matrix widens the window
    to the full row.  Each row of the window gets exactly the arithmetic of
    a single-vector application, and results are checked wherever a single
    vector would have been validated; rows that would have raised are
    reported as a _RowFailure.  The inner result of a Scale goes unchecked
    because a non-finite row stays non-finite after scaling, and fails
    there with the same error.
    """
    if isinstance(op, Identity):
        return X, lo
    if isinstance(op, BackwardShift):
        w = None if _unit(op.weight, X) else _weight_array(op.weight, dim, "backward shift")
        if lo == 0:
            X, lo = X[:, 1:], 1  # e_0 is annihilated
        out = X if w is None else _mul(w[lo: lo + X.shape[1]], X)
        lo -= 1
    elif isinstance(op, ForwardShift):
        if X.shape[1] and lo + X.shape[1] == dim:
            top = X[:, -1] != 0
            if top.any():
                raise _RowFailure(top, TruncationOverflow(
                    f"forward shift would push mass past index {dim - 1}; "
                    "enlarge the truncation"))
            X = X[:, :-1]
        w = None if _unit(op.weight, X) else _weight_array(op.weight, dim - 1, "forward shift")
        out = X if w is None else _mul(w[lo: lo + X.shape[1]], X)
        lo += 1
    elif isinstance(op, Scale):
        out, lo = _act_window(op.inner, X, lo, dim, check=False)
        out = _mul(op.factor, out)
    elif isinstance(op, DirectSum):
        if not op.split < dim:
            raise DimensionMismatch(
                f"direct-sum split {op.split} does not partition dimension {dim}")
        X, lo = _widen(X, lo, dim), 0
        out = np.concatenate([_act(op.left, X[:, : op.split]),
                              _act(op.right, X[:, op.split:])], axis=1)
    elif isinstance(op, Dense):
        if op.matrix.shape[0] != dim:
            raise DimensionMismatch(
                f"dense operator dim {op.matrix.shape[0]} != vector dim {dim}")
        X, lo = _widen(X, lo, dim), 0
        out = np.array([op.matrix @ row for row in X])
    else:
        raise TypeError(f"unknown operator spec {type(op).__name__}")
    if check:
        bad = ~np.isfinite(out).all(axis=1)
        if bad.any():
            raise _RowFailure(bad, NumericalOverflow(1))
    return out, lo


def _act(op: OperatorSpec, X: np.ndarray) -> np.ndarray:
    """``_act_window`` on full rows, with the image widened back to them."""
    out, lo = _act_window(op, X, 0, X.shape[1])
    return _widen(out, lo, X.shape[1])


@np.errstate(over="ignore", invalid="ignore")
def apply(op: OperatorSpec, v: TruncVector) -> TruncVector:
    """Act with ``op`` on ``v``, exactly on the truncation.

    Forward shifts raise TruncationOverflow if the top coordinate is
    nonzero.
    """
    try:
        return v.with_coords(_act(op, v.coords[None])[0])
    except _RowFailure as failure:
        raise failure.error from None


def to_dense(op: OperatorSpec, dim: int) -> np.ndarray:
    """The truncated matrix of ``op``.

    Built directly from each kind's definition (not by probing ``apply``)
    so it can serve as an independent evaluation oracle.  A forward
    shift's top-row mass is compressed away, matching the truncation.
    """
    if isinstance(op, BackwardShift):
        mat = np.zeros((dim, dim))
        if dim > 1:
            w = _weight_array(op.weight, dim, "backward shift")[1:]
            mat = np.diag(w, k=1)
        return mat
    if isinstance(op, ForwardShift):
        if dim == 1:
            return np.zeros((1, 1))
        w = _weight_array(op.weight, dim - 1, "forward shift")
        return np.diag(w, k=-1)
    if isinstance(op, Scale):
        return op.factor * to_dense(op.inner, dim)
    if isinstance(op, DirectSum):
        if not op.split < dim:
            raise DimensionMismatch(
                f"direct-sum split {op.split} does not partition dimension {dim}")
        left = to_dense(op.left, op.split)
        right = to_dense(op.right, dim - op.split)
        out = np.zeros((dim, dim), dtype=np.result_type(left, right))
        out[: op.split, : op.split] = left
        out[op.split:, op.split:] = right
        return out
    if isinstance(op, Dense):
        if op.matrix.shape[0] != dim:
            raise DimensionMismatch(
                f"dense operator dim {op.matrix.shape[0]} != requested dim {dim}")
        return np.array(op.matrix)
    if isinstance(op, Identity):
        return np.eye(dim)
    raise TypeError(f"unknown operator spec {type(op).__name__}")


# ---------------------------------------------------------------------------
# Operator norms and the necessary-condition screen
# ---------------------------------------------------------------------------


def _window_products(weights: np.ndarray, n: int) -> float:
    """max |product of n consecutive weights|, or 0 if no window fits."""
    if n == 0:
        return 1.0
    if len(weights) < n:
        return 0.0
    windows = np.lib.stride_tricks.sliding_window_view(np.abs(weights), n)
    return float(np.prod(windows, axis=1).max())


def _power_iteration_norm(mat: np.ndarray, iters: int = 200) -> float:
    """2-norm estimate of a dense matrix by power iteration on M*M."""
    dim = mat.shape[0]
    rng = np.random.default_rng(0)
    v = rng.standard_normal(dim)
    if np.iscomplexobj(mat):
        v = v.astype(np.complex128)
    v /= np.linalg.norm(v)
    sigma = 0.0
    herm = mat.conj().T @ mat
    for _ in range(iters):
        w = herm @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        sigma = nw
    return float(math.sqrt(sigma))


def power_norm_estimate(op: OperatorSpec, n: int, dim: int) -> float:
    """Estimate of ||T^n|| on the truncation.

    Exact for shift-built specs (weight-window products); dense blocks use
    explicit matrix powers.  Always the truncation's value, which lower
    bounds the full operator norm.  An estimate outside the float range
    raises NumericalOverflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        estimate = _power_norm(op, n, dim)
    if not math.isfinite(estimate):
        raise NumericalOverflow(n, "the norm estimate of T^n")
    return estimate


def _power_norm(op: OperatorSpec, n: int, dim: int) -> float:
    if n == 0:
        return 1.0
    if isinstance(op, BackwardShift):
        w = _weight_array(op.weight, dim, "backward shift")[1:]
        return _window_products(w, n)
    if isinstance(op, ForwardShift):
        w = _weight_array(op.weight, max(dim - 1, 0), "forward shift")
        return _window_products(w, n)
    if isinstance(op, Scale):
        try:
            factor = abs(op.factor) ** n
        except OverflowError:
            return math.inf
        return factor * _power_norm(op.inner, n, dim)
    if isinstance(op, DirectSum):
        return max(_power_norm(op.left, n, op.split),
                   _power_norm(op.right, n, dim - op.split))
    if isinstance(op, Dense):
        mat = np.linalg.matrix_power(op.matrix, n)
        return _power_iteration_norm(mat)
    if isinstance(op, Identity):
        return 1.0
    raise TypeError(f"unknown operator spec {type(op).__name__}")


def operator_norm_estimate(op: OperatorSpec, dim: int) -> float:
    """||T|| on the truncation: exact for shift-type specs, power iteration
    for dense blocks (p = 2).  A lower bound for the full operator norm."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return power_norm_estimate(op, 1, dim)


@dataclass(frozen=True)
class ScreenReport:
    """Necessary-condition screen for convex-cyclicity candidates.

    A failed screen rules the operator out; a passed screen proves
    nothing.  ``power_norms[n-1]`` estimates ||T^n||.
    """

    norm_estimate: float
    norm_exceeds_one: bool
    power_norms: tuple
    growth_threshold: float
    growth_attained: bool

    @property
    def passed(self) -> bool:
        return self.norm_exceeds_one and self.growth_attained


def screen_necessary_conditions(op: OperatorSpec, dim: int,
                                horizon: int) -> ScreenReport:
    """Check ||T|| > 1 and that ||T^n|| estimates reach GROWTH_THRESHOLD
    within the horizon."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    nrm = operator_norm_estimate(op, dim)
    powers = (nrm,) + tuple(power_norm_estimate(op, n, dim) for n in range(2, horizon + 1))
    return ScreenReport(
        norm_estimate=nrm,
        norm_exceeds_one=nrm > 1.0 + 1e-12,
        power_norms=powers,
        growth_threshold=GROWTH_THRESHOLD,
        growth_attained=max(powers) >= GROWTH_THRESHOLD,
    )


# ---------------------------------------------------------------------------
# Convex polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexPolynomial:
    """Coefficients (a_0, ..., a_n) with sum 1, nonnegative by default.

    Each coefficient is an int, a float or a numpy real scalar; a string or
    a boolean, which ``float`` would convert, is rejected.  Trailing zero
    coefficients are trimmed on construction so the stored degree is
    meaningful.  ``allow_signed=True`` relaxes nonnegativity for
    exploratory runs while keeping the unit-sum constraint.
    """

    coeffs: tuple
    allow_signed: bool = False

    def __post_init__(self):
        cs = tuple(map(float, self.coeffs))
        if any(map(isinstance, self.coeffs, repeat((str, bytes, bool, np.bool_)))):
            raise ValueError("coefficients must be real numbers, not strings or booleans")
        if not cs:
            raise ValueError("a convex polynomial needs at least one coefficient")
        if not all(map(math.isfinite, cs)):
            raise ValueError("coefficients must be finite")
        end = len(cs)
        while end > 1 and cs[end - 1] == 0.0:
            end -= 1
        cs = cs[:end]
        if not self.allow_signed and min(cs) < 0:
            raise ValueError("coefficients must be nonnegative (set allow_signed to relax)")
        total = math.fsum(cs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"coefficients must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def identity(cls) -> "ConvexPolynomial":
        return cls((1.0,))

    @classmethod
    def monomial(cls, degree: int) -> "ConvexPolynomial":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls((0.0,) * degree + (1.0,))

    def degree_profile(self) -> tuple:
        """Degrees carrying nonzero coefficients."""
        return tuple(i for i, a in enumerate(self.coeffs) if a != 0.0)


class TermTable:
    """The sparse terms of a finite polynomial sequence: the engine's input.

    Member j has degree ``degrees[j]`` and constant term ``constants[j]``.
    Its nonzero terms of positive degree are ``powers[s]`` and
    ``coeffs[s]`` for s in ``ptr[j]:ptr[j + 1]``, in ascending degree.
    ``member(j)`` is P_j: the polynomial the table was read from, or one
    built with the same coefficients.  ``table[j0:j1]`` is the table of
    members j0..j1-1, made without touching any coefficient tuple.
    """

    def __init__(self, degrees, constants, ptr, powers, coeffs, member):
        self.degrees = np.asarray(degrees, dtype=np.intp)
        self.constants = np.asarray(constants, dtype=np.float64)
        self.ptr = np.asarray(ptr, dtype=np.intp)
        self.powers = np.asarray(powers, dtype=np.intp)
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        self.member = member

    @classmethod
    def of(cls, polys: Sequence[ConvexPolynomial]) -> "TermTable":
        """The table of a sequence of polynomials, read once."""
        polys = tuple(polys)
        coeffs = [np.asarray(P.coeffs) for P in polys]
        powers = [np.flatnonzero(c[1:]) + 1 for c in coeffs]
        return cls([len(c) - 1 for c in coeffs], [c[0] for c in coeffs],
                   np.cumsum([0] + [len(i) for i in powers]),
                   np.concatenate(powers) if polys else (),
                   np.concatenate([c[i] for c, i in zip(coeffs, powers)]) if polys else (),
                   polys.__getitem__)

    def __len__(self) -> int:
        return len(self.degrees)

    def __getitem__(self, block: slice) -> "TermTable":
        j0, j1, _ = block.indices(len(self))
        j1 = max(j0, j1)
        lo, hi = self.ptr[j0], self.ptr[j1]
        return TermTable(self.degrees[j0:j1], self.constants[j0:j1],
                         self.ptr[j0: j1 + 1] - lo, self.powers[lo:hi],
                         self.coeffs[lo:hi], lambda j: self.member(j0 + j))


def term_table(source) -> TermTable:
    """The term table of a family, a polynomial sequence or a table.

    A family with a ``terms`` method builds its table directly; any other
    family is read through ``members()``, once.
    """
    if isinstance(source, TermTable):
        return source
    if hasattr(source, "terms"):
        return source.terms()
    return TermTable.of(source.members() if hasattr(source, "members") else source)


class _Walk:
    """The running state of one engine walk over the rows of ``X``.

    ``power`` is the live column window of T^degree X, its columns
    ``lo``.. of the full rows (every other column is zero), with every
    failed row zeroed.  The window starts as the span of X's nonzero
    columns.  ``failed_at[r]`` is the degree at which row r failed (past
    every degree while it is live) and ``errors[r]`` the error its
    single-vector evaluation raised there.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        self.restart()

    def restart(self):
        cols = np.flatnonzero(self.X.any(axis=0))
        self.lo, hi = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)
        self.power, self.degree = self.X[:, self.lo: hi], 0
        self.live = np.ones(len(self.X), dtype=bool)
        self.failed_at = np.full(len(self.X), np.iinfo(np.int64).max)
        self.errors = [None] * len(self.X)


# Overflow is detected and reported as NumericalOverflow; numpy's warnings
# would only repeat it (here and in ``apply``).
@np.errstate(over="ignore", invalid="ignore")
def _images(op: OperatorSpec, X: np.ndarray, polys, walk: Optional[_Walk] = None):
    """The engine walk behind ``images``; failures are returned, not raised.

    ``polys`` is a term table, or anything ``term_table`` reads.  Returns
    ``(out, fault)``: ``out[j, r]`` is P_j(T) X[r], and ``fault`` maps each
    (j, r) whose single-vector evaluation would have raised to that error,
    in (member, row) order.  A row whose power fails at degree i is zeroed
    and fails every member of degree >= i; an accumulator that is not
    finite failed on an earlier, finite power.

    ``walk``, left over ``X`` by an earlier call with the same op, resumes
    when every term of positive degree in the table lies above its degree,
    and restarts from X otherwise; it is left at the largest degree walked,
    or at the table's top degree once its window is empty.
    """
    table = term_table(polys)
    degrees = table.degrees
    top = int(degrees.max(initial=0))
    out = np.multiply.outer(table.constants, X)
    # The terms degree by degree, each degree's in member order.
    order = np.argsort(table.powers, kind="stable")
    powers = table.powers[order]
    members = np.repeat(np.arange(len(table)), np.diff(table.ptr))[order].tolist()
    coeffs = table.coeffs[order].tolist()
    bounds = np.searchsorted(powers, np.arange(top + 2)).tolist()
    if walk is None:
        walk = _Walk(X)
    elif powers.size and powers[0] <= walk.degree:
        walk.restart()
    live, dim = walk.live, X.shape[1]
    for i in range(walk.degree + 1, top + 1):
        while live.any():
            try:
                # An empty window stays empty.  The first step still acts,
                # for the power's dtype and the errors the op raises.
                if i == 1 or walk.power.shape[1]:
                    walk.power, walk.lo = _act_window(op, walk.power, walk.lo, dim)
                break
            except _RowFailure as failure:
                rows, error = failure.rows & live, failure.error
                if isinstance(error, NumericalOverflow):
                    error = NumericalOverflow(i)
            except (DimensionMismatch, ValueError, TypeError) as exc:
                rows, error = live.copy(), exc
            walk.failed_at[rows] = i
            for r in np.flatnonzero(rows):
                walk.errors[r] = error
            live &= ~rows
            walk.power = np.where(rows[:, None], 0, walk.power)
        else:
            break  # every row has failed; no member can gain a valid term
        walk.degree = i
        if walk.power.dtype != out.dtype:
            out = out.astype(np.result_type(out, walk.power))
        if not walk.power.shape[1]:
            walk.degree = top  # every later power is zero
            break
        lo, hi = walk.lo, walk.lo + walk.power.shape[1]
        for s in range(bounds[i], bounds[i + 1]):
            out[members[s], :, lo:hi] += coeffs[s] * walk.power
    nonfinite = ~np.isfinite(out).all(axis=2)
    failed = walk.failed_at[None, :] <= degrees[:, None]
    fault = {}
    for j, r in zip(*np.nonzero(nonfinite | failed)):
        fault[int(j), int(r)] = (NumericalOverflow(int(degrees[j]))
                                 if nonfinite[j, r] else walk.errors[r])
    return out, fault


def images(op: OperatorSpec, X: np.ndarray, polys) -> np.ndarray:
    """P(T) X for every P in ``polys``: an array (len(polys), batch, dim).

    ``X`` is a raw float64 or complex128 block with one row per vector, and
    ``polys`` a polynomial sequence, a family or a term table.  One block
    application per degree up to the largest member degree, or until the
    live window is empty; raises the error the first failing (member, row)
    evaluation raises.
    """
    out, fault = _images(op, X, polys)
    if fault:
        raise next(iter(fault.values()))
    return out


def block_rows(dim: int) -> int:
    """Rows of length ``dim`` that fit in one engine block (at least one)."""
    return max(1, BLOCK_BYTES // (dim * np.dtype(np.complex128).itemsize))


def image_stream(op: OperatorSpec, X: np.ndarray, polys):
    """Every engine block of P_j(T) X[r] as ``(j0, r0, out, fault)``.

    ``out[j, r]`` is the image of member j0 + j on row r0 + r, and
    ``fault`` maps each local (j, r) whose single-vector evaluation would
    raise to that error (``out[j, r]`` is then not its image); blocks come
    in (member, row) order.  ``polys`` is read into a term table once.
    The blocks hold at most BLOCK_BYTES: member blocks x row slices of at
    most ``block_rows(dim)`` rows (one slice of every row if they fit).
    Each row slice has one walk, carried from one member block to the
    next: a block whose terms of positive degree all lie above the degree
    reached so far resumes from the running power there (every later
    ``Monomials`` block does, so ``Monomials(D)`` costs at most D block
    applications per slice in any number of blocks); any other block walks
    again from the slice's rows.
    """
    table = term_table(polys)
    batch, dim = X.shape
    cap = block_rows(dim)
    walks = [(r0, _Walk(X[r0: r0 + cap])) for r0 in range(0, batch, cap)]
    step = max(1, cap // batch)
    for j0 in range(0, len(table), step):
        for r0, walk in walks:
            out, fault = _images(op, walk.X, table[j0: j0 + step], walk)
            yield j0, r0, out, fault


def eval_poly(P: ConvexPolynomial, op: OperatorSpec, v: TruncVector) -> TruncVector:
    """sum a_i T^i v, accumulated in ascending degree with a running power.

    Exactly one operator application per degree step and a fixed summation
    order, so results are deterministic bit for bit.
    """
    return v.with_coords(images(op, v.coords[None], [P])[0, 0])


def compose_polys(P: ConvexPolynomial, Q: ConvexPolynomial) -> ConvexPolynomial:
    """Coefficient convolution: (P*Q)(T) = P(T) Q(T).

    Convexity is preserved: products of nonnegative coefficients summing
    to one again sum to one.
    """
    coeffs = np.convolve(np.asarray(P.coeffs), np.asarray(Q.coeffs))
    return ConvexPolynomial(tuple(float(c) for c in coeffs),
                            allow_signed=P.allow_signed or Q.allow_signed)


# ---------------------------------------------------------------------------
# Finite search families standing in for "all convex polynomials"
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Monomials:
    """T^0, T^1, ..., T^max_degree (degree 0 included on purpose)."""

    max_degree: int

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")

    def members(self) -> Tuple[ConvexPolynomial, ...]:
        return tuple(ConvexPolynomial.monomial(d) for d in range(self.max_degree + 1))

    def terms(self) -> TermTable:
        """The term table, in O(max_degree) and with no polynomial built:
        member j is 1 * T^j."""
        top = self.max_degree
        constants = np.zeros(top + 1)
        constants[0] = 1.0
        return TermTable(np.arange(top + 1), constants,
                         np.concatenate(([0], np.arange(top + 1))),
                         np.arange(1, top + 1), np.ones(top),
                         ConvexPolynomial.monomial)


@dataclass(frozen=True)
class CesaroMeans:
    """Uniform averages (T^0 + ... + T^k)/(k+1) for k <= max_degree."""

    max_degree: int

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")

    def members(self) -> Tuple[ConvexPolynomial, ...]:
        return tuple(map(_cesaro_mean, range(self.max_degree + 1)))

    def terms(self) -> TermTable:
        """The term table, with no polynomial built: member k has the
        coefficient 1 / (k + 1) at every degree 0..k."""
        k = np.arange(self.max_degree + 1)
        ptr = np.concatenate(([0], np.cumsum(k)))
        owner = np.repeat(k, k)
        return TermTable(k, 1.0 / (k + 1), ptr, np.arange(ptr[-1]) - ptr[owner] + 1,
                         1.0 / (owner + 1), _cesaro_mean)


def _cesaro_mean(k: int) -> ConvexPolynomial:
    """(T^0 + ... + T^k) / (k + 1)."""
    return ConvexPolynomial(tuple([1.0 / (k + 1)] * (k + 1)))


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of length ``parts`` summing to ``total``,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@dataclass(frozen=True)
class SimplexGrid:
    """All rational convex combinations with denominator ``resolution`` on
    degrees 0..degree, enumerated lexicographically."""

    degree: int
    resolution: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")

    def members(self) -> Tuple[ConvexPolynomial, ...]:
        res = self.resolution
        out = []
        for comp in _compositions(res, self.degree + 1):
            out.append(ConvexPolynomial(tuple(c / res for c in comp)))
        return tuple(out)


@dataclass(frozen=True)
class RandomSimplex:
    """Seeded Dirichlet(1,...,1) samples on degrees 0..degree."""

    degree: int
    count: int
    seed: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def members(self) -> Tuple[ConvexPolynomial, ...]:
        rng = np.random.default_rng(self.seed)
        samples = rng.dirichlet(np.ones(self.degree + 1), size=self.count)
        out = []
        for row in samples:
            row = row / math.fsum(row)
            out.append(ConvexPolynomial(tuple(float(c) for c in row)))
        return tuple(out)


PolynomialFamily = Union[Monomials, CesaroMeans, SimplexGrid, RandomSimplex]
