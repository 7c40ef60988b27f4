"""Symbolic operator specs, convex polynomials, and the orbit engine.

Operators are described symbolically (shifts, scalings, direct sums, dense
matrices) so one spec can act at any truncation size.  Backward shifts are
truncation-exact; forward shifts raise TruncationOverflow when nonzero mass
would leave the truncation.

Every orbit {P(T)x : P in a family} is computed by one engine, ``images``,
on raw row blocks (batch x dim, one row per vector).  Its input is a term
table (``TermTable``): each member's degree and constant term, and its
nonzero terms of positive degree.  ``Monomials``, the one family, builds
its table directly in O(D); a plain polynomial sequence, or any object
with ``members()``, is read once per diagnostic call, and a
``ConvexPolynomial`` is built again only for a witness or a payload.
The engine walks the degrees once in ascending order with a single
running power block T^i X, adding a_i T^i X into each member's
accumulator where a_i is nonzero: at most one block application per
degree, no stored power table.  The arithmetic is the elementwise axpy
of the single-vector recurrence, so each image is bit for bit what a
per-member ascending-degree loop gives, up to the sign of a zero (below).

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

A walk resolves its step once (``_stepper``): every choice that depends
only on the op, ``dim`` and the rows' dtype (unit shift or weighted, the
weight array, one multiply or row by row, the fit checks, a direct sum's
halves) is made at its first step in an engine block, and again only when
the power turns complex under a complex op.  An operator that does not
fit ``dim`` raises there, failing every row at the first degree that acts.

A walk of T = +-2^e S on real rows does not step every degree: for
scales around a shift with a scalar weight, where every factor and the
weight is each a real +-2^k with k >= 0 (``_dyadic_shift``), T^n X is
(-1)^n 2^(n e) S^n X bit for bit while it is finite, since no factor
rounds.  Such a walk jumps from its power straight to the next degree that
carries a term: the power there is a column slice of the window, scaled
by ``np.ldexp``.  A jump stops where the window's largest entry would
leave the float range (its frexp exponent + n e <= 1024) or a forward
window would reach past the top index, and the walk steps from there; so
every overflow, truncation failure and error still comes from a step.
Any other op, and complex rows, step every degree.

A step reports the rows it fails, with the error each row's single-vector
application raises; a failed row is zeroed and fails every member of at
least that degree.  A failing row costs no extra step: every degree is one
block application whether rows fail or not.  A faulted image reads 0.

``image_stream`` is the one loop over engine blocks that the diagnostics
read: it splits large member x row products into blocks of at most
BLOCK_BYTES, carries each row slice's walk from one member block to the
next wherever the next block's terms all lie above the degree reached (so
``Monomials(D)`` costs at most D steps or jumps per slice, and a walk
under +-2^e S one jump per degree that carries a term), and
yields each block once, with its member and row offsets and the errors
its images' single-vector evaluations would raise.  ``TruncVector`` wraps
results only at the public boundary (``apply``, ``eval_poly``); ``apply``
acts on the full row through the same windowed step and widens it back.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import repeat, zip_longest
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


def _multiplier(w, dtype: np.dtype):
    """``(mul, out_dtype)``: ``mul(w, X)`` is ``w * X``, of ``out_dtype``,
    for rows ``X`` of ``dtype``.

    Complex-by-complex products go row by row: numpy rounds them
    differently in different loops (fused multiply-add or not), and a row
    is what single-vector evaluation multiplied.  Every other product is
    rounded once, whatever the loop.
    """
    out_dtype = np.result_type(w, dtype)
    if not (np.iscomplexobj(w) and dtype.kind == "c"):
        return np.multiply, out_dtype

    def by_rows(w, X):
        out = np.empty(X.shape, out_dtype)
        for r, row in enumerate(X):
            out[r] = w * row
        return out
    return by_rows, out_dtype


def _widen(X: np.ndarray, lo: int, dim: int) -> np.ndarray:
    """The full rows of the window ``X``: columns lo.. of rows of length
    ``dim`` that are zero everywhere else."""
    if X.shape[1] == dim:
        return X
    out = np.zeros((len(X), dim), X.dtype)
    out[:, lo: lo + X.shape[1]] = X
    return out


def _check_fits(op: OperatorSpec, dim: int):
    """Raise DimensionMismatch for a direct sum whose split does not
    partition ``dim`` or a dense block of another size."""
    if isinstance(op, DirectSum) and not op.split < dim:
        raise DimensionMismatch(
            f"direct-sum split {op.split} does not partition dimension {dim}")
    if isinstance(op, Dense) and op.matrix.shape[0] != dim:
        raise DimensionMismatch(
            f"dense operator dim {op.matrix.shape[0]} != vector dim {dim}")


def _stepper(op: OperatorSpec, dim: int, dtype: np.dtype):
    """The step of ``op`` on windows of rows of length ``dim`` and dtype
    ``dtype``, with every choice that depends on them made once:
    ``(step, out_dtype)``.

    ``step(X, lo)`` returns ``(out, lo, failed)``.  ``X`` holds columns
    lo..lo + width - 1 of the rows; every other column is zero, and so is
    every column of the image ``out`` (of ``out_dtype``) outside the
    returned window.  A shift moves the window one index, and drops a
    column its action annihilates or checks for overflow; with unit weight
    on real rows that is a view, not a copy.  Weights are sliced from the
    global weight array, read here, so its length is checked against
    ``dim`` however narrow the window.  A direct sum or a dense matrix
    widens the window to the full row.  Each row gets exactly the
    arithmetic of a single-vector application.  ``failed`` lists (rows,
    error) pairs, in the order a single-vector application meets them, for
    the rows it would have raised on; the rows of ``out`` that are not
    finite are left to the caller, which checks them once.  An operator
    that does not fit ``dim`` raises its error here.
    """
    _check_fits(op, dim)
    if isinstance(op, Identity):
        return (lambda X, lo: (X, lo, [])), dtype
    if isinstance(op, (BackwardShift, ForwardShift)):
        back = isinstance(op, BackwardShift)
        # 1.0 * x == x bit for bit on real rows.  Complex rows keep the
        # multiply: numpy multiplies them by 1 + 0j, which can flip the
        # sign of a zero part (-0.0 - 5j becomes 0.0 - 5j).
        w = mul = None
        if isinstance(op.weight, tuple) or op.weight != 1.0 or dtype.kind == "c":
            w = _weight_array(op.weight, dim if back else dim - 1,
                              "backward shift" if back else "forward shift")
            mul, dtype = _multiplier(w, dtype)

        def step(X, lo):
            failed = []
            if back and lo == 0:
                X, lo = X[:, 1:], 1  # e_0 is annihilated
            elif not back and X.shape[1] and lo + X.shape[1] == dim:
                top = X[:, -1] != 0
                if top.any():
                    failed.append((top, TruncationOverflow(
                        f"forward shift would push mass past index {dim - 1}; "
                        "enlarge the truncation")))
                X = X[:, :-1]
            out = X if w is None else mul(w[lo: lo + X.shape[1]], X)
            return out, lo - 1 if back else lo + 1, failed
        return step, dtype
    if isinstance(op, Scale):
        inner, inner_dtype = _stepper(op.inner, dim, dtype)
        mul, dtype = _multiplier(op.factor, inner_dtype)

        def step(X, lo):
            out, lo, failed = inner(X, lo)
            return mul(op.factor, out), lo, failed
        return step, dtype
    if isinstance(op, DirectSum):
        left, left_dtype = _stepper(op.left, op.split, dtype)
        right, right_dtype = _stepper(op.right, dim - op.split, dtype)

        def step(X, lo):
            X = _widen(X, lo, dim)
            (a, a_failed), (b, b_failed) = (_on_rows(left, X[:, : op.split]),
                                            _on_rows(right, X[:, op.split:]))
            return np.concatenate([a, b], axis=1), 0, a_failed + b_failed
        return step, np.result_type(left_dtype, right_dtype)
    if isinstance(op, Dense):
        def step(X, lo):
            return np.array([op.matrix @ row for row in _widen(X, lo, dim)]), 0, []
        return step, np.result_type(op.matrix, dtype)
    raise TypeError(f"unknown operator spec {type(op).__name__}")


def _on_rows(step, X: np.ndarray) -> Tuple[np.ndarray, list]:
    """A resolved ``step`` on full rows: the image widened back to them,
    and the failed rows, with the rows that are not finite last."""
    out, lo, failed = step(X, 0)
    if not np.isfinite(out).all():
        failed.append((~np.isfinite(out).all(axis=1), NumericalOverflow(1)))
    return _widen(out, lo, X.shape[1]), failed


def _act(op: OperatorSpec, X: np.ndarray) -> Tuple[np.ndarray, list]:
    """One application of ``op`` to the full rows ``X`` (``_on_rows``)."""
    return _on_rows(_stepper(op, X.shape[1], X.dtype)[0], X)


@np.errstate(over="ignore", invalid="ignore")
def apply(op: OperatorSpec, v: TruncVector) -> TruncVector:
    """Act with ``op`` on ``v``, exactly on the truncation.

    Forward shifts raise TruncationOverflow if the top coordinate is
    nonzero.
    """
    out, failed = _act(op, v.coords[None])
    if failed:
        raise failed[0][1]
    return v.with_coords(out[0])


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
    _check_fits(op, dim)
    if isinstance(op, DirectSum):
        left = to_dense(op.left, op.split)
        right = to_dense(op.right, dim - op.split)
        out = np.zeros((dim, dim), dtype=np.result_type(left, right))
        out[: op.split, : op.split] = left
        out[op.split:, op.split:] = right
        return out
    if isinstance(op, Dense):
        return np.array(op.matrix)
    if isinstance(op, Identity):
        return np.eye(dim)
    raise TypeError(f"unknown operator spec {type(op).__name__}")


# ---------------------------------------------------------------------------
# Operator norms and the necessary-condition screen
# ---------------------------------------------------------------------------


def power_norm_estimates(op: OperatorSpec, horizon: int, dim: int) -> tuple:
    """Exact ||T^n|| on the truncation (a lower bound for the full operator
    norm) for n = 1..horizon, in one pass: a running product over every
    window of n consecutive |shift weights|, and a dense block's 2-norm of
    one running matrix power, with no power iteration.  A power that
    vanishes on the truncation reads 0, whatever factor scales it; a value
    outside the float range raises NumericalOverflow at its degree."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if dim < 1:
        raise ValueError("dimension must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _live_power_norms(op, horizon, dim)
    for n, estimate in enumerate(norms, 1):
        if not math.isfinite(estimate):
            raise NumericalOverflow(n, "the norm estimate of T^n")
    return tuple(norms) + (0.0,) * (horizon - len(norms))


def _live_power_norms(op: OperatorSpec, horizon: int, dim: int) -> list:
    """||T^n|| for n = 1, 2, ... up to the horizon or to the first T^n
    that is exactly zero on the truncation, which it leaves out."""
    _check_fits(op, dim)
    norms = []
    if isinstance(op, (BackwardShift, ForwardShift)):
        if isinstance(op, BackwardShift):
            w = _weight_array(op.weight, dim, "backward shift")[1:]
        else:
            w = _weight_array(op.weight, max(dim - 1, 0), "forward shift")
        windows = w = np.abs(w)
        while len(norms) < horizon and len(windows):
            norms.append(float(windows.max()))
            windows = windows[:-1] * w[len(norms):]
    elif isinstance(op, Scale):
        inner = _live_power_norms(op.inner, horizon, dim)
        for n, estimate in enumerate(inner if op.factor else (), 1):
            try:
                norms.append(abs(op.factor) ** n * estimate)
            except OverflowError:
                norms.append(math.inf)
    elif isinstance(op, DirectSum):
        left = _live_power_norms(op.left, horizon, op.split)
        right = _live_power_norms(op.right, horizon, dim - op.split)
        norms = [max(a, b) for a, b in zip_longest(left, right, fillvalue=0.0)]
    elif isinstance(op, Dense):
        power = op.matrix
        while len(norms) < horizon and power.any():
            if not np.isfinite(power).all():  # the SVD would fail, later powers too
                return norms + [math.inf]
            norms.append(float(np.linalg.norm(power, 2)))
            power = power @ op.matrix
    elif isinstance(op, Identity):
        norms = [1.0] * horizon
    else:
        raise TypeError(f"unknown operator spec {type(op).__name__}")
    return norms


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
    powers = power_norm_estimates(op, horizon, dim)
    return ScreenReport(
        norm_estimate=powers[0],
        norm_exceeds_one=powers[0] > 1.0 + 1e-12,
        power_norms=powers,
        growth_threshold=GROWTH_THRESHOLD,
        growth_attained=max(powers) >= GROWTH_THRESHOLD,
    )


# ---------------------------------------------------------------------------
# Convex polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexPolynomial:
    """Coefficients (a_0, ..., a_n), always nonnegative, with sum 1.

    Each coefficient is an int, a float or a numpy real scalar; a string or
    a boolean, which ``float`` would convert, is rejected.  Trailing zero
    coefficients are trimmed on construction so the stored degree is
    meaningful.
    """

    coeffs: tuple

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
        if min(cs) < 0:
            raise ValueError("coefficients must be nonnegative")
        total = math.fsum(cs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"coefficients must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

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
    columns, and is emptied once every row has failed.  ``failed_at[r]``
    is the degree at which row r failed (past every degree while it has
    not) and ``errors[r]`` the first error its single-vector evaluation
    raised there.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        self.restart()

    def restart(self):
        cols = np.flatnonzero(self.X.any(axis=0))
        self.lo, hi = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)
        self.power, self.degree = self.X[:, self.lo: hi], 0
        self.failed_at = np.full(len(self.X), np.iinfo(np.int64).max)
        self.errors = [None] * len(self.X)


#: The largest frexp exponent of a finite float64: m * 2**e with 0.5 <= m < 1.
_MAX_EXPONENT = 1024


def _dyadic_shift(op: OperatorSpec):
    """``(back, negate, e)`` when ``op`` is -2^e S (``negate``) or 2^e S
    for a backward (``back``) or forward shift S: scales around a shift
    with a scalar weight, where every factor and the weight is each a real
    +-2^k with k >= 0.  On real rows T^n X is then (-1)^n 2^(n e) S^n X
    bit for bit while it is finite: no factor rounds.  None for any other
    op, also for 2 * (0.5 * S), whose 0.5 can round a subnormal."""
    factors = []
    while isinstance(op, Scale):
        factors.append(op.factor)
        op = op.inner
    if not isinstance(op, (BackwardShift, ForwardShift)) or isinstance(op.weight, tuple):
        return None
    negate, e = False, 0
    for f in factors + [op.weight]:
        if isinstance(f, complex):
            return None
        mantissa, k = math.frexp(abs(f))
        if mantissa != 0.5 or k < 1:
            return None
        negate, e = negate != (f < 0), e + k - 1
    return isinstance(op, BackwardShift), negate, e


def _peak_exponent(power: np.ndarray) -> int:
    """The frexp exponent of the largest |entry| of the real block
    ``power``, read from its max and min; past _MAX_EXPONENT if an entry
    is not finite."""
    peak = max(power.max(), -power.min())
    return math.frexp(peak)[1] if math.isfinite(peak) else _MAX_EXPONENT + 1


def _dyadic_power(power: np.ndarray, lo: int, n: int, dyadic) -> Tuple[np.ndarray, int]:
    """T^n of the window ``power`` at column ``lo`` in closed form, for a
    ``_dyadic_shift`` op: a column slice, scaled by ``np.ldexp`` and
    negated, with the window's new first column.  The caller keeps every
    entry finite and a forward window below the top index."""
    back, negate, e = dyadic
    if back:  # columns below n - lo reach index 0 and are annihilated
        power, lo = power[:, max(0, n - lo):], max(0, lo - n)
    else:
        lo += n
    if e:
        power = np.ldexp(power, n * e)
    if negate and n % 2:
        power = np.negative(power, out=power if e else None)
    return power, lo


# Overflow is detected and reported as NumericalOverflow; numpy's warnings
# would only repeat it (here and in ``apply``).
@np.errstate(over="ignore", invalid="ignore")
def _images(op: OperatorSpec, X: np.ndarray, polys, walk: Optional[_Walk] = None):
    """The engine walk behind ``images``; failures are returned, not raised.

    ``polys`` is a term table, or anything ``term_table`` reads.  Returns
    ``(out, fault)``: ``out[j, r]`` is P_j(T) X[r], and ``fault`` maps each
    (j, r) whose single-vector evaluation would have raised to that error,
    in (member, row) order; each such image reads 0.  A row whose power
    fails at degree i is zeroed and fails every member of degree >= i; an
    accumulator that is not finite failed on an earlier, finite power.

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
    bounds = np.searchsorted(powers, np.arange(top + 2))
    if walk is None:
        walk = _Walk(X)
    elif powers.size and powers[0] <= walk.degree:
        walk.restart()
    dim = X.shape[1]
    power, lo, failed_at, degree = walk.power, walk.lo, walk.failed_at, walk.degree
    step = dtype = None
    dyadic = _dyadic_shift(op)
    back, _, e = dyadic or (None, None, 0)
    # Where a closed-form jump stops: every degree carrying a term, and the top.
    stops = np.flatnonzero(np.diff(bounds)).tolist() + [top]
    bounds = bounds.tolist()
    exponent = None  # bounds the frexp exponent of the power's largest |entry|
    while degree < top:
        n = 0
        if dyadic and power.shape[1] and power.dtype == np.float64:
            n = stops[bisect.bisect_right(stops, degree)] - degree
            if not back:  # no mass reaches the top index on the way
                n = min(n, dim - lo - power.shape[1])
            if exponent is None or exponent + n * e > _MAX_EXPONENT:
                exponent = _peak_exponent(power)
            if exponent > _MAX_EXPONENT:
                n = 0
            elif e:
                n = min(n, (_MAX_EXPONENT - exponent) // e)
        if n > 0:
            power, lo = _dyadic_power(power, lo, n, dyadic)
            degree += n
            exponent += n * e
        else:
            exponent = None
            i = degree + 1
            # An empty window stays empty.  The first step still acts, for
            # the power's dtype and the errors the op raises.
            if i == 1 or power.shape[1]:
                try:
                    if step is None or power.dtype != dtype:  # again if the rows turn complex
                        step, dtype = _stepper(op, dim, power.dtype)[0], power.dtype
                    power, lo, failed = step(power, lo)
                    if not np.isfinite(power).all():
                        failed.append((~np.isfinite(power).all(axis=1), NumericalOverflow(i)))
                except (DimensionMismatch, ValueError, TypeError) as exc:
                    failed = [(np.ones(len(X), dtype=bool), exc)]
                for rows, error in failed:
                    if isinstance(error, NumericalOverflow):
                        error = NumericalOverflow(i)  # a direct sum's half counts from 1
                    for r in np.flatnonzero(rows & (failed_at > i)):
                        failed_at[r], walk.errors[r] = i, error
                if failed:
                    power = (power[:, :0] if (failed_at <= i).all() else
                             np.where((failed_at == i)[:, None], 0, power))
            degree = i
        if power.dtype != out.dtype:
            out = out.astype(np.result_type(out, power))
        if not power.shape[1]:
            degree = top  # every later power is zero
            break
        hi = lo + power.shape[1]
        for s in range(bounds[degree], bounds[degree + 1]):
            out[members[s], :, lo:hi] += coeffs[s] * power
    walk.power, walk.lo, walk.degree = power, lo, degree
    nonfinite = ~np.isfinite(out).all(axis=2)
    faulted = nonfinite | (walk.failed_at[None, :] <= degrees[:, None])
    fault = {}
    for j, r in zip(*np.nonzero(faulted)):
        fault[int(j), int(r)] = (NumericalOverflow(int(degrees[j]))
                                 if nonfinite[j, r] else walk.errors[r])
    out[faulted] = 0
    return out, fault


def images(op: OperatorSpec, X: np.ndarray, polys) -> np.ndarray:
    """P(T) X for every P in ``polys``: an array (len(polys), batch, dim).

    ``X`` is a raw float64 or complex128 block with one row per vector, and
    ``polys`` a polynomial sequence, a family or a term table.  At most one
    block application per degree up to the largest member degree, or until
    the live window is empty (one jump per term degree under +-2^e S);
    raises the error the first failing (member, row) evaluation raises.
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
    raise to that error (``out[j, r]`` then reads 0); blocks come
    in (member, row) order.  ``polys`` is read into a term table once.
    The blocks hold at most BLOCK_BYTES: member blocks x row slices of at
    most ``block_rows(dim)`` rows (one slice of every row if they fit).
    Each row slice has one walk, carried from one member block to the
    next: a block whose terms of positive degree all lie above the degree
    reached so far resumes from the running power there (every later
    ``Monomials`` block does, so ``Monomials(D)`` costs at most D steps or
    jumps per slice in any number of blocks, and a walk under +-2^e S one
    jump per degree that carries a term); any other block walks again from
    the slice's rows.
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


# ---------------------------------------------------------------------------
# The finite search family standing in for "all convex polynomials"
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
