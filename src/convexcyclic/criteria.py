"""Finite-horizon checkers for the two cyclicity criteria and the
constructive cyclic-vector builder.

An instance declares the operator, the subspace, finite X/Y samples that
stand in for dense subsets, the polynomial sequence {P_k}, and a recovery
rule producing the approximating vectors x_k.  The checkers never assert
topological density; they evaluate the criterion conditions at a finite
horizon and report worst-case numbers.

Convergence test for "tends to 0" at a horizon: the value at the horizon
must be below tolerance AND the sequence must not increase over the last
quarter of the horizon, which guards against non-monotone sequences
passing on a lucky index.

Each condition is one engine walk over a block of rows: X for conditions
1 and 3 of criterion II (both read the same walk), every recovery vector
x_k(y) for condition 2, and the span's identity rows for condition 3 of
criterion I (``dynamics.invariance_checks``).  A walk is read from
``operators.image_stream`` one engine block at a time: the norms and
off-span residuals of a block are taken at once by ``spaces.row_norms``
and written into float arrays (members x rows), and the error of each
image whose evaluation raises, or whose distance overflows, goes into one
map keyed by its place.  Each reader raises the error its per-vector
loop would have met first, and then reads plain arrays.  Condition 2
reads only the diagonal of its walk, row (y, k) at member k: a shift
rule's recovery rows for every y at one degree are one slice and one
scaling of the targets' block (``ShiftRecovery.recover_rows``, no vector
built per x_k(y)), a chunk's recovery norms are one ``row_norms`` call,
and each block's diagonal images are gathered at once and measured by
one ``spaces.target_distances`` call per target.  The builder builds
the span's mask once and measures each candidate's norm once.  Real and
complex rows of the instance's dim walk as one block (``spaces`` gives
a promoted real row the same norm bits).  The verdicts are bit for bit
those of one walk per vector, and so are the errors, raised in the
order of the per-vector loops: the first failing row, then its first
failing member; in condition 2 the recovery rule's errors, orbit faults
and distance overflows interleave in (y, k) order.  The builder's step
loop is inherently sequential (each step depends on the previous
selections); each candidate is scored in one walk.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (BuildVerificationFailed, DimensionTooSmall,
                     NumericalOverflow, RecoveryRuleMissing,
                     ScheduleInfeasible, TruncationOverflow)
from .dynamics import first_outside, invariance_checks
from .operators import (ConvexPolynomial, OperatorSpec, block_rows,
                        image_stream)
from .spaces import (MEMBERSHIP_RTOL, BasisIndexSet, SubspaceSpec,
                     TruncVector, distance_overflow,
                     materialize_subspace, norm, off_span_norms,
                     row_norms, target_distances)


# ---------------------------------------------------------------------------
# Recovery rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftRecovery:
    """x_k = scale^(-d) S^d y with S the plain forward shift and d the
    degree of P_k.

    This is the exact right inverse of a scaled backward shift: applying
    (scale * B)^d recovers y bit for bit when scale is a power of two.
    A y with mass in its top d coordinates raises TruncationOverflow, and
    a factor scale^(-d) or an x_k outside the float range raises
    NumericalOverflow at degree d.  ``recover_rows`` recovers a block of
    targets at once, and ``recover`` is its one-row case.
    """

    scale: complex

    def __post_init__(self):
        s = complex(self.scale)
        if s == 0 or not cmath.isfinite(s):
            raise ValueError("recovery scale must be finite and nonzero")
        object.__setattr__(self, "scale", s.real if s.imag == 0 else s)

    def recover(self, y: TruncVector, poly: ConvexPolynomial) -> TruncVector:
        """x_k for one target y: ``recover_rows`` of its row."""
        rows, errors = self.recover_rows(y.coords[None], poly.degree)
        if errors[0] is not None:
            raise errors[0]
        return y if poly.degree == 0 else y.with_coords(rows[0])

    def recover_rows(self, rows: np.ndarray, d: int) -> tuple:
        """x_k at degree d for every row y of a raw block, by one slice and
        one scaling: ``(out, errors)``, where ``errors[i]`` is the error
        recovering row i raises (TruncationOverflow, then NumericalOverflow
        of the factor or of the row) or None.  Degree 0 returns ``rows``."""
        errors = [None] * len(rows)
        if d == 0:
            return rows, errors
        kept = max(0, rows.shape[1] - d)
        out = np.zeros_like(rows)
        out[:, d:] = rows[:, :kept]
        try:
            factor = self.scale ** (-d)
        except OverflowError:
            failed = np.ones(len(rows), dtype=bool)
            error = NumericalOverflow(d, "the recovery factor scale^(-d)")
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                out = out * factor
            failed = ~np.isfinite(out).all(axis=1)
            error = NumericalOverflow(d, "the recovery vector")
        for i in np.flatnonzero(failed):
            errors[i] = error
        for i in np.flatnonzero(rows[:, kept:].any(axis=1)):
            errors[i] = TruncationOverflow(
                f"shifting support by {d} leaves the truncation of size {rows.shape[1]}")
        return out, errors


@dataclass(frozen=True)
class ExplicitRecovery:
    """x_k given as an explicit list indexed by k = 1, 2, ...; ``None``
    entries mean the rule cannot produce that step."""

    vectors: tuple

    def recover_at(self, k: int) -> TruncVector:
        if not 1 <= k <= len(self.vectors) or self.vectors[k - 1] is None:
            raise RecoveryRuleMissing(f"no recovery vector declared for k={k}")
        return self.vectors[k - 1]


RecoveryRule = Union[ShiftRecovery, ExplicitRecovery]


# ---------------------------------------------------------------------------
# Instances and verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionInstance:
    """One criterion-checking problem: operator, subspace, samples, polys.

    X and Y are finite stand-ins for the criterion's dense subsets.  The
    recovery rule is shared by every y, or None (condition 2 then raises
    RecoveryRuleMissing).  Every vector of X, Y and an explicit recovery
    rule has the instance's dim and the exponent p of the first one.
    """

    op: OperatorSpec
    subspace: SubspaceSpec
    dim: int
    X: tuple
    Y: tuple
    polys: tuple
    recovery: Optional[RecoveryRule] = None
    membership_rtol: float = MEMBERSHIP_RTOL

    def __post_init__(self):
        object.__setattr__(self, "X", tuple(self.X))
        object.__setattr__(self, "Y", tuple(self.Y))
        object.__setattr__(self, "polys", tuple(self.polys))
        if not self.polys:
            raise ValueError("an instance needs a nonempty polynomial sequence")
        m = materialize_subspace(self.subspace, self.dim)
        if len(m) == 0:
            raise ValueError("the zero subspace is excluded")
        recovered = (tuple(self.recovery.vectors)
                     if isinstance(self.recovery, ExplicitRecovery) else ())
        p = next((v.p for v in self.X + self.Y + recovered if v is not None), None)

        def check(name, v):
            if v.dim != self.dim:
                raise DimensionTooSmall(f"{name} has dim {v.dim}, instance dim is {self.dim}")
            if v.p != p:
                raise ValueError(f"{name} has exponent p = {v.p}, not {p} as the first vector")

        mask = m.mask()
        for label, vectors in (("X", self.X), ("Y", self.Y)):
            # Each list is measured at once, up to its first vector that
            # fails ``check``, whose error comes after any outside ahead of it.
            bad = next((i for i, v in enumerate(vectors)
                        if v.dim != self.dim or v.p != p), len(vectors))
            i = first_outside(vectors[:bad], mask, self.membership_rtol)
            if i is not None:
                raise ValueError(f"{label}[{i}] lies outside the subspace span")
            if bad < len(vectors):
                check(f"{label}[{bad}]", vectors[bad])
        for k, v in enumerate(recovered, start=1):
            if v is not None:
                check(f"recovery vector x_{k}", v)

    def materialized(self) -> BasisIndexSet:
        return materialize_subspace(self.subspace, self.dim)

    def poly(self, k: int) -> ConvexPolynomial:
        """P_k, 1-indexed."""
        if not 1 <= k <= len(self.polys):
            raise ValueError(f"polynomial index {k} outside 1..{len(self.polys)}")
        return self.polys[k - 1]

    def recovery_vector(self, y_index: int, k: int) -> TruncVector:
        """The recovery vector x_k for target Y[y_index]."""
        rule = self.recovery
        if rule is None:
            raise RecoveryRuleMissing(
                f"no recovery rule for target index {y_index}")
        if isinstance(rule, ExplicitRecovery):
            return rule.recover_at(k)
        return rule.recover(self.Y[y_index], self.poly(k))


@dataclass(frozen=True)
class Cond1Result:
    passed: bool
    worst_tail_norm: float


@dataclass(frozen=True)
class Cond2Result:
    """Worst values at the horizon; ``decay[y]`` holds target y's recovery
    norms ||x_k|| and errors ||P_k(T) x_k - y|| for k = 1..horizon."""

    passed: bool
    worst_tail_norm: float
    worst_recovery_error: float
    decay: tuple


@dataclass(frozen=True)
class Cond3Detail:
    """Per-k record: invariance residual (criterion one) or worst preimage
    residual over X (criterion two), with the offending indices."""

    k: int
    passed: bool
    max_residual: float
    source_index: Optional[int]
    landing_index: Optional[int]


@dataclass(frozen=True)
class Cond3Result:
    passed: bool
    details: tuple


@dataclass(frozen=True)
class CriterionVerdict:
    which: str
    cond1: Cond1Result
    cond2: Cond2Result
    cond3: Cond3Result
    horizon: int

    @property
    def all_passed(self) -> bool:
        return self.cond1.passed and self.cond2.passed and self.cond3.passed


def _settles(seq: Sequence[float], tol: float) -> bool:
    """Value at the horizon below tol, no increase over the last quarter."""
    h = len(seq)
    if seq[-1] > tol:
        return False
    q = max(1, h // 4)
    start = max(0, h - 1 - q)
    for i in range(start, h - 1):
        if seq[i + 1] > seq[i] * (1 + 1e-9) + 1e-15:
            return False
    return True


def _walk(op, rows: Sequence[np.ndarray], polys, measure) -> tuple:
    """What ``measure`` makes of every image P_j(T) rows[r] that evaluates.

    ``measure(j0, r0, out)`` gets each engine block, ``out[j, r]`` the
    image of member j0 + j on row r0 + r, and returns one float per image,
    a (j, r) array.  Returns ``(values, faults)``: the float array
    (members x rows) of those values, and a dict keyed (j, r) with the
    error of each image whose single-vector evaluation raises, or whose
    value is NaN (a distance that overflowed).  The rows walk as one
    block: a real row among complex ones is promoted, which keeps its
    norm bits (``spaces.row_norms``).
    """
    values, faults = np.zeros((len(polys), len(rows))), {}
    if not rows:
        return values, faults
    for j0, r0, out, fault in image_stream(op, np.array(rows), polys):
        block = values[j0: j0 + len(out), r0: r0 + out.shape[1]]
        block[...] = measure(j0, r0, out)
        faults.update(((j0 + j, r0 + r), err) for (j, r), err in fault.items())
        for j, r in np.argwhere(np.isnan(block)).tolist():
            faults.setdefault((j0 + j, r0 + r), distance_overflow())
    return values, faults


def _raise_first(faults: dict, key=None):
    """Raise the error of the least key of ``faults`` under ``key``, if any."""
    if faults:
        raise faults[min(faults, key=key)]


def _norms(out: np.ndarray, p: float) -> np.ndarray:
    """The l^p norm of every image in a block: a (j, r) array."""
    return row_norms(out.reshape(-1, out.shape[2]), p).reshape(out.shape[:2])


def _check_cond1(inst: CriterionInstance, norms: np.ndarray, faults: dict,
                  tol: float) -> Cond1Result:
    """Reads ``norms[k, r]`` = ||P_k(T) X[r]|| x by x, after raising the
    first failing x's first failing member."""
    _raise_first(faults, key=lambda kr: kr[::-1])
    worst = 0.0
    passed = True
    for r in range(len(inst.X)):
        seq = norms[:, r].tolist()
        worst = max(worst, seq[-1])
        if not _settles(seq, tol):
            passed = False
    return Cond1Result(passed=passed, worst_tail_norm=worst)


def _recovery_rows(inst: CriterionInstance, Y: np.ndarray, k: int) -> tuple:
    """``(rows, errors)``: the recovery vector x_{k+1}(y) of every target
    row of ``Y``, or the error recovering it raises (its row then is
    arbitrary).  A shift rule recovers them all at once (``recover_rows``)."""
    rule = inst.recovery
    if isinstance(rule, ShiftRecovery):
        return rule.recover_rows(Y, inst.polys[k].degree)
    rows, errors = [], []
    for y in range(len(Y)):
        try:
            rows.append(inst.recovery_vector(y, k + 1).coords)
            errors.append(None)
        except RecoveryRuleMissing as err:
            rows.append(np.zeros(inst.dim))
            errors.append(err)
    return np.array(rows).reshape(len(Y), inst.dim), errors


def _check_cond2(inst: CriterionInstance, horizon: int, tol: float) -> Cond2Result:
    """Every recovery vector x_k(y) in one engine walk, reading member k of
    row (y, k).  Row (y, k) needs member k only, so consecutive k are
    walked in chunks of c, with |Y| c rows through the chunk's c members
    (none past the horizon) held in one block; every gallery instance
    needs a single chunk.  The chunk's rows are built degree by degree,
    every y at once (``_recovery_rows``), and its recovery norms are one
    ``row_norms`` call.  Of each engine block only the diagonal images,
    row (y, k) at member k, are gathered (by one fancy index) and
    measured, by one ``target_distances`` call per target y on its rows;
    the faults of the other images are never read.  The norms and
    distances go into (y, k) arrays, and the recovery rule's errors, the
    diagonal's faults and its NaN distances into one map keyed (y, k),
    which raises its least key: a row has at most one error, since a row
    whose recovery fails is not walked."""
    count = len(inst.Y)
    Y = np.array([y.coords for y in inst.Y]).reshape(count, inst.dim)
    chunk = max(1, math.isqrt(block_rows(inst.dim) // max(1, count)))
    norms, distances = np.zeros((2, count, horizon))
    errors = {}
    for k0 in range(0, horizon, chunk):
        rows, blocks = [], []
        stop = min(k0 + chunk, horizon)
        for k in range(k0, stop):
            block, failed = _recovery_rows(inst, Y, k)
            errors.update(((y, k), err) for y, err in enumerate(failed) if err is not None)
            rows += [(y, k) for y, err in enumerate(failed) if err is None]
            blocks.append(block[[err is None for err in failed]])
        if not rows:
            continue
        # The instance gives every recovery vector and target its dim and
        # p, so no distance fails ``check_target``.
        p = inst.Y[0].p
        block = np.concatenate(blocks)
        targets, members = np.array(rows).T
        norms[targets, members] = row_norms(block, p)
        for j0, r0, out, fault in image_stream(inst.op, block, inst.polys[k0: stop]):
            r = np.arange(out.shape[1])
            j = members[r0 + r] - (k0 + j0)
            on = (j >= 0) & (j < len(out))
            j, r = j[on], r[on]
            diagonal, ys = out[j, r], targets[r0 + r]
            for y in sorted(set(ys.tolist())):
                mine = ys == y
                distances[y, members[r0 + r[mine]]] = target_distances(
                    diagonal[mine], p, (inst.Y[y],))[0]
            errors.update((rows[r0 + rr], err) for (jj, rr), err in fault.items()
                          if k0 + j0 + jj == members[r0 + rr])
    for y, k in np.argwhere(np.isnan(distances)).tolist():
        errors.setdefault((y, k), distance_overflow())
    _raise_first(errors)
    worst_norm = 0.0
    worst_err = 0.0
    passed = True
    decay = []
    for seq, errs in zip(norms.tolist(), distances.tolist()):
        decay.append((tuple(seq), tuple(errs)))
        worst_norm = max(worst_norm, seq[-1])
        worst_err = max(worst_err, errs[-1])
        if not (_settles(seq, tol) and _settles(errs, tol)):
            passed = False
    return Cond2Result(passed=passed, worst_tail_norm=worst_norm,
                       worst_recovery_error=worst_err, decay=tuple(decay))


def _cond3(details) -> Cond3Result:
    details = tuple(details)
    return Cond3Result(passed=all(d.passed for d in details), details=details)


def _check_run(inst: CriterionInstance, horizon: int, tol: float):
    """The arguments both criteria take: a horizon within the polys and a
    tolerance > 0 (NaN is not)."""
    if not 1 <= horizon <= len(inst.polys):
        raise ValueError(f"horizon must lie in 1..{len(inst.polys)}")
    if not tol > 0:
        raise ValueError("tol must be positive")


def check_criterion_I(inst: CriterionInstance, horizon: int,
                      tol: float) -> CriterionVerdict:
    """First criterion: decay on X, recovery toward Y, and full invariance
    of the subspace under every P_k(T)."""
    _check_run(inst, horizon, tol)
    cond1 = _check_cond1(inst, *_walk(inst.op, [x.coords for x in inst.X],
                                      inst.polys[:horizon],
                                      lambda k0, r0, out: _norms(out, inst.X[0].p)), tol)
    cond2 = _check_cond2(inst, horizon, tol)
    results = invariance_checks(inst.polys[:horizon], inst.op, inst.materialized(),
                                membership_rtol=inst.membership_rtol)
    cond3 = _cond3(Cond3Detail(k=k + 1, passed=res.invariant,
                               max_residual=res.max_residual,
                               source_index=res.violating_basis_index,
                               landing_index=res.landing_index)
                   for k, res in enumerate(results))
    return CriterionVerdict("I", cond1, cond2, cond3, horizon)


def check_criterion_II(inst: CriterionInstance, horizon: int,
                       tol: float) -> CriterionVerdict:
    """Second criterion: as the first, but condition 3 only asks that every
    P_k(T)x for x in X stays inside the subspace (a preimage condition,
    weaker than invariance).  Conditions 1 and 3 read one walk of X."""
    _check_run(inst, horizon, tol)
    mask = inst.materialized().mask()
    # Each image's off-span residual, and the index of its largest
    # off-span |entry| (that of ``spaces.off_span_argmax``).
    residuals = np.zeros((horizon, len(inst.X)))
    landing = np.zeros((horizon, len(inst.X)), dtype=int)

    def measure(k0, r0, out):
        off = np.where(mask, 0.0, out)
        at = np.s_[k0: k0 + len(out), r0: r0 + out.shape[1]]
        residuals[at] = _norms(off, inst.X[0].p)
        landing[at] = np.abs(off).argmax(axis=2)
        return _norms(out, inst.X[0].p)

    cond1 = _check_cond1(inst, *_walk(inst.op, [x.coords for x in inst.X],
                                      inst.polys[:horizon], measure), tol)
    cond2 = _check_cond2(inst, horizon, tol)
    details = []
    for k, res in enumerate(residuals):
        over = np.flatnonzero(res > tol)
        source = int(over[0]) if over.size else None
        details.append(Cond3Detail(
            k=k + 1, passed=source is None, max_residual=float(res.max(initial=0.0)),
            source_index=source,
            landing_index=None if source is None else int(landing[k, source])))
    cond3 = _cond3(details)
    return CriterionVerdict("II", cond1, cond2, cond3, horizon)


# ---------------------------------------------------------------------------
# The constructive builder
# ---------------------------------------------------------------------------


def xi_schedule(j_max: int, c: float = 1.0) -> list:
    """The summable step budgets xi_j = c / (j 2^j).

    This concrete choice gives j * xi_j = c / 2^j and a tail sum below
    c / 2^j, so both vanish geometrically.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if not c > 0:
        raise ValueError("c must be positive")
    return [c / (j * 2.0 ** j) for j in range(1, j_max + 1)]


@dataclass(frozen=True)
class BuildStep:
    j: int
    k: int
    xi: float
    four_term_bound: float
    post_limit: float
    post_error: float


@dataclass(frozen=True)
class BuildResult:
    x: TruncVector
    steps: tuple


def _four_term_bound(inst: CriterionInstance, xc: TruncVector, xc_norm: float,
                     y: TruncVector, P: ConvexPolynomial, chosen_k: list,
                     chosen_x: list) -> float:
    """``xc_norm`` (= ||xc||) + ||P(T) xc - y|| plus the worst cross term
    ||P(T) x_i|| + ||P_{k_i}(T) xc|| over the earlier steps i, from one
    engine walk of xc and every earlier summand through P and every
    earlier P_{k_i}.  Errors come in the order of the terms: (0, 0), then
    (0, i) and (i, 0) for each i."""

    def measure(j0, r0, out):
        values = _norms(out, xc.p)
        if j0 == r0 == 0:
            values[0, 0] = target_distances(out[0, :1], xc.p, (y,))[0, 0]
        return values

    values, faults = _walk(inst.op, [v.coords for v in [xc] + chosen_x],
                           [P] + [inst.poly(k) for k in chosen_k], measure)
    _raise_first({jr: err for jr, err in faults.items() if 0 in jr},
                 key=lambda jr: (max(jr), jr[1] == 0))
    cross = values[0, 1:] + values[1:, 0]
    return float(xc_norm + values[0, 0] + cross.max(initial=0.0))


def build_cyclic_vector(inst: CriterionInstance, j_max: int, c: float = 1.0, *,
                        k_step: int = 64) -> BuildResult:
    """Greedy summand selection for a cyclic-vector candidate.

    Step j picks the first index k in (k_{j-1}, k_{j-1} + k_step] whose
    recovery summand x_j lies in the subspace (its residual at most
    ``inst.membership_rtol`` * ||x_j||) and satisfies, against every
    earlier step i, the four-term budget

        ||x_j|| + ||P_{k_j}(T) x_i|| + ||P_{k_i}(T) x_j||
                + ||P_{k_j}(T) x_j - y_j||  <  xi_j.

    The result is x = sum of the selected summands.  After the last step
    every target is re-verified against the budget's telescoped limit
    j * xi_j + sum_{i>j} xi_i; a violation would mean a bookkeeping bug,
    so it raises BuildVerificationFailed.  Infeasibility at any step is an explicit error carrying
    the best bound achieved, never a silent relaxation.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if not inst.Y:
        raise ValueError("the builder needs a nonempty target list")
    mask = inst.materialized().mask()
    steps = min(j_max, len(inst.Y))
    xi = xi_schedule(steps, c)

    chosen_k: list = []
    chosen_x: list = []
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
            # Summands must lie in the subspace directionally: the residual
            # is compared against the candidate's own norm, not the global
            # membership floor, so a structurally misaligned summand cannot
            # slip in just because it has decayed to numerical dust.
            xc_norm = norm(xc)
            residual = off_span_norms(xc.coords[None], mask, xc.p)[0]
            if residual > inst.membership_rtol * xc_norm and xc_norm > 0:
                continue
            bound = _four_term_bound(inst, xc, xc_norm, y, P, chosen_k, chosen_x)
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
    # Member i's image is measured against target i: the diagonal of its
    # block's distances to the block's targets.
    errors, faults = _walk(inst.op, [x.coords], [inst.poly(k) for _, k, _, _ in records],
                           lambda j0, r0, out: np.diagonal(target_distances(
                               out[:, 0], x.p, inst.Y[j0: j0 + len(out)]))[:, None])
    out = []
    for i, ((j, k, xi_j, bound), err) in enumerate(zip(records, errors[:, 0].tolist())):
        if (i, 0) in faults:
            raise faults[i, 0]
        limit = j * xi_j + tail[j - 1]
        if err > limit * (1 + 1e-9) + 1e-15:
            raise BuildVerificationFailed(step=j, error=err, limit=limit)
        out.append(BuildStep(j=j, k=k, xi=xi_j, four_term_bound=bound,
                             post_limit=limit, post_error=err))
    return BuildResult(x=x, steps=tuple(out))
