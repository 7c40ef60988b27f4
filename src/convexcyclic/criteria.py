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

Condition checks over (x, k) / (y, k) grids are independent; the builder's
step loop is inherently sequential (each step depends on the previous
selections) and runs single-threaded.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (BuildVerificationFailed, DimensionTooSmall,
                     RecoveryRuleMissing, ScheduleInfeasible,
                     TruncationOverflow)
from .dynamics import invariance_check
from .operators import ConvexPolynomial, OperatorSpec, eval_poly, images
from .spaces import (MEMBERSHIP_RTOL, BasisIndexSet, SubspaceSpec,
                     TruncVector, coords_norm, distance_to_subspace,
                     materialize_subspace, membership_tolerance, norm,
                     off_span_norm, row_distance)


# ---------------------------------------------------------------------------
# Recovery rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftRecovery:
    """x_k = scale^(-d) S^d y with S the plain forward shift and d the
    degree of P_k.

    This is the exact right inverse of a scaled backward shift: applying
    (scale * B)^d recovers y bit for bit when scale is a power of two.
    """

    scale: complex

    def __post_init__(self):
        s = complex(self.scale)
        if s == 0 or not cmath.isfinite(s):
            raise ValueError("recovery scale must be finite and nonzero")
        object.__setattr__(self, "scale", s.real if s.imag == 0 else s)

    def recover(self, y: TruncVector, poly: ConvexPolynomial) -> TruncVector:
        d = poly.degree
        if d == 0:
            return y
        tail = y.coords[y.dim - d:]
        if np.any(tail != 0):
            raise TruncationOverflow(
                f"shifting support by {d} leaves the truncation of size {y.dim}")
        out = np.zeros_like(y.coords)
        out[d:] = y.coords[: y.dim - d]
        return y.with_coords(out * self.scale ** (-d))


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
    RecoveryRuleMissing).
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
        for label, vectors in (("X", self.X), ("Y", self.Y)):
            for i, v in enumerate(vectors):
                if v.dim != self.dim:
                    raise DimensionTooSmall(
                        f"{label}[{i}] has dim {v.dim}, instance dim is {self.dim}")
                if distance_to_subspace(v, m) > membership_tolerance(v, self.membership_rtol):
                    raise ValueError(f"{label}[{i}] lies outside the subspace span")

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
    passed: bool
    worst_tail_norm: float
    worst_recovery_error: float


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


def _orbit(inst: CriterionInstance, x: TruncVector, polys) -> np.ndarray:
    """P(T)x for each P in ``polys``, one raw row each, in one engine walk."""
    return images(inst.op, x.coords[None], polys)[:, 0]


def _check_cond1(inst: CriterionInstance, horizon: int, tol: float) -> Cond1Result:
    worst = 0.0
    passed = True
    for x in inst.X:
        seq = [coords_norm(w, x.p) for w in _orbit(inst, x, inst.polys[:horizon])]
        worst = max(worst, seq[-1])
        if not _settles(seq, tol):
            passed = False
    return Cond1Result(passed=passed, worst_tail_norm=worst)


def recovery_decay(inst: CriterionInstance, y_index: int, horizon: int) -> tuple:
    """Condition 2's sequences for target ``y_index``: the recovery norms
    ||x_k|| and errors ||P_k(T) x_k - y|| for k = 1..horizon."""
    y = inst.Y[y_index]
    norms = []
    errors = []
    for k in range(1, horizon + 1):
        xk = inst.recovery_vector(y_index, k)
        norms.append(norm(xk))
        errors.append(row_distance(_orbit(inst, xk, [inst.poly(k)])[0], xk.p, y))
    return norms, errors


def _check_cond2(inst: CriterionInstance, horizon: int, tol: float) -> Cond2Result:
    worst_norm = 0.0
    worst_err = 0.0
    passed = True
    for y_index in range(len(inst.Y)):
        norms, errors = recovery_decay(inst, y_index, horizon)
        worst_norm = max(worst_norm, norms[-1])
        worst_err = max(worst_err, errors[-1])
        if not (_settles(norms, tol) and _settles(errors, tol)):
            passed = False
    return Cond2Result(passed=passed, worst_tail_norm=worst_norm,
                       worst_recovery_error=worst_err)


def _landing_index(row: np.ndarray, mask: np.ndarray) -> Optional[int]:
    """Index of the largest coordinate of an image row outside the span, if any."""
    off = np.where(mask, 0.0, np.abs(row))
    if not np.any(off > 0):
        return None
    return int(np.argmax(off))


def check_criterion_I(inst: CriterionInstance, horizon: int,
                      tol: float) -> CriterionVerdict:
    """First criterion: decay on X, recovery toward Y, and full invariance
    of the subspace under every P_k(T)."""
    if not 1 <= horizon <= len(inst.polys):
        raise ValueError(f"horizon must lie in 1..{len(inst.polys)}")
    m = inst.materialized()
    cond1 = _check_cond1(inst, horizon, tol)
    cond2 = _check_cond2(inst, horizon, tol)
    details = []
    for k in range(1, horizon + 1):
        P = inst.poly(k)
        res = invariance_check(P, inst.op, m, membership_rtol=inst.membership_rtol)
        landing = None
        if res.violating_basis_index is not None:
            image = eval_poly(P, inst.op, TruncVector.basis(res.violating_basis_index, m.dim))
            landing = _landing_index(image.coords, m.mask())
        details.append(Cond3Detail(k=k, passed=res.invariant,
                                   max_residual=res.max_residual,
                                   source_index=res.violating_basis_index,
                                   landing_index=landing))
    cond3 = Cond3Result(passed=all(d.passed for d in details), details=tuple(details))
    return CriterionVerdict("I", cond1, cond2, cond3, horizon)


def check_criterion_II(inst: CriterionInstance, horizon: int,
                       tol: float) -> CriterionVerdict:
    """Second criterion: as the first, but condition 3 only asks that every
    P_k(T)x for x in X stays inside the subspace (a preimage condition,
    weaker than invariance)."""
    if not 1 <= horizon <= len(inst.polys):
        raise ValueError(f"horizon must lie in 1..{len(inst.polys)}")
    mask = inst.materialized().mask()
    cond1 = _check_cond1(inst, horizon, tol)
    cond2 = _check_cond2(inst, horizon, tol)
    worst = [0.0] * horizon
    source = [None] * horizon
    landing = [None] * horizon
    for x_index, x in enumerate(inst.X):
        for k, w in enumerate(_orbit(inst, x, inst.polys[:horizon])):
            residual = off_span_norm(w, mask, x.p)
            if residual > worst[k]:
                worst[k] = residual
            if source[k] is None and residual > tol:
                source[k] = x_index
                landing[k] = _landing_index(w, mask)
    details = [Cond3Detail(k=k + 1, passed=source[k] is None, max_residual=worst[k],
                           source_index=source[k], landing_index=landing[k])
               for k in range(horizon)]
    cond3 = Cond3Result(passed=all(d.passed for d in details), details=tuple(details))
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

    @property
    def chosen_indices(self) -> tuple:
        return tuple(s.k for s in self.steps)


def build_cyclic_vector(inst: CriterionInstance, j_max: int, c: float = 1.0, *,
                        k_step: int = 64,
                        membership_rtol: float = MEMBERSHIP_RTOL) -> BuildResult:
    """Greedy summand selection for a cyclic-vector candidate.

    Step j picks the first index k in (k_{j-1}, k_{j-1} + k_step] whose
    recovery summand x_j lies in the subspace and satisfies, against every
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
    m = inst.materialized()
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
            if distance_to_subspace(xc, m) > membership_rtol * norm(xc) and norm(xc) > 0:
                continue
            base = norm(xc) + row_distance(_orbit(inst, xc, [P])[0], xc.p, y)
            worst_cross = 0.0
            for ki, xi_vec in zip(chosen_k, chosen_x):
                cross = (coords_norm(_orbit(inst, xi_vec, [P])[0], xi_vec.p)
                         + coords_norm(_orbit(inst, xc, [inst.poly(ki)])[0], xc.p))
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
        err = row_distance(_orbit(inst, x, [inst.poly(k)])[0], x.p, inst.Y[j - 1])
        if err > limit * (1 + 1e-9) + 1e-15:
            raise BuildVerificationFailed(step=j, error=err, limit=limit)
        out.append(BuildStep(j=j, k=k, xi=xi_j, four_term_bound=bound,
                             post_limit=limit, post_error=err))
    return BuildResult(x=x, steps=tuple(out))
