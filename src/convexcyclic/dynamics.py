"""Orbit generation and finite-scale dynamics diagnostics.

Density and transitivity here are desk-scale surrogates: a finite
polynomial family stands in for the collection of all convex polynomials
and a finite target/pair sample stands in for a countable ball basis.
Reports therefore carry the family descriptor and sampling parameters, so
every claim is scoped to what was actually searched.  A negative search
result is evidence, never proof.

Every diagnostic takes its orbit points from the engine in
``operators`` as raw row blocks of bounded size: density streams the
family block by block, invariance applies every P(T) asked for to the
span's identity rows in one walk, and transitivity scans each pair's (member, sample) images in
enumeration order.  Norms and distances are taken row by row with the
same calls ``spaces`` makes, so reports match single-vector evaluation
bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BallCenterOutsideSubspace, TargetOutsideSubspace
from .errors import DimensionMismatch
from .operators import (ConvexPolynomial, OperatorSpec, PolynomialFamily,
                        block_rows, image_blocks, images)
from .spaces import (MEMBERSHIP_RTOL, BasisIndexSet, TruncVector,
                     distance_to_subspace, membership_tolerance, norm,
                     off_span_argmax, off_span_norm, row_distance,
                     row_tolerance)


class Verdict(enum.Enum):
    DENSE_AT_SCALE = "DenseAtScale"
    NOT_COVERED_AT_SCALE = "NotCoveredAtScale"


@dataclass(frozen=True)
class TargetScore:
    """Best approximation of one target by admissible orbit points."""

    best_distance: float
    witness: Optional[ConvexPolynomial]
    witness_index: Optional[int]


@dataclass(frozen=True)
class DensityReport:
    targets: tuple
    per_target: tuple
    epsilon: float
    verdict: Verdict
    family: PolynomialFamily
    orbit_size: int
    admissible_orbit_size: int

    def best_distances(self) -> tuple:
        return tuple(s.best_distance for s in self.per_target)


@dataclass(frozen=True)
class BallPair:
    """U and V are the subspace balls around these centers."""

    u_center: TruncVector
    v_center: TruncVector
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class PairResult:
    found: bool
    witness: Optional[ConvexPolynomial]
    witness_index: Optional[int]
    invariance_residual: float

    def __post_init__(self):
        if self.found != (self.witness is not None):
            raise ValueError("witness must be present exactly when found")
        if self.invariance_residual < 0:
            raise ValueError("invariance residual must be nonnegative")


@dataclass(frozen=True)
class TransitivityReport:
    pairs: tuple
    per_pair: tuple
    family: PolynomialFamily
    samples_per_ball: int
    seed: int

    def all_found(self) -> bool:
        return all(r.found for r in self.per_pair)


@dataclass(frozen=True)
class InvarianceResult:
    invariant: bool
    max_residual: float
    violating_basis_index: Optional[int]
    landing_index: Optional[int]


def orbit_segment(op: OperatorSpec, x: TruncVector,
                  family: PolynomialFamily) -> list:
    """[P(T)x for P in family], in family enumeration order."""
    return [x.with_coords(w) for w in images(op, x.coords[None], family.members())[:, 0]]


def density_score(op: OperatorSpec, x: TruncVector, m: BasisIndexSet,
                  family: PolynomialFamily, targets: Sequence[TruncVector],
                  epsilon: float, *,
                  membership_rtol: float = MEMBERSHIP_RTOL) -> DensityReport:
    """How well do admissible orbit points cover the targets?

    For each target y the score is min over the family of ||P(T)x - y||,
    restricted to orbit points inside the subspace: the orbit is
    intersected with the subspace before density is asked for.  The verdict
    is DenseAtScale exactly when every best distance is <= epsilon.
    Witnesses break ties toward the first family member within 1e-12 of
    the minimum.  The orbit is streamed in engine blocks and never held
    whole: only the admissible members' distances are kept.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not targets:
        raise ValueError("at least one target is required")
    if len(m) == 0:
        raise ValueError("the zero subspace admits no density diagnostic")
    for t_idx, y in enumerate(targets):
        if distance_to_subspace(y, m) > membership_tolerance(y, membership_rtol):
            raise TargetOutsideSubspace(
                f"target {t_idx} lies outside the subspace span")
    if x.dim != m.dim:
        raise DimensionMismatch(f"vector dim {x.dim} != subspace dim {m.dim}")

    members = family.members()
    mask = m.mask()
    admissible = []
    distances = [[] for _ in targets]
    # A distance error is raised only after the whole orbit is evaluated,
    # and for the first target in order, as when the orbit was held.
    errors = [None] * len(targets)
    for j0, out, fault in image_blocks(op, x.coords[None], members):
        if fault:
            raise next(iter(fault.values()))
        rows = []
        for j, w in enumerate(out[:, 0]):
            if off_span_norm(w, mask, x.p) <= row_tolerance(w, x.p, membership_rtol):
                admissible.append(j0 + j)
                rows.append(w)
        for t_idx, y in enumerate(targets):
            try:
                distances[t_idx].extend([row_distance(w, x.p, y) for w in rows])
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
        idx = admissible[pos]
        scores.append(TargetScore(dists[pos], members[idx], idx))
    verdict = (Verdict.DENSE_AT_SCALE
               if all(s.best_distance <= epsilon for s in scores)
               else Verdict.NOT_COVERED_AT_SCALE)
    return DensityReport(
        targets=tuple(targets),
        per_target=tuple(scores),
        epsilon=float(epsilon),
        verdict=verdict,
        family=family,
        orbit_size=len(members),
        admissible_orbit_size=len(admissible),
    )


def invariance_check(P: ConvexPolynomial, op: OperatorSpec, m: BasisIndexSet,
                     *, membership_rtol: float = MEMBERSHIP_RTOL) -> InvarianceResult:
    """Does P(T) map the subspace into itself, numerically?

    Applies P(T) to each basis vector of the span (its identity rows, in
    engine blocks) and measures the residual outside the span.  Reports
    the worst residual and the first violating basis index (in sorted
    order), with the index its image lands on farthest outside the span.
    """
    return invariance_checks((P,), op, m, membership_rtol=membership_rtol)[0]


def invariance_checks(polys: Sequence[ConvexPolynomial], op: OperatorSpec,
                      m: BasisIndexSet, *,
                      membership_rtol: float = MEMBERSHIP_RTOL) -> tuple:
    """``invariance_check`` of every P in ``polys`` from one engine walk.

    The span's identity rows walk through all of ``polys`` together,
    block_rows // len(polys) rows at a time, and each block is folded into
    the running results before the next one is made.  Raises the error of
    the first failing row of the first failing P.
    """
    mask = m.mask()
    worst = [0.0] * len(polys)
    violator = [None] * len(polys)
    landing = [None] * len(polys)
    first_fault = None
    step = max(1, block_rows(m.dim) // len(polys))
    for r0 in range(0, len(m), step):
        indices = m.indices[r0: r0 + step]
        basis = np.zeros((len(indices), m.dim))
        basis[np.arange(len(indices)), indices] = 1.0
        # At most block_rows rows: every block holds all of them.
        for j0, out, fault in image_blocks(op, basis, polys):
            for j, r in np.ndindex(out.shape[:2]):
                k = j0 + j
                if (j, r) in fault:
                    if first_fault is None or (k, r0 + r) < first_fault[:2]:
                        first_fault = (k, r0 + r, fault[j, r])
                    continue
                w = out[j, r]
                residual = off_span_norm(w, mask, 2.0)
                if residual > worst[k]:
                    worst[k] = residual
                if violator[k] is None and residual > row_tolerance(w, 2.0, membership_rtol):
                    violator[k] = indices[r]
                    landing[k] = off_span_argmax(w, mask)
    if first_fault is not None:
        raise first_fault[2]
    return tuple(InvarianceResult(invariant=violator[k] is None, max_residual=worst[k],
                                  violating_basis_index=violator[k],
                                  landing_index=landing[k])
                 for k in range(len(polys)))


def sample_ball(center: TruncVector, m: BasisIndexSet, radius: float,
                count: int, seed: int) -> list:
    """Deterministic points in the subspace ball.

    The center itself is always the first sample.  Remaining samples are
    uniform draws from ``default_rng(seed)`` in the coordinate cube of the
    span, clamped into the radius.  For complex experiments the sampled
    coefficients are real, a subset of the ball that keeps sampling
    reproducible.
    """
    samples = [center]
    extra = count - 1
    if extra <= 0 or len(m) == 0:
        return samples
    cube = 2.0 * np.random.default_rng(seed).random((extra, len(m))) - 1.0
    idx = list(m.indices)
    for row in cube:
        coords = np.zeros(center.dim)
        coords[idx] = row
        offset = TruncVector(coords.astype(center.coords.dtype), p=center.p)
        scale = norm(offset)
        if scale > 1.0:
            offset = offset * (1.0 / scale)
        samples.append(center + radius * offset)
    return samples


def transitivity_search(op: OperatorSpec, m: BasisIndexSet,
                        pairs: Sequence[BallPair], family: PolynomialFamily,
                        samples_per_ball: int = 8, seed: int = 0, *,
                        membership_rtol: float = MEMBERSHIP_RTOL) -> TransitivityReport:
    """Search for polynomials carrying part of each V-ball into each U-ball.

    A pair is "found" when some sampled v in the V-ball has P(T)v inside
    the U-ball and inside the subspace (relatively open sets of the
    subspace contain only subspace points).  The first (family member,
    sample) hit in enumeration order wins, and the witness's invariance
    residual over the whole subspace is recorded alongside.  ``found ==
    False`` means no witness in this family at this sampling resolution:
    evidence of non-transitivity, not proof.
    """
    if len(m) == 0:
        raise ValueError("the zero subspace admits no transitivity search")
    for p_idx, pair in enumerate(pairs):
        for label, center in (("U", pair.u_center), ("V", pair.v_center)):
            if distance_to_subspace(center, m) > membership_tolerance(center, membership_rtol):
                raise BallCenterOutsideSubspace(
                    f"pair {p_idx}: {label} center lies outside the subspace span")

    members = family.members()
    mask = m.mask()

    def search_one(p_idx: int) -> PairResult:
        pair = pairs[p_idx]
        samples = sample_ball(pair.v_center, m, pair.radius, samples_per_ball,
                              seed + 1000003 * p_idx)
        p = pair.v_center.p
        block = np.array([v.coords for v in samples])
        for j0, out, fault in image_blocks(op, block, members):
            for j, r in np.ndindex(out.shape[:2]):
                if (j, r) in fault:
                    raise fault[j, r]
                w = out[j, r]
                if off_span_norm(w, mask, p) > row_tolerance(w, p, membership_rtol):
                    continue
                if row_distance(w, p, pair.u_center) <= pair.radius:
                    P = members[j0 + j]
                    residual = invariance_check(P, op, m,
                                                membership_rtol=membership_rtol).max_residual
                    return PairResult(True, P, j0 + j, residual)
        return PairResult(False, None, None, 0.0)

    return TransitivityReport(
        pairs=tuple(pairs),
        per_pair=tuple(search_one(p_idx) for p_idx in range(len(pairs))),
        family=family,
        samples_per_ball=samples_per_ball,
        seed=seed,
    )


def default_density_targets(m: BasisIndexSet, count: int = 32, seed: int = 0,
                            radius: float = 1.0, p: float = 2.0,
                            complex_field: bool = False) -> list:
    """Normalized basis members of the span, topped up with seeded ball
    samples around the origin until ``count`` targets exist."""
    targets = [TruncVector.basis(j, m.dim, p=p, complex_field=complex_field)
               for j in m.indices[:count]]
    missing = count - len(targets)
    if missing > 0:
        center = TruncVector.zeros(m.dim, p=p, complex_field=complex_field)
        targets.extend(sample_ball(center, m, radius, missing + 1, seed)[1:])
    return targets
