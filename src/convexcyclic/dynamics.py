"""Orbit generation and finite-scale dynamics diagnostics.

Density and transitivity here are desk-scale surrogates: a finite
polynomial family stands in for the collection of all convex polynomials
and a finite target/pair sample stands in for a countable ball basis.
Reports therefore carry the family descriptor and sampling parameters, so
every claim is scoped to what was actually searched.  A negative search
result is evidence, never proof.

Every diagnostic reads its orbit points from ``operators.image_stream``,
one engine block at a time, from the family's term table: no polynomial
is built except a witness.  Each block is measured at once, with the
batched row kernels of ``spaces`` (off-span residuals, tolerances and,
from one ``target_distances`` call, the distances to every target, each
taken on the block patched over that target's support window), which
give every row the bits of its one-row norm; density measures only the
images whose norms leave them a chance to be nearest a target.  The
vector lists a caller passes in (density targets, ball centers) are
validated the same way, as one block per list (``first_outside``), with
the error a loop over the vectors would raise first.  The results are
then read in (member, row) order, so the first hit, the first error and
every tie-break are those of a loop over single images: density scores
the family's images in order, invariance applies every P(T) asked for to
the span's identity rows in one walk, and transitivity scans each pair's
(member, sample) images in enumeration order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BallCenterOutsideSubspace, TargetOutsideSubspace
from .errors import DimensionMismatch
from .operators import (ConvexPolynomial, Monomials, OperatorSpec,
                        block_rows, image_stream, images, term_table)
from .spaces import (MEMBERSHIP_RTOL, BasisIndexSet, TruncVector,
                     check_target, distance_overflow, off_span_argmax,
                     outside_span, row_distances, row_norms,
                     target_distances)


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
    family: Monomials | Sequence[ConvexPolynomial]
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
    family: Monomials | Sequence[ConvexPolynomial]
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


def first_outside(vectors: Sequence[TruncVector], mask: np.ndarray,
                  rtol: float = MEMBERSHIP_RTOL) -> Optional[int]:
    """The index of the first vector outside the span of ``mask``, or None.

    A vector v is outside when ``distance_to_subspace(v, m) >
    membership_tolerance(v, rtol)``.  The list is measured a block at a
    time, each block a run of at most ``block_rows`` vectors of one
    exponent p, with one ``spaces.outside_span`` call that gives every
    row the verdict of its one-vector measure.  A vector of another dim
    raises DimensionMismatch, as ``distance_to_subspace`` does, when no
    vector ahead of it is outside.
    """
    dim = mask.size
    cap = block_rows(dim)
    i = 0
    while i < len(vectors):
        v = vectors[i]
        if v.dim != dim:
            raise DimensionMismatch(f"vector dim {v.dim} != subspace dim {dim}")
        j = i + 1
        while (j < len(vectors) and j - i < cap and vectors[j].dim == dim
               and vectors[j].p == v.p):
            j += 1
        rows = np.stack([u.coords for u in vectors[i:j]])
        outside = np.flatnonzero(outside_span(rows, mask, v.p, rtol)[1])
        if outside.size:
            return i + int(outside[0])
        i = j
    return None


def _may_be_nearest(norms: np.ndarray, target_norms: np.ndarray,
                    best: np.ndarray, p: float, dim: int) -> np.ndarray:
    """(targets x rows): False where row w cannot measure within 1e-12 of
    the least distance to target y that density can report, True elsewhere.

    ``best[t]`` is at least that least distance; it is first lowered to
    the rows' upper bounds (||w|| + ||y||)(1 + rel) + eta.  Then
    | ||w|| - ||y|| | <= ||w - y|| rules a row out when it exceeds
    best + rel (||w|| + ||y|| + best) + 2 eta + 2e-12.  rel = 1e-6 covers
    the relative rounding of every measured norm and distance (at most
    about dim * 2^-53), and eta = 4 (dim 2^-1074)^(1/p) the underflow of
    its terms, so a ruled-out row's measured distance, had it been
    measured, would exceed the least one by more than 1e-12 plus the
    rounding of that sum.  A row or target of norm 2^1022 or more is never
    ruled out, so every difference that can overflow is measured.
    """
    rel, eta = 1e-6, 4.0 * (dim * 2.0 ** -1074) ** (1.0 / p)
    w, y = norms[None, :], target_norms[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        best[:] = np.fmin(best, ((w + y) * (1 + rel) + eta).min(axis=1, initial=math.inf))
        b = best[:, None]
        return (~(np.abs(w - y) > b + rel * (w + y + b) + 2 * eta + 2e-12)
                | ~(w < 2.0 ** 1022) | ~(y < 2.0 ** 1022))


def density_score(op: OperatorSpec, x: TruncVector, m: BasisIndexSet,
                  family: Monomials | Sequence[ConvexPolynomial],
                  targets: Sequence[TruncVector], epsilon: float, *,
                  membership_rtol: float = MEMBERSHIP_RTOL) -> DensityReport:
    """How well do admissible orbit points cover the targets?

    For each target y the score is min over the family of ||P(T)x - y||,
    restricted to orbit points inside the subspace: the orbit is
    intersected with the subspace before density is asked for.  The verdict
    is DenseAtScale exactly when every best distance is <= epsilon.
    Witnesses break ties toward the first family member within 1e-12 of
    the minimum.  The orbit is streamed and never held whole.  An
    admissible image is measured against a target only where its norm
    leaves it a chance to come within 1e-12 of the least distance
    (``_may_be_nearest``), and only those distances are kept; the result
    is that of measuring every admissible image.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not targets:
        raise ValueError("at least one target is required")
    if len(m) == 0:
        raise ValueError("the zero subspace admits no density diagnostic")
    mask = m.mask()
    t_idx = first_outside(targets, mask, membership_rtol)
    if t_idx is not None:
        raise TargetOutsideSubspace(f"target {t_idx} lies outside the subspace span")
    if x.dim != m.dim:
        raise DimensionMismatch(f"vector dim {x.dim} != subspace dim {m.dim}")

    table = term_table(family)
    # The targets of x's exponent are measured together against each block.
    live = [t_idx for t_idx, y in enumerate(targets) if y.p == x.p]
    live_targets = [targets[t_idx] for t_idx in live]
    target_norms = np.array([row_norms(y.coords[None], x.p)[0] for y in live_targets])
    best = np.full(len(live), math.inf)  # bounds each target's best distance
    admissible = 0
    # The members each target was measured against, and their distances.
    measured = [[] for _ in targets]
    distances = [[] for _ in targets]
    # A distance error is raised only after the whole orbit is evaluated,
    # and for the first target in order, as when the orbit was held.
    errors = [None] * len(targets)
    for j0, _, out, fault in image_stream(op, x.coords[None], table):
        if fault:
            raise next(iter(fault.values()))
        W = out[:, 0]
        rows = np.flatnonzero(~outside_span(W, mask, x.p, membership_rtol)[1])
        admissible += rows.size
        if not rows.size:
            continue
        rows = rows[_may_be_nearest(row_norms(W, x.p)[rows], target_norms, best,
                                    x.p, x.dim).any(axis=0)]
        if not rows.size:
            continue
        # W[rows] is a private copy, which target_distances patches in place.
        members = j0 + rows
        for k, (t_idx, dists) in enumerate(
                zip(live, target_distances(W[rows], x.p, live_targets))):
            if np.isnan(dists).any():
                errors[t_idx] = errors[t_idx] or distance_overflow()
            else:
                best[k] = min(best[k], dists.min())
            measured[t_idx].append(members)
            distances[t_idx].append(dists)
    for t_idx, err in enumerate(errors):
        if err is not None:
            raise err
        if admissible:  # a target of another exponent fails at any image
            check_target(x.dim, x.p, targets[t_idx])

    scores = []
    for members, dists in zip(measured, distances):
        if not dists:
            scores.append(TargetScore(math.inf, None, None))
            continue
        dists = np.concatenate(dists)
        pos = int(np.flatnonzero(dists <= dists.min() + 1e-12)[0])
        idx = int(np.concatenate(members)[pos])
        scores.append(TargetScore(float(dists[pos]), table.member(idx), idx))
    verdict = (Verdict.DENSE_AT_SCALE
               if all(s.best_distance <= epsilon for s in scores)
               else Verdict.NOT_COVERED_AT_SCALE)
    return DensityReport(
        targets=tuple(targets),
        per_target=tuple(scores),
        epsilon=float(epsilon),
        verdict=verdict,
        family=family,
        orbit_size=len(table),
        admissible_orbit_size=admissible,
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
    block_rows // len(polys) rows at a time, and each engine block is
    measured at once and folded into the running results before the next
    one is made.  Raises the error of the first failing row of the first
    failing P.
    """
    table = term_table(polys)
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
        for k0, s0, out, fault in image_stream(op, basis, table):
            if fault:
                (k, r), error = next(iter(fault.items()))
                if first_fault is None or (k0 + k, r0 + s0 + r) < first_fault[:2]:
                    first_fault = (k0 + k, r0 + s0 + r, error)
            residuals, outside = (a.reshape(out.shape[:2]) for a in outside_span(
                out.reshape(-1, m.dim), mask, 2.0, membership_rtol))
            for k in range(len(out)):
                worst[k0 + k] = max(worst[k0 + k], float(residuals[k].max()))
                if violator[k0 + k] is None and outside[k].any():
                    r = int(np.argmax(outside[k]))
                    violator[k0 + k] = indices[s0 + r]
                    landing[k0 + k] = off_span_argmax(out[k, r], mask)
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
    block = _ball_block(center, m, radius, count, seed)
    return [center] + [center.with_coords(row) for row in block[1:]]


def _ball_block(center: TruncVector, m: BasisIndexSet, radius: float,
                count: int, seed: int) -> np.ndarray:
    """``sample_ball``'s samples as one raw block, with the arithmetic of
    one sample at a time: center + offset * radius, where an offset of
    norm s > 1 is first multiplied by 1 / s."""
    extra = max(count - 1, 0) if len(m) else 0
    cube = 2.0 * np.random.default_rng(seed).random((extra, len(m))) - 1.0
    offsets = np.zeros((extra, center.dim), center.coords.dtype)
    offsets[:, list(m.indices)] = cube
    scale = row_norms(offsets, center.p)
    clamp = scale > 1.0
    offsets[clamp] *= (1.0 / scale[clamp])[:, None]
    return np.concatenate([center.coords[None], center.coords + offsets * radius])


def transitivity_search(op: OperatorSpec, m: BasisIndexSet,
                        pairs: Sequence[BallPair],
                        family: Monomials | Sequence[ConvexPolynomial],
                        samples_per_ball: int = 8, seed: int = 0, *,
                        membership_rtol: float = MEMBERSHIP_RTOL) -> TransitivityReport:
    """Search for polynomials carrying part of each V-ball into each U-ball.

    A pair is "found" when some sampled v in the V-ball has P(T)v inside
    the U-ball and inside the subspace (relatively open sets of the
    subspace contain only subspace points).  The first (family member,
    sample) hit in enumeration order wins, and the witness's invariance
    residual over the whole subspace is recorded alongside, computed once
    per witness in a search.  ``found ==
    False`` means no witness in this family at this sampling resolution:
    evidence of non-transitivity, not proof.
    """
    if len(m) == 0:
        raise ValueError("the zero subspace admits no transitivity search")
    mask = m.mask()
    i = first_outside([c for pair in pairs for c in (pair.u_center, pair.v_center)],
                      mask, membership_rtol)
    if i is not None:
        raise BallCenterOutsideSubspace(
            f"pair {i // 2}: {'UV'[i % 2]} center lies outside the subspace span")

    table = term_table(family)
    residuals = {}  # each witness's invariance residual, from its first hit

    def search_one(p_idx: int) -> PairResult:
        pair = pairs[p_idx]
        block = _ball_block(pair.v_center, m, pair.radius, samples_per_ball,
                            seed + 1000003 * p_idx)
        p = pair.v_center.p
        for j0, _, out, fault in image_stream(op, block, table):
            # Only the images before the block's first fault are read.
            W = out.reshape(-1, m.dim)
            if fault:
                j, r = next(iter(fault))
                W = W[: j * out.shape[1] + r]
            inside = np.flatnonzero(~outside_span(W, mask, p, membership_rtol)[1])
            if inside.size:
                dists = row_distances(W[inside], p, pair.u_center)
                # The first image that lands in the U-ball or overflows.
                events = np.flatnonzero(~(dists > pair.radius))
                if events.size:
                    if np.isnan(dists[events[0]]):
                        raise distance_overflow()
                    j = j0 + int(inside[events[0]]) // out.shape[1]
                    if j not in residuals:
                        residuals[j] = invariance_check(
                            table.member(j), op, m, membership_rtol=membership_rtol).max_residual
                    return PairResult(True, table.member(j), j, residuals[j])
            if fault:
                raise next(iter(fault.values()))
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
