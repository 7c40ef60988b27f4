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
batched row kernels of ``spaces`` (row norms, taken once for the norm
screens and the tolerances, off-span residuals and, from one
``target_distances`` call, the distances to every target, each taken on
the block patched over that target's support window), which
give every row the bits of its one-row norm; density measures only the
images whose norms leave them a chance to be nearest a target.  The
vector lists a caller passes in (density targets, ball centers) are
validated the same way, as one block per list (``first_outside``), with
the error a loop over the vectors would raise first.  The results are
then read in (member, row) order, so the first hit, the first error and
every tie-break are those of a loop over single images: density scores
the family's images in order, invariance applies every P(T) asked for to
the span's identity rows in one walk, and transitivity walks the ball
samples of consecutive pairs together where every member's images of
them fit one engine block, scans each pair's (member, sample) images in
enumeration order, measures only the images whose norm gap to the
U-center leaves them a chance to land in the U-ball, and checks the
distinct witnesses' invariance in one walk.
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
                     outside_span, row_norms, target_distances)


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
        if not self.radius > 0:
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


def _in_reach(norms, center_norms, reach, p: float, dim: int,
              slack: float = 0.0) -> np.ndarray:
    """False where the norm gap | ||w|| - ||c|| | <= ||w - c|| proves that
    row w measures farther than ``reach`` from center c, True elsewhere
    (the arrays broadcast).

    w is ruled out when the gap exceeds reach + rel (||w|| + ||c|| +
    reach) + 2 eta + slack.  rel = 1e-6 covers the relative rounding of
    every measured norm and distance (at most about dim * 2^-53), and
    eta = 4 (dim 2^-1074)^(1/p) the underflow of its terms, so a ruled-out
    row's measured distance, had it been measured, would exceed reach by
    more than slack.  A row or center of norm 2^1022 or more is never
    ruled out, so every difference that can overflow is measured.
    """
    rel, eta = 1e-6, 4.0 * (dim * 2.0 ** -1074) ** (1.0 / p)
    with np.errstate(over="ignore", invalid="ignore"):
        return (~(np.abs(norms - center_norms)
                  > reach + rel * (norms + center_norms + reach) + 2 * eta + slack)
                | ~(norms < 2.0 ** 1022) | ~(center_norms < 2.0 ** 1022))


def _may_be_nearest(norms: np.ndarray, target_norms: np.ndarray,
                    best: np.ndarray, p: float, dim: int) -> np.ndarray:
    """(targets x rows): False where row w cannot measure within 1e-12 of
    the least distance to target y that density can report, True elsewhere.

    ``best[t]`` is at least that least distance; it is first lowered to
    the rows' upper bounds (||w|| + ||y||)(1 + rel) + eta, with rel and
    eta those of ``_in_reach``, which then rules a row out when it cannot
    come within best + 2e-12 of y.
    """
    rel, eta = 1e-6, 4.0 * (dim * 2.0 ** -1074) ** (1.0 / p)
    w, y = norms[None, :], target_norms[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        best[:] = np.fmin(best, ((w + y) * (1 + rel) + eta).min(axis=1, initial=math.inf))
    return _in_reach(w, y, best[:, None], p, dim, slack=2e-12)


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
    (``_may_be_nearest``).  Every target of x's exponent is measured on
    the same images, so what is kept is one array of the measured members
    and, per engine block, one distance block (those targets x the
    block's measured images); the result is that of measuring every
    admissible image.  A distance that overflows (NaN) is raised after the
    walk, for the first such target in order.
    """
    if not epsilon > 0:
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
    # The members measured, and each block's distances (live targets x
    # measured images): every live target is measured on the same rows.
    measured, blocks = [], []
    # A distance error is raised only after the whole orbit is evaluated,
    # and for the first target in order, as when the orbit was held.
    overflowed = np.zeros(len(targets), dtype=bool)
    for j0, _, out, fault in image_stream(op, x.coords[None], table):
        if fault:
            raise next(iter(fault.values()))
        W = out[:, 0]
        norms = row_norms(W, x.p)
        rows = np.flatnonzero(~outside_span(W, mask, x.p, membership_rtol, norms)[1])
        admissible += rows.size
        if not rows.size:
            continue
        rows = rows[_may_be_nearest(norms[rows], target_norms, best,
                                    x.p, x.dim).any(axis=0)]
        if not rows.size:
            continue
        # W[rows] is a private copy, which target_distances patches in place.
        dists = target_distances(W[rows], x.p, live_targets)
        nan = np.isnan(dists).any(axis=1)
        overflowed[live] |= nan
        best[~nan] = np.minimum(best[~nan], dists[~nan].min(axis=1))
        measured.append(j0 + rows)
        blocks.append(dists)
    for t_idx, y in enumerate(targets):
        if overflowed[t_idx]:
            raise distance_overflow()
        if admissible:  # a target of another exponent fails at any image
            check_target(x.dim, x.p, y)

    scores = [TargetScore(math.inf, None, None)] * len(targets)
    if measured:
        members = np.concatenate(measured)
        for t_idx, dists in zip(live, np.concatenate(blocks, axis=1)):
            pos = int(np.flatnonzero(dists <= dists.min() + 1e-12)[0])
            idx = int(members[pos])
            scores[t_idx] = TargetScore(float(dists[pos]), table.member(idx), idx)
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
    failing P.  No polys walk no rows.
    """
    if not polys:
        return ()
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
    block = _ball_blocks([center], [radius], m, count, [seed])
    return [center] + [center.with_coords(row) for row in block[1:]]


def _ball_blocks(centers: Sequence[TruncVector], radii: Sequence[float],
                 m: BasisIndexSet, count: int, seeds: Sequence[int]) -> np.ndarray:
    """``sample_ball``'s samples of every center (one dtype and p) as one
    raw block, center by center, with the arithmetic of one sample at a
    time: center + offset * radius, where an offset of norm s > 1 is first
    multiplied by 1 / s."""
    extra = max(count - 1, 0) if len(m) else 0
    rows = np.array([center.coords for center in centers])[:, None]
    dim = rows.shape[2]
    offsets = np.zeros((len(rows), extra, dim), rows.dtype)
    offsets[:, :, m.indices] = [2.0 * np.random.default_rng(seed).random((extra, len(m))) - 1.0
                                for seed in seeds]
    flat = offsets.reshape(-1, dim)
    scale = row_norms(flat, centers[0].p)
    clamp = scale > 1.0
    flat[clamp] *= (1.0 / scale[clamp])[:, None]
    samples = rows + offsets * np.array(radii)[:, None, None]
    return np.concatenate([rows, samples], axis=1).reshape(-1, dim)


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

    Consecutive pairs of one dtype and p whose samples fit one engine
    block with every member walk together (``_search_walk``); a pair
    larger than that walks alone.  The walks stop at the first pair whose
    scan raises, and the distinct witnesses of the pairs ahead of it are
    checked in one ``invariance_checks`` walk.  Every result and error is
    that of scanning the pairs one after another: the first pair's error
    is raised, after the invariance error of any witness found ahead of it.
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
    # Each pair's sample block has max(samples_per_ball, 1) rows.
    per_walk = max(1, block_rows(m.dim) // max(1, len(table)) // max(samples_per_ball, 1))
    outcomes = []  # each pair's witness member, None, or the error its scan raises
    while len(outcomes) < len(pairs):
        i = len(outcomes)
        kind = (pairs[i].v_center.coords.dtype, pairs[i].v_center.p)
        j = i + 1
        while (j < len(pairs) and j - i < per_walk
               and (pairs[j].v_center.coords.dtype, pairs[j].v_center.p) == kind):
            j += 1
        X = _ball_blocks([pair.v_center for pair in pairs[i:j]],
                         [pair.radius for pair in pairs[i:j]], m, samples_per_ball,
                         [seed + 1000003 * k for k in range(i, j)])
        outcomes += _search_walk(op, mask, table, pairs[i:j], X, membership_rtol)
        if any(isinstance(o, Exception) for o in outcomes[i:]):
            break

    stop = next((k for k, o in enumerate(outcomes) if isinstance(o, Exception)), len(pairs))
    witnesses = list(dict.fromkeys(o for o in outcomes[:stop] if o is not None))
    results = invariance_checks([table.member(j) for j in witnesses], op, m,
                                membership_rtol=membership_rtol)
    residuals = {j: res.max_residual for j, res in zip(witnesses, results)}
    if stop < len(pairs):
        raise outcomes[stop]
    return TransitivityReport(
        pairs=tuple(pairs),
        per_pair=tuple(PairResult(False, None, None, 0.0) if j is None else
                       PairResult(True, table.member(j), j, residuals[j])
                       for j in outcomes),
        family=family,
        samples_per_ball=samples_per_ball,
        seed=seed,
    )


def _search_walk(op: OperatorSpec, mask: np.ndarray, table, pairs: Sequence[BallPair],
                 X: np.ndarray, rtol: float) -> list:
    """What scanning each pair's (member, sample) images in order finds:
    the member of its first image that lands in the subspace and the
    U-ball, None when no image does, or the error the scan raises first.

    ``X`` holds the pairs' sample blocks (one dtype and p, equal sizes),
    pair by pair, for one engine walk, which stops once every pair is
    decided.  Each pair reads its images in enumeration order up to its
    first fault, and an image is measured (membership, then distance) only
    if the norm gap to the U-center leaves ||w - u|| <= radius possible
    (``_in_reach``).  An image in the ball, or whose distance overflows
    (NaN), ends the scan before a later fault.
    """
    p, dim = pairs[0].v_center.p, mask.size
    size = len(X) // len(pairs)
    owner = np.arange(len(X)) // size  # the pair of each row
    radii = np.array([pair.radius for pair in pairs])
    # A U-center of another exponent fails at the first inside image, so
    # every image of its pair is measured.
    center_norms = np.array([row_norms(pair.u_center.coords[None], p)[0]
                             if pair.u_center.p == p else math.inf for pair in pairs])
    decided = {}
    cut = np.full(len(pairs), np.iinfo(np.intp).max)  # a pair reads the places below
    for j0, r0, out, fault in image_stream(op, X, table):
        count, rows = out.shape[:2]
        mine = owner[r0: r0 + rows]
        # Each image's place in its pair's (member, sample) scan, which the
        # fault map follows within a block: a pair stops at its first fault.
        place = np.add.outer((j0 + np.arange(count)) * size, (r0 + np.arange(rows)) % size)
        faults = {}
        for j, r in fault:
            k = int(mine[r])
            if k not in decided and k not in faults:
                faults[k], cut[k] = fault[j, r], place[j, r]
        W = out.reshape(-1, dim)
        norms = row_norms(W, p)
        measured = np.flatnonzero((place < cut[mine]) & _in_reach(
            norms.reshape(count, rows), center_norms[mine], radii[mine], p, dim))
        inside = measured[~outside_span(W[measured], mask, p, rtol, norms[measured])[1]]
        of_pair = mine[inside % rows]
        for k in sorted(set(of_pair.tolist())):
            own = inside[of_pair == k]
            try:
                dists = target_distances(W[own], p, (pairs[k].u_center,))[0]
            except (DimensionMismatch, ValueError) as err:
                decided[k] = err
                continue
            # The first image that lands in the U-ball or overflows.
            events = np.flatnonzero(~(dists > pairs[k].radius))
            if events.size:
                hit = events[0]
                decided[k] = (distance_overflow() if np.isnan(dists[hit])
                              else j0 + int(own[hit]) // rows)
        for k, error in faults.items():
            decided.setdefault(k, error)
        if len(decided) == len(pairs):
            break
        cut[list(decided)] = -1
    return [decided.get(k) for k in range(len(pairs))]


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
