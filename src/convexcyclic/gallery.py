"""Parameterized generators for the named example instances.

Each entry bundles an operator/subspace instance with the polynomial
family, ball pairs, run parameters and the verdicts the configuration is
expected to produce, so the test suite and the CLI can reproduce every
example end to end.  Entry construction is pure and deterministic: the
same parameters always produce the identical instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .criteria import (CriterionInstance, ShiftRecovery, build_cyclic_vector,
                       check_criterion_I, check_criterion_II)
from .dynamics import (BallPair, Verdict, density_score, invariance_checks,
                       transitivity_search)
from .errors import DimensionTooSmall, LambdaTooSmall, ScheduleInfeasible
from .operators import (BackwardShift, ConvexPolynomial, DirectSum, Identity,
                        Monomials, OperatorSpec, Scale, eval_poly, images,
                        screen_necessary_conditions)
from .spaces import (DirectSumFactor, IndexSet, IntervalFamily, ParityZero,
                     RecursiveSpan, SubspaceSpec, TruncVector,
                     materialize_subspace, norm)


@dataclass(frozen=True)
class ExpectedVerdicts:
    """What running the referenced checkers on an entry must produce."""

    criterion_I: Optional[Tuple[bool, bool, bool]] = None
    criterion_II: Optional[Tuple[bool, bool, bool]] = None
    density: Optional[Verdict] = None
    pair_found: Optional[Tuple[bool, ...]] = None
    builder_succeeds: Optional[bool] = None
    builder_fails_at_step: Optional[int] = None

    def __post_init__(self):
        if self.builder_succeeds and self.builder_fails_at_step is not None:
            raise ValueError("a builder cannot both succeed and fail")
        # A full criterion pass may not be declared next to a negative
        # density expectation; the two claims contradict each other.
        full_pass = self.criterion_II == (True, True, True) or \
            self.criterion_I == (True, True, True)
        if full_pass and self.density == Verdict.NOT_COVERED_AT_SCALE:
            raise ValueError("expected verdicts are inconsistent: criterion "
                             "pass with a negative density verdict")


@dataclass(eq=False)
class GalleryEntry:
    name: str
    dim: int
    op: OperatorSpec
    subspace: SubspaceSpec
    instance: Optional[CriterionInstance]
    family: object
    pairs: Tuple[BallPair, ...]
    expected: ExpectedVerdicts
    horizon: int = 0
    tol: float = 1e-6
    epsilon: float = 1e-2
    j_max: int = 0
    c: float = 1.0
    samples_per_ball: int = 8
    seed: int = 7
    notes: dict = field(default_factory=dict)


def _unit(entries: Sequence[Tuple[int, float]], dim: int, scale: float = 1.0,
          dtype=np.float64) -> TruncVector:
    """Normalized vector with the given (index, value) support, rescaled."""
    coords = np.zeros(dim, dtype=dtype)
    for i, v in entries:
        coords[i] = v
    return TruncVector(coords / np.linalg.norm(coords) * scale)


def _shifted(y: TruncVector, degree: int, scale: complex) -> TruncVector:
    """scale^(-degree) * (forward shift)^degree applied to y."""
    return ShiftRecovery(scale).recover(y, ConvexPolynomial.monomial(degree))


# ---------------------------------------------------------------------------
# Direct sum: block operator confined to the first block
# ---------------------------------------------------------------------------


def entry_direct_sum(dim: int = 8) -> GalleryEntry:
    """Doubled-up operator (2B on the left block, identity on the right)
    with the subspace equal to the left block.

    Orbits of left-block vectors stay exactly in the block, the identity
    block alone fails the necessary-condition screen, and the density
    report over left-block targets must match the standalone operator's.
    """
    if dim < 2 or dim % 2:
        raise ValueError("direct-sum entry needs an even dimension >= 2")
    split = dim // 2
    op = DirectSum(Scale(2.0, BackwardShift()), Identity(), split=split)
    subspace = DirectSumFactor(position=0, split=split)
    coords = np.zeros(dim)
    coords[:split] = [2.0 ** (-j) for j in range(split)]
    coords[:split] /= np.linalg.norm(coords[:split])
    candidate = TruncVector(coords)
    family = Monomials(max(split - 1, 0))
    return GalleryEntry(
        name="direct_sum",
        dim=dim,
        op=op,
        subspace=subspace,
        instance=None,
        family=family,
        pairs=(),
        expected=ExpectedVerdicts(),
        notes={"split": split, "candidate": candidate,
               "standalone_op": Scale(2.0, BackwardShift())},
    )


# ---------------------------------------------------------------------------
# Interval-family subspaces for the doubled backward shift
# ---------------------------------------------------------------------------

#: The Y samples of every interval entry live in the first interval [4, 12].
_FIRST_START = 4
_FIRST_END = 12
_SUPPORT_MAX = _FIRST_END

#: Y-sample layout: two single-spike vectors, the full-width block vector,
#: and a two-spike vector.  The wide one is deliberately third so builder
#: infeasibility under constant widths surfaces at step 3.
_NARROW_SOURCES = (0, 1, 3)


def _interval_Y(dim: int) -> Tuple[TruncVector, ...]:
    return (
        _unit([(4, 1.0)], dim),
        _unit([(5, 1.0)], dim),
        _unit([(j, 1.0) for j in range(_FIRST_START, _FIRST_END + 1)], dim),
        _unit([(4, 1.0), (6, 1.0)], dim),
    )


def _place_degrees(starts: Sequence[int], ends: Sequence[int],
                   support_max: int) -> Tuple[Tuple[int, int], ...]:
    """Greedy shift-degree placement into the intervals past the first.

    Each placed degree N with interval k satisfies start_k < N,
    N + support < end_k and N - previous > start_k, the separation the
    interval construction needs.
    """
    placed = []
    prev = 0
    for k in range(1, len(starts)):
        while True:
            cand = max(starts[k] + 1, prev + starts[k] + 1)
            if cand + support_max < ends[k]:
                placed.append((cand, k))
                prev = cand
            else:
                break
    return tuple(placed)


def _interval_instance(starts, ends, degrees, dim, *, x_degrees,
                       x_sources=None) -> CriterionInstance:
    """Criterion instance for T = 2B over an interval-family subspace.

    ``degrees`` is the increasing degree schedule of the monomial
    sequence; X collects shifted copies of the selected Y members for the
    degrees in ``x_degrees`` (all of which must sit low enough that the
    decay condition settles by the horizon).
    """
    subspace = IntervalFamily(tuple(starts), tuple(ends))
    Y = _interval_Y(dim)
    sources = range(len(Y)) if x_sources is None else x_sources
    X = []
    for d in x_degrees:
        for s in sources:
            X.append(_shifted(Y[s], d, 2.0))
    polys = tuple(ConvexPolynomial.monomial(d) for d in degrees)
    return CriterionInstance(
        op=Scale(2.0, BackwardShift()),
        subspace=subspace,
        dim=dim,
        X=tuple(X),
        Y=Y,
        polys=polys,
        recovery=ShiftRecovery(2.0),
    )


def entry_lemma_5_1(k_count: int = 4, dim: int = 512, *,
                    constant_widths: bool = False) -> GalleryEntry:
    """Interval subspace with geometrically widening intervals: the second
    criterion passes in full and the builder succeeds.

    With ``constant_widths=True`` the widths stop growing, the widest Y
    sample can no longer be embedded by any declared shift degree, and the
    builder reports an explicit infeasibility at that step.
    """
    if k_count < 1:
        raise ValueError("k_count must be >= 1")
    name, x_sources, extra = "lemma_5_1", None, {}
    if constant_widths:
        width = _FIRST_END - _FIRST_START
        period = width + 2
        starts = tuple(_FIRST_START + period * t for t in range(8))
        ends = tuple(s + width for s in starts)
        if ends[-1] >= dim:
            raise DimensionTooSmall(
                f"constant-width layout needs dimension > {ends[-1]}")
        # Degrees march one interval per step but stay misaligned with the
        # interval period, so the full-width sample never embeds.
        degrees = tuple(15 + period * t for t in range(6))
        name = "lemma_5_1_constant_widths"
        x_degrees, x_sources = degrees[:2], _NARROW_SOURCES
        expected = ExpectedVerdicts(criterion_II=(True, True, True),
                                    builder_fails_at_step=3)
        horizon, j_max = 4, 3
    else:
        starts = [_FIRST_START]
        ends = [_FIRST_END]
        for k in range(1, k_count):
            width = (_FIRST_END - _FIRST_START) * 3 ** k
            starts.append(ends[-1] + 2)
            ends.append(starts[-1] + width)
        starts, ends = tuple(starts), tuple(ends)
        if ends[-1] >= dim:
            raise DimensionTooSmall(f"interval end {ends[-1]} needs dimension > {ends[-1]}")
        if k_count == 1:
            # Degenerate single block: no shifted copy fits, X is empty and
            # the preimage condition holds vacuously.
            degrees, x_degrees, horizon, j_max = (24,), (), 1, 0
            expected = ExpectedVerdicts(criterion_II=(True, True, True))
        else:
            placements = _place_degrees(starts, ends, _SUPPORT_MAX)
            degrees = tuple(n for n, _ in placements)
            if len(degrees) < k_count:
                raise DimensionTooSmall(
                    f"only {len(degrees)} shift degrees fit {k_count} intervals")
            x_degrees = degrees[:min(3, len(degrees) - 1)]
            expected = ExpectedVerdicts(criterion_II=(True, True, True),
                                        builder_succeeds=True)
            horizon, j_max = min(len(degrees), k_count), 3
            extra = {"placements": placements}
    inst = _interval_instance(starts, ends, degrees, dim, x_degrees=x_degrees,
                              x_sources=x_sources)
    return GalleryEntry(
        name=name,
        dim=dim,
        op=inst.op,
        subspace=inst.subspace,
        instance=inst,
        family=Monomials(8),
        pairs=(),
        expected=expected,
        horizon=horizon,
        tol=1e-6,
        j_max=j_max,
        notes={"degrees": degrees, "starts": starts, "ends": ends, **extra},
    )


def _gap_pairs(m_first: int, n_second: int, max_degree: int, dim: int,
               subspace: SubspaceSpec, epsilon: float = 0.5):
    """The perturbed-pair construction across the first inter-interval gap.

    V is the ball around x + (epsilon/2) e_{n_second} with x = e_{m_first};
    the U centers are the subspace projections of the shifted images of
    that center, one per candidate degree, plus the anchor x itself.
    """
    m = materialize_subspace(subspace, dim)
    mask = m.mask()
    anchor = TruncVector.basis(m_first, dim)
    v_center = anchor + (epsilon / 2.0) * TruncVector.basis(n_second, dim)
    radius = epsilon / 4.0
    pairs = [BallPair(anchor, v_center, radius)]
    coords = v_center.coords
    for d in range(1, max_degree + 1):
        shifted = np.zeros(dim)
        shifted[: dim - d] = (2.0 ** d) * coords[d:]
        pairs.append(BallPair(TruncVector(np.where(mask, shifted, 0.0)),
                              v_center, radius))
    return tuple(pairs)


def entry_lemma_5_2(gap: int = 16, max_degree: int = 8,
                    dim: int = 128) -> GalleryEntry:
    """Interval subspace with wide inter-interval gaps: no convex
    polynomial of searchable degree carries the perturbed V-ball into any
    candidate U-ball, because every positive degree dumps mass into the
    gap.  Shrinking the gap below the searched degree lets the shifted
    images land back inside the first interval, flipping pairs to found.
    """
    if gap < 1 or max_degree < 0:
        raise ValueError("gap must be >= 1 and max_degree >= 0")
    width = max(gap, max_degree) + 1
    starts = [_FIRST_START]
    ends = [starts[0] + width]
    for _ in range(2):
        starts.append(ends[-1] + gap)
        ends.append(starts[-1] + width)
    if ends[-1] >= dim:
        raise DimensionTooSmall(f"layout end {ends[-1]} needs a larger dimension")
    subspace = IntervalFamily(tuple(starts), tuple(ends))
    pairs = _gap_pairs(ends[0], starts[1], max_degree, dim, subspace)
    if gap > max_degree:
        found = tuple([False] * len(pairs))
        name = "lemma_5_2"
    else:
        # Degrees >= gap re-enter the first interval and are hit exactly by
        # the matching monomial at the ball center.
        found = tuple([False] + [d >= gap for d in range(1, max_degree + 1)])
        name = "lemma_5_2_narrow_gap"
    return GalleryEntry(
        name=name,
        dim=dim,
        op=Scale(2.0, BackwardShift()),
        subspace=subspace,
        instance=None,
        family=Monomials(max_degree),
        pairs=pairs,
        expected=ExpectedVerdicts(pair_found=found),
        notes={"gap": gap, "max_degree": max_degree,
               "starts": tuple(starts), "ends": tuple(ends)},
    )


def entry_prop_4_8(dim: int = 1024) -> GalleryEntry:
    """Both widths and gaps grow: the second criterion passes in full, yet
    the cross-gap transitivity search stays empty.  A within-interval pair
    is included to show the search itself can find witnesses."""
    starts = [4]
    ends = [12]
    for k in range(1, 4):
        starts.append(ends[-1] + 16 * 2 ** k)
        ends.append(starts[-1] + 8 * 4 ** k)
    if ends[-1] >= dim:
        raise DimensionTooSmall(f"layout end {ends[-1]} needs dimension > {ends[-1]}")
    placements = _place_degrees(starts, ends, _SUPPORT_MAX)
    degrees = tuple(n for n, _ in placements)
    inst = _interval_instance(tuple(starts), tuple(ends), degrees, dim,
                              x_degrees=degrees[:len(degrees) - 1])
    max_degree = 8
    pairs = list(_gap_pairs(ends[0], starts[1], max_degree, dim, inst.subspace))
    found = [False] * len(pairs)
    # Deep inside the widest interval a plain two-step shift pair is found.
    pairs.append(BallPair(4.0 * TruncVector.basis(ends[-1] - 2, dim),
                          TruncVector.basis(ends[-1], dim), 0.125))
    found.append(True)
    return GalleryEntry(
        name="prop_4_8",
        dim=dim,
        op=inst.op,
        subspace=inst.subspace,
        instance=inst,
        family=Monomials(max_degree),
        pairs=tuple(pairs),
        expected=ExpectedVerdicts(criterion_II=(True, True, True),
                                  pair_found=tuple(found)),
        horizon=len(degrees),
        tol=1e-6,
        j_max=2,
        notes={"degrees": degrees, "starts": tuple(starts),
               "ends": tuple(ends), "placements": placements},
    )


# ---------------------------------------------------------------------------
# Recursive subspace counterexample
# ---------------------------------------------------------------------------

_RECURSIVE_OFFSETS = (0, 1, 3, 9, 27)


def entry_example_5_2(depth: int = 3, dim: int = 64) -> GalleryEntry:
    """Recursive nested-span subspace for T = 2B: the first two criterion
    conditions hold while the third fails (for depth >= 2), with the
    violating image landing outside the materialized index set, on index 2
    at the default depth.

    At depth 1 the span is downward closed, so no backward-shift
    polynomial can leave it and all three conditions hold; the smallest
    failing case appears at depth 2.
    """
    if not 1 <= depth <= len(_RECURSIVE_OFFSETS) - 1:
        raise ValueError(f"depth must lie in 1..{len(_RECURSIVE_OFFSETS) - 1}")
    offsets = _RECURSIVE_OFFSETS
    subspace = RecursiveSpan(offsets, depth=depth)
    stage_sets = [subspace.stage_indices(k) for k in range(depth + 1)]
    poly_degrees = offsets[1:]
    if max(stage_sets[-1]) >= dim or poly_degrees[-1] + max(stage_sets[min(2, depth)]) >= dim:
        raise DimensionTooSmall("recursive layout needs a larger dimension")

    def stage_vectors(k: int):
        idx = stage_sets[k]
        vecs = [_unit([(j, 1.0)], dim) for j in idx]
        if len(idx) >= 2:
            vecs.append(_unit([(idx[0], 1.0), (idx[1], 1.0)], dim))
        return vecs

    Y = tuple(stage_vectors(min(2, depth)))
    X = []
    for k in range(1, depth + 1):
        # Shifted copies only where a later polynomial still annihilates
        # them, so the decay condition can settle by the horizon.
        if offsets[k] + max(stage_sets[k - 1]) >= poly_degrees[-1]:
            break
        for y in stage_vectors(k - 1):
            X.append(_shifted(y, offsets[k], 2.0))
    inst = CriterionInstance(
        op=Scale(2.0, BackwardShift()),
        subspace=subspace,
        dim=dim,
        X=tuple(X),
        Y=Y,
        polys=tuple(ConvexPolynomial.monomial(d) for d in poly_degrees),
        recovery=ShiftRecovery(2.0),
    )
    cond3 = depth < 2  # downward-closed span at depth 1 stays invariant
    return GalleryEntry(
        name="example_5_2",
        dim=dim,
        op=inst.op,
        subspace=subspace,
        instance=inst,
        family=Monomials(poly_degrees[-1]),
        pairs=(),
        expected=ExpectedVerdicts(criterion_II=(True, True, cond3)),
        horizon=len(poly_degrees),
        tol=1e-6,
        notes={"materialized": stage_sets[-1], "poly_degrees": poly_degrees},
    )


# ---------------------------------------------------------------------------
# Parity subspace positive instance
# ---------------------------------------------------------------------------


def entry_example_5_4(lam: complex = 2.0, dim: int = 64) -> GalleryEntry:
    """T = lam * B over the even-zero subspace: the first criterion passes
    in full, the builder succeeds, the orbit is dense at scale and the
    constructed transit pairs are all found.

    The Y sample is scaled to norm 2^-5 so that the recovery norms
    ||y|| / |lam|^(2k) sit below 1e-6 by the default horizon 8 and the
    builder's cross-terms stay below the default density epsilon.
    """
    if abs(complex(lam)) <= 1.0:
        raise LambdaTooSmall(f"need |lambda| > 1, got {abs(complex(lam))}")
    if dim < 32 or dim % 2:
        raise ValueError("parity entry needs an even dimension >= 32")
    dtype = np.complex128 if complex(lam).imag else np.float64
    op = Scale(lam, BackwardShift())
    subspace = ParityZero("even")
    scale = 2.0 ** -5

    def odd_vec(entries):
        return _unit(entries, dim, scale, dtype)

    Y = (
        odd_vec([(1, 1.0)]),
        odd_vec([(3, 1.0)]),
        odd_vec([(1, 1.0), (3, 1.0)]),
        odd_vec([(5, 1.0)]),
        odd_vec([(7, 1.0)]),
        odd_vec([(3, 1.0), (7, 1.0)]),
    )
    support_max = 7
    k_max = (dim - 1 - support_max) // 2
    polys = tuple(ConvexPolynomial.monomial(2 * k) for k in range(1, k_max + 1))
    inst = CriterionInstance(
        op=op,
        subspace=subspace,
        dim=dim,
        X=Y,
        Y=Y,
        polys=polys,
        recovery=ShiftRecovery(lam),
    )
    # Transit pairs: V is centered on a target plus a deep recovery summand
    # of another target, so the matching monomial carries the center
    # exactly onto the U center.
    k_transit = support_max // 2 + 1
    pairs = []
    for a, b in ((0, 1), (1, 0), (2, 3)):
        v_center = Y[b] + _shifted(Y[a], 2 * k_transit, lam)
        pairs.append(BallPair(Y[a], v_center, 1e-2))
    expected = ExpectedVerdicts(
        criterion_I=(True, True, True),
        criterion_II=(True, True, True),
        density=Verdict.DENSE_AT_SCALE,
        pair_found=(True,) * len(pairs),
        builder_succeeds=True,
    )
    return GalleryEntry(
        name="example_5_4",
        dim=dim,
        op=op,
        subspace=subspace,
        instance=inst,
        family=Monomials(2 * k_max),
        pairs=tuple(pairs),
        expected=expected,
        horizon=8,
        tol=1e-6,
        epsilon=1e-2,
        j_max=6,
        notes={"lam": lam, "sample_scale": scale, "support_max": support_max},
    )


REGISTRY: Dict[str, Callable[[], GalleryEntry]] = {
    "direct_sum": entry_direct_sum,
    "lemma_5_1": entry_lemma_5_1,
    "lemma_5_1_constant_widths": lambda: entry_lemma_5_1(constant_widths=True),
    "lemma_5_2": entry_lemma_5_2,
    "lemma_5_2_narrow_gap": lambda: entry_lemma_5_2(gap=2),
    "prop_4_8": entry_prop_4_8,
    "example_5_2": entry_example_5_2,
    "example_5_4": entry_example_5_4,
}


def build_entry(name: str) -> GalleryEntry:
    if name not in REGISTRY:
        raise KeyError(f"unknown gallery entry {name!r}; "
                       f"known: {', '.join(sorted(REGISTRY))}")
    return REGISTRY[name]()


# ---------------------------------------------------------------------------
# Verification against expected verdicts
# ---------------------------------------------------------------------------


def _verify_direct_sum(entry: GalleryEntry, problems: list):
    split = entry.notes["split"]
    candidate = entry.notes["candidate"]
    orbit = images(entry.op, candidate.coords[None], entry.family)[:, 0]
    for i, w in enumerate(orbit):
        if np.any(w[split:] != 0):
            problems.append(f"orbit member {i} leaks into the second block")
    if screen_necessary_conditions(Identity(), split, horizon=8).passed:
        problems.append("identity block unexpectedly passed the screen")
    m = materialize_subspace(entry.subspace, entry.dim)
    targets = [TruncVector.basis(j, entry.dim) for j in range(min(split, 4))]
    embedded = density_score(entry.op, candidate, m, entry.family, targets,
                             epsilon=entry.epsilon)
    m1 = materialize_subspace(IndexSet(tuple(range(split))), split)
    standalone = density_score(
        entry.notes["standalone_op"], TruncVector(candidate.coords[:split]),
        m1, entry.family, [TruncVector.basis(j, split) for j in range(min(split, 4))],
        epsilon=entry.epsilon)
    for i, (a, b) in enumerate(zip(embedded.per_target, standalone.per_target)):
        if not math.isclose(a.best_distance, b.best_distance,
                            rel_tol=1e-12, abs_tol=1e-14):
            problems.append(
                f"density mismatch at target {i}: embedded {a.best_distance!r} "
                f"vs standalone {b.best_distance!r}")


def _verify_example_5_2_extras(entry: GalleryEntry, verdict, problems: list):
    materialized = set(entry.notes["materialized"])
    if not entry.expected.criterion_II[2]:
        landing = None
        for d in verdict.cond3.details:
            if not d.passed:
                landing = d.landing_index
                break
        if landing is None:
            problems.append("no violating image recorded")
        elif landing in materialized:
            problems.append(f"violating index {landing} unexpectedly in the span")
    # The explicit computation: a full-support convex polynomial applied to
    # 2^4 e_4 puts mass on index 2, which the span omits.
    P = ConvexPolynomial((0.2,) * 5)
    image = eval_poly(P, entry.op, 16.0 * TruncVector.basis(4, entry.dim))
    if not abs(image.coords[2]) > 0:
        problems.append("full-support polynomial image lacks mass on index 2")
    if 2 in materialized:
        problems.append("index 2 should be outside the materialized span")


def _verify_example_5_4_extras(entry: GalleryEntry, verdict, problems: list):
    m = materialize_subspace(entry.subspace, entry.dim)
    results = invariance_checks(Monomials(16).members(), entry.op, m)
    for deg in range(0, 17, 2):
        if not results[deg].invariant:
            problems.append(f"even monomial degree {deg} should be invariant")
    for deg in range(1, 16, 2):
        if results[deg].invariant:
            problems.append(f"odd monomial degree {deg} should violate invariance")
    # Criterion I's condition 2 holds ||x_k|| and ||P_k(T) x_k - y|| for
    # k up to the horizon.
    lam = entry.notes["lam"]
    for y, (norms, errors) in zip(entry.instance.Y, verdict.cond2.decay):
        for k in (1, 4, 8):
            if k > entry.horizon:
                break
            if errors[k - 1] > 1e-12:
                problems.append(f"recovery identity off by {errors[k - 1]:.2e} at k={k}")
            if abs(norms[k - 1] - norm(y) / abs(complex(lam)) ** (2 * k)) > 1e-12:
                problems.append(f"recovery norm decay off at k={k}")


def verify_entry(entry: GalleryEntry) -> list:
    """Run the referenced checkers with the entry's parameters and compare
    against the expected verdicts.  Returns a list of mismatch strings."""
    problems: list = []
    exp = entry.expected
    verdict_I = verdict_II = None
    if exp.criterion_I is not None:
        verdict_I = check_criterion_I(entry.instance, entry.horizon, entry.tol)
        got = (verdict_I.cond1.passed, verdict_I.cond2.passed, verdict_I.cond3.passed)
        if got != exp.criterion_I:
            problems.append(f"criterion one: expected {exp.criterion_I}, got {got}")
    if exp.criterion_II is not None:
        verdict_II = check_criterion_II(entry.instance, entry.horizon, entry.tol)
        got = (verdict_II.cond1.passed, verdict_II.cond2.passed,
               verdict_II.cond3.passed)
        if got != exp.criterion_II:
            problems.append(f"criterion two: expected {exp.criterion_II}, got {got}")
    build = None
    if exp.builder_succeeds:
        try:
            build = build_cyclic_vector(entry.instance, entry.j_max, entry.c)
        except ScheduleInfeasible as err:
            problems.append(f"builder unexpectedly infeasible: {err}")
    elif exp.builder_fails_at_step is not None:
        try:
            build_cyclic_vector(entry.instance, entry.j_max, entry.c)
            problems.append("builder unexpectedly succeeded")
        except ScheduleInfeasible as err:
            if err.step != exp.builder_fails_at_step:
                problems.append(f"builder failed at step {err.step}, "
                                f"expected {exp.builder_fails_at_step}")
    if exp.density is not None:
        m = materialize_subspace(entry.subspace, entry.dim)
        candidate = build.x if build is not None else entry.notes.get("candidate")
        if candidate is None:
            problems.append("no density candidate available")
        else:
            report = density_score(entry.op, candidate, m, entry.family,
                                   list(entry.instance.Y), entry.epsilon)
            if report.verdict != exp.density:
                problems.append(f"density: expected {exp.density.value}, "
                                f"got {report.verdict.value}")
    if exp.pair_found is not None:
        m = materialize_subspace(entry.subspace, entry.dim)
        report = transitivity_search(entry.op, m, list(entry.pairs), entry.family,
                                     samples_per_ball=entry.samples_per_ball,
                                     seed=entry.seed)
        got = tuple(r.found for r in report.per_pair)
        if got != exp.pair_found:
            problems.append(f"transitivity: expected {exp.pair_found}, got {got}")
    if entry.name == "direct_sum":
        _verify_direct_sum(entry, problems)
    if entry.name == "example_5_2" and verdict_II is not None:
        _verify_example_5_2_extras(entry, verdict_II, problems)
    if entry.name == "example_5_4" and verdict_I is not None:
        _verify_example_5_4_extras(entry, verdict_I, problems)
    return problems


def verify_all() -> Dict[str, list]:
    """Verify every registry entry; the mapping is empty-valued on success."""
    return {name: verify_entry(build_entry(name)) for name in sorted(REGISTRY)}
