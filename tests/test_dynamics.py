"""Orbits, density scoring, invariance checks and transitivity search."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcyclic import (BackwardShift, BallPair, BasisIndexSet,
                          ConvexPolynomial, CriterionInstance, Dense,
                          DimensionMismatch, DimensionTooSmall, DirectSum,
                          Identity,
                          IndexSet, Monomials, NumericalOverflow,
                          ParityZero, Scale,
                          TargetOutsideSubspace, TruncVector, Verdict,
                          build_cyclic_vector, default_density_targets,
                          density_score,
                          distance_to_subspace, eval_poly, images,
                          invariance_check, materialize_subspace,
                          membership_tolerance, norm, operators, sample_ball,
                          transitivity_search)
from convexcyclic import dynamics
from convexcyclic.dynamics import BallCenterOutsideSubspace, invariance_checks
from convexcyclic.gallery import build_entry, entry_example_5_4
from convexcyclic.spaces import MEMBERSHIP_RTOL
from oracles import dense_eval, random_convex_poly, row_distance, serial_transitivity

TWO_B = Scale(2.0, BackwardShift())


class TestOrbit:
    def test_identity_family_returns_input(self):
        x = TruncVector(np.array([0.5, 0.25, 0.0]))
        orbit = images(TWO_B, x.coords[None], Monomials(0))[:, 0]
        assert len(orbit) == 1
        assert np.array_equal(orbit[0], x.coords)

    def test_monomials_on_basis(self):
        orbit = images(TWO_B, TruncVector.basis(3, 8).coords[None], Monomials(3))[:, 0]
        expected = [(3, 1.0), (2, 2.0), (1, 4.0), (0, 8.0)]
        for w, (idx, val) in zip(orbit, expected):
            target = np.zeros(8)
            target[idx] = val
            assert np.array_equal(w, target)
            oracle = dense_eval(ConvexPolynomial.monomial(expected.index((idx, val))),
                                TWO_B, TruncVector.basis(3, 8))
            assert np.allclose(w, oracle, rtol=1e-12, atol=0)

    def test_direct_sum_confinement(self):
        op = DirectSum(TWO_B, Identity(), split=4)
        x = TruncVector(np.array([0.1, 0.7, 0.2, 0.4, 0, 0, 0, 0.0]))
        rng = np.random.default_rng(3)
        family = [random_convex_poly(rng, 3) for _ in range(20)]
        for w in images(op, x.coords[None], family)[:, 0]:
            assert np.all(w[4:] == 0)


class TestDensity:
    def test_identity_member_target_hits_exactly(self):
        m = materialize_subspace(ParityZero("even"), 8)
        x = TruncVector.basis(1, 8)
        report = density_score(TWO_B, x, m, Monomials(2), [x], epsilon=1e-6)
        assert report.verdict == Verdict.DENSE_AT_SCALE
        assert report.per_target[0].best_distance == 0.0
        assert report.per_target[0].witness.degree == 0

    def test_identity_operator_cannot_cover(self):
        m = materialize_subspace(IndexSet((1, 3)), 6)
        x = TruncVector.basis(1, 6)
        target = TruncVector.basis(3, 6)
        report = density_score(Identity(), x, m, Monomials(4), [target],
                               epsilon=0.5)
        assert math.isclose(report.per_target[0].best_distance, math.sqrt(2),
                            rel_tol=1e-12)
        assert report.verdict == Verdict.NOT_COVERED_AT_SCALE

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
    def test_epsilon_must_be_positive(self, epsilon):
        # The orbit hits x exactly, which a NaN epsilon would report as
        # not covered.
        m = materialize_subspace(ParityZero("even"), 8)
        x = TruncVector.basis(1, 8)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            density_score(TWO_B, x, m, Monomials(2), [x], epsilon=epsilon)

    def test_target_outside_subspace_rejected(self):
        m = materialize_subspace(ParityZero("even"), 8)
        with pytest.raises(TargetOutsideSubspace):
            density_score(TWO_B, TruncVector.basis(1, 8), m, Monomials(2),
                          [TruncVector.basis(2, 8)], epsilon=0.5)

    def test_points_outside_subspace_excluded(self):
        # The odd-degree orbit points flip parity and may not serve as
        # witnesses unless explicitly included.
        m = materialize_subspace(ParityZero("even"), 8)
        x = TruncVector.basis(3, 8)
        target = 2.0 * TruncVector.basis(2, 8) + TruncVector.basis(1, 8)
        with pytest.raises(TargetOutsideSubspace):
            density_score(TWO_B, x, m, Monomials(3), [target], epsilon=1e-3)
        inside = density_score(TWO_B, x, m, Monomials(3),
                               [4.0 * TruncVector.basis(1, 8)], epsilon=1e-9)
        assert inside.per_target[0].best_distance == 0.0
        assert inside.per_target[0].witness.degree == 2
        assert inside.admissible_orbit_size < inside.orbit_size

    def test_huge_finite_orbit_points_are_not_admissible(self):
        # (2B)^d e_2047 = 2^d e_(2047-d) lies in the span exactly for even d.
        # From d = 513 on, 2^d overflows the plain sum of squares; an inf
        # norm must not make the odd degrees 513..599 look admissible.
        m = materialize_subspace(ParityZero("even"), 2048)
        with np.errstate(over="ignore"):
            report = density_score(TWO_B, TruncVector.basis(2047, 2048), m,
                                   Monomials(600), [TruncVector.basis(1, 2048)],
                                   epsilon=1e-2)
        assert report.orbit_size == 601
        assert report.admissible_orbit_size == 301

    def test_built_vector_covers_small_sample(self):
        # Builder-made candidate over the even-zero subspace: both targets
        # approximated within 1e-3 using even monomials of order <= 8.
        entry = entry_example_5_4()
        inst = entry.instance
        reduced = type(inst)(op=inst.op, subspace=inst.subspace, dim=inst.dim,
                             X=inst.X[:2], Y=inst.Y[:2], polys=inst.polys,
                             recovery=inst.recovery)
        result = build_cyclic_vector(reduced, j_max=2, c=0.01)
        m = materialize_subspace(inst.subspace, inst.dim)
        report = density_score(inst.op, result.x, m, Monomials(16),
                               list(reduced.Y), epsilon=1e-3)
        assert report.verdict == Verdict.DENSE_AT_SCALE
        assert all(s.witness.degree <= 16 for s in report.per_target)

    def test_witness_replay(self):
        m = materialize_subspace(ParityZero("even"), 12)
        x = TruncVector.basis(5, 12) + 0.5 * TruncVector.basis(7, 12)
        targets = [TruncVector.basis(1, 12), TruncVector.basis(3, 12)]
        report = density_score(TWO_B, x, m, Monomials(8), targets, epsilon=10.0)
        for target, score in zip(targets, report.per_target):
            replay = norm(eval_poly(score.witness, TWO_B, x) - target)
            assert abs(replay - score.best_distance) <= 1e-10


class TestDefaultDensityTargets:
    M = BasisIndexSet((7, 1, 5, 3), 10)

    @pytest.mark.parametrize("count", [0, 1, 3, 4])
    def test_basis_vectors_in_index_order(self, count):
        targets = default_density_targets(self.M, count=count, p=1.5)
        assert len(targets) == count
        for j, t in zip((1, 3, 5, 7), targets):
            assert t.p == 1.5
            assert t.coords.dtype == np.float64
            assert np.array_equal(t.coords, TruncVector.basis(j, 10).coords)

    def test_ball_samples_top_up_inside_the_span(self):
        targets = default_density_targets(self.M, count=9, seed=11, radius=0.5, p=3.0)
        assert len(targets) == 9
        for j, t in zip((1, 3, 5, 7), targets):
            assert np.array_equal(t.coords, TruncVector.basis(j, 10).coords)
        extra = targets[4:]
        off_span = np.ones(10, dtype=bool)
        off_span[list(self.M.indices)] = False
        for t in extra:
            assert t.p == 3.0
            assert not t.coords[off_span].any()
            assert norm(t) <= 0.5 * (1 + 1e-12)
        assert len({t.coords.tobytes() for t in extra}) == len(extra)
        again = default_density_targets(self.M, count=9, seed=11, radius=0.5, p=3.0)
        assert [t.coords.tobytes() for t in again] == [t.coords.tobytes() for t in targets]
        other = default_density_targets(self.M, count=9, seed=12, radius=0.5, p=3.0)
        assert [t.coords.tobytes() for t in other[4:]] != [t.coords.tobytes() for t in extra]

    def test_complex_field_sets_the_dtype(self):
        targets = default_density_targets(self.M, count=6, complex_field=True)
        assert [t.coords.dtype for t in targets] == [np.complex128] * 6
        # The same draw; the complex norm may round differently.
        real = default_density_targets(self.M, count=6)
        for c, r in zip(targets, real):
            assert not c.coords.imag.any()
            assert np.allclose(c.coords.real, r.coords, rtol=1e-12, atol=0)


class TestInvariance:
    def test_even_monomial_preserves_parity(self):
        m = materialize_subspace(ParityZero("even"), 16)
        res = invariance_check(ConvexPolynomial.monomial(2), TWO_B, m)
        assert res.invariant
        assert res.max_residual == 0.0

    def test_odd_monomial_flips_parity(self):
        m = materialize_subspace(ParityZero("even"), 16)
        res = invariance_check(ConvexPolynomial.monomial(1), TWO_B, m)
        assert not res.invariant
        assert res.violating_basis_index == 1  # image lands on even index 0

    def test_recursive_span_violation_lands_on_two(self):
        from convexcyclic import RecursiveSpan
        m = materialize_subspace(RecursiveSpan((0, 1, 3, 9), depth=2), 8)
        assert m.indices == (0, 1, 3, 4)
        res = invariance_check(ConvexPolynomial.monomial(2), TWO_B, m)
        assert not res.invariant
        assert res.violating_basis_index == 4
        assert res.landing_index == 2
        image = eval_poly(ConvexPolynomial.monomial(2), TWO_B,
                          TruncVector.basis(4, 8))
        assert image.coords[2] != 0.0

    def test_composition_of_invariant_polys(self):
        m = materialize_subspace(ParityZero("even"), 24)
        P = ConvexPolynomial((0.5, 0.0, 0.5))
        Q = ConvexPolynomial((0.25, 0.0, 0.5, 0.0, 0.25))
        PQ = ConvexPolynomial((0.125, 0.0, 0.375, 0.0, 0.375, 0.0, 0.125))
        assert invariance_check(P, TWO_B, m).invariant
        assert invariance_check(Q, TWO_B, m).invariant
        assert invariance_check(PQ, TWO_B, m).invariant

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_one_walk_of_many_polys_matches_one_walk_each(self, rows):
        m = materialize_subspace(ParityZero("even"), 16)
        polys = [ConvexPolynomial.monomial(d) for d in range(7)]
        polys.append(ConvexPolynomial((0.5, 0.0, 0.25, 0.25)))
        want = tuple(invariance_check(P, TWO_B, m) for P in polys)
        block = operators.BLOCK_BYTES if rows is None else rows * m.dim * 16
        with mock.patch.object(operators, "BLOCK_BYTES", block):
            got = invariance_checks(polys, TWO_B, m)
        assert got == want
        assert [r.invariant for r in got] == [True, False] * 3 + [True, False]
        assert got[1].violating_basis_index == 1 and got[1].landing_index == 0
        # No polys: no results, and the span's rows are not walked.
        with mock.patch.object(dynamics, "image_stream") as stream:
            assert invariance_checks((), TWO_B, m) == ()
        stream.assert_not_called()


class TestTransitivity:
    def test_same_ball_found_by_identity(self):
        m = materialize_subspace(ParityZero("even"), 8)
        x = TruncVector.basis(3, 8)
        pair = BallPair(x, x, 0.25)
        report = transitivity_search(TWO_B, m, [pair], Monomials(2),
                                     samples_per_ball=4, seed=3)
        assert report.per_pair[0].found
        assert report.per_pair[0].witness.degree == 0
        assert report.per_pair[0].invariance_residual >= 0.0

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_radius_must_be_positive(self, radius):
        # Under the identity, e_0 never comes near 5 e_1; a NaN radius
        # would read that pair as found.
        with pytest.raises(ValueError, match="ball radius must be positive"):
            BallPair(TruncVector.basis(0, 4), 5.0 * TruncVector.basis(1, 4), radius)

    def test_hit_needs_a_sample_beyond_the_center(self):
        # P(T)0 = 0 is 1 away from e_1, outside U; only a V-ball sample other
        # than the center can land within 0.9 of e_1.
        m = materialize_subspace(ParityZero("even"), 8)
        pair = BallPair(TruncVector.basis(1, 8), TruncVector.zeros(8), 0.9)
        center_only = transitivity_search(TWO_B, m, [pair], Monomials(3),
                                          samples_per_ball=1)
        assert not center_only.per_pair[0].found
        sampled = transitivity_search(TWO_B, m, [pair], Monomials(3),
                                      samples_per_ball=8)
        assert sampled.per_pair[0].found

    def test_center_outside_subspace_rejected(self):
        m = materialize_subspace(ParityZero("even"), 8)
        bad = TruncVector.basis(2, 8)
        with pytest.raises(BallCenterOutsideSubspace):
            transitivity_search(TWO_B, m, [BallPair(bad, bad, 0.1)],
                                Monomials(1))

    def test_brute_force_parity_dim_four(self):
        rng = np.random.default_rng(21)
        mat = 0.8 * rng.standard_normal((4, 4))
        op = Dense(mat)
        m = materialize_subspace(IndexSet((0, 1, 2)), 4)
        pairs = []
        for _ in range(4):
            u = np.zeros(4)
            v = np.zeros(4)
            u[:3] = rng.standard_normal(3)
            v[:3] = rng.standard_normal(3)
            pairs.append(BallPair(TruncVector(u), TruncVector(v),
                                  float(rng.uniform(0.5, 2.0))))
        family = [random_convex_poly(rng, 2) for _ in range(10)]
        report = transitivity_search(op, m, pairs, family,
                                     samples_per_ball=5, seed=13)

        # Brute-force oracle over the same family and samples, evaluated
        # through dense matrices instead of iterated application.
        from convexcyclic.spaces import membership_tolerance
        for pair, got in zip(pairs, report.per_pair):
            found = False
            idx = pairs.index(pair)
            samples = sample_ball(pair.v_center, m, pair.radius, 5,
                                  13 + 1000003 * idx)
            for P in family:
                for v in samples:
                    w = dense_eval(P, op, v)
                    off = np.where(m.mask(), 0.0, w)
                    wvec = TruncVector(w)
                    if np.linalg.norm(off) > membership_tolerance(wvec):
                        continue
                    if np.linalg.norm(w - pair.u_center.coords) <= pair.radius:
                        found = True
                        break
                if found:
                    break
            assert found == got.found

    def test_transitivity_positive_implies_density_on_parity_entry(self):
        # Witnesses for every constructed transit pair, plus the criterion
        # builder's candidate covering the same sample at matching epsilon.
        entry = entry_example_5_4()
        m = materialize_subspace(entry.subspace, entry.dim)
        report = transitivity_search(entry.op, m, list(entry.pairs),
                                     entry.family,
                                     samples_per_ball=entry.samples_per_ball,
                                     seed=entry.seed)
        assert report.all_found()
        result = build_cyclic_vector(entry.instance, entry.j_max, entry.c)
        density = density_score(entry.op, result.x, m, entry.family,
                                list(entry.instance.Y), entry.epsilon)
        assert density.verdict == Verdict.DENSE_AT_SCALE

    def test_each_witness_residual_is_computed_once_per_search(self):
        # example_5_4's three pairs all hit at member 8: one invariance
        # check of T^8 serves all three, with the serial loop's report.
        entry = entry_example_5_4()
        m = materialize_subspace(entry.subspace, entry.dim)
        args = (entry.op, m, list(entry.pairs), entry.family,
                entry.samples_per_ball, entry.seed)
        checked = []
        checks = dynamics.invariance_checks

        def counting(polys, *rest, **kwargs):
            checked.extend(P.degree for P in polys)
            return checks(polys, *rest, **kwargs)

        with mock.patch.object(dynamics, "invariance_checks", counting):
            report = transitivity_search(*args)
        assert [r.witness_index for r in report.per_pair] == [8, 8, 8]
        assert checked == [8]
        assert repr(report) == repr(serial_transitivity(*args))


BLOCK_ROWS = pytest.mark.parametrize("rows", [1, 3, None])


def _rows_per_block(rows, dim):
    """``BLOCK_BYTES`` patched to engine blocks of ``rows`` rows, or left
    at the default for None."""
    block = operators.BLOCK_BYTES if rows is None else rows * dim * 16
    return mock.patch.object(operators, "BLOCK_BYTES", block)


class TestPairWalks:
    """Consecutive pairs walk together; every result and error is that of
    the pair-by-pair scan of ``serial_transitivity``."""

    # T = 1e10 I on R^2: a center 1e300 e_0 overflows at degree 1, and
    # T^31 carries 1e-300 e_0 onto 1e10 e_0 but overflows on the basis.
    op = Scale(1e10, Identity())
    m = materialize_subspace(IndexSet((0, 1)), 2)
    search_fault = BallPair(TruncVector([0.0, 1.0]), TruncVector([1e300, 0.0]), 0.5)
    witness_fault = BallPair(TruncVector([1e10, 0.0]), TruncVector([1e-300, 0.0]), 1.0)
    # Member 0 leaves the center inside, 3e308 from the U-center.
    overflowing = BallPair(TruncVector([1.5e308, 0.0]), TruncVector([-1.5e308, 0.0]), 1.0)

    def search(self, pairs, rows):
        args = (self.op, self.m, pairs, Monomials(31), 1, 0)
        with _rows_per_block(rows, 2):
            with pytest.raises(NumericalOverflow) as got:
                transitivity_search(*args)
        with pytest.raises(NumericalOverflow) as want:
            serial_transitivity(*args)
        assert str(got.value) == str(want.value)
        return str(got.value)

    @BLOCK_ROWS
    def test_an_earlier_search_fault_beats_a_later_witness_error(self, rows):
        assert self.search([self.search_fault, self.witness_fault], rows).endswith(
            "the orbit overflowed at degree 1")
        assert self.search([self.witness_fault, self.search_fault], rows).endswith(
            "the orbit overflowed at degree 31")

    @BLOCK_ROWS
    def test_a_distance_overflow_beats_a_later_fault(self, rows):
        assert self.search([self.overflowing, self.search_fault], rows).endswith(
            "the distance ||w - y|| overflowed")
        assert self.search([self.search_fault, self.overflowing], rows).endswith(
            "the orbit overflowed at degree 1")

    @BLOCK_ROWS
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -1000, 2.0 ** 1000])
    def test_the_norm_screen_keeps_an_image_whose_norm_gap_is_the_radius(self, rows, p,
                                                                         scale):
        # ||v|| - ||u|| = ||v - u|| = radius exactly: member 0 hits.
        pair = BallPair(TruncVector([scale, 0.0], p=p), TruncVector([3 * scale, 0.0], p=p),
                        2 * scale)
        with _rows_per_block(rows, 2):
            report = transitivity_search(Identity(), self.m, [pair], Monomials(0), 1, 0)
        assert [r.witness_index for r in report.per_pair] == [0]

    @BLOCK_ROWS
    def test_the_norm_screen_keeps_a_hit_whose_norm_gap_rounds_past_the_radius(self, rows):
        # w = 1.1 u: the measured distance is the radius, and the measured
        # norm gap exceeds it by an ulp; the screen's margins keep w.
        u, w = TruncVector([3.0, 3.0]), TruncVector([3.0 * 1.1, 3.0 * 1.1])
        radius = row_distance(w.coords, 2.0, u)
        assert norm(w) - norm(u) > radius
        with _rows_per_block(rows, 2):
            report = transitivity_search(Identity(), self.m, [BallPair(u, w, radius)],
                                         Monomials(0), 1, 0)
        assert [r.witness_index for r in report.per_pair] == [0]

    @staticmethod
    def walks(entry):
        """The rows of each engine walk of the search, and the witness
        degrees of each ``invariance_checks`` call."""
        m = materialize_subspace(entry.subspace, entry.dim)
        walks, checks = [], []
        stream, check = dynamics.image_stream, dynamics.invariance_checks

        def recording_stream(op, X, polys):
            walks.append(len(X))
            return stream(op, X, polys)

        def recording_checks(polys, *args, **kwargs):
            checks.append([P.degree for P in polys])
            with mock.patch.object(dynamics, "image_stream", stream):
                return check(polys, *args, **kwargs)

        with mock.patch.object(dynamics, "image_stream", recording_stream), \
                mock.patch.object(dynamics, "invariance_checks", recording_checks):
            transitivity_search(entry.op, m, list(entry.pairs), entry.family,
                                entry.samples_per_ball, entry.seed)
        return walks, checks

    @BLOCK_ROWS
    def test_pairs_that_fit_one_engine_block_walk_together(self, rows):
        entry = build_entry("lemma_5_2")
        assert (len(entry.pairs), entry.samples_per_ball) == (9, 8)
        with _rows_per_block(rows, entry.dim):
            walks, checks = self.walks(entry)
        # 72 rows through 9 members fit a default block of 1,024 rows.
        assert walks == ([72] if rows is None else [8] * 9)
        assert checks == [[]]  # no witness to check

    @BLOCK_ROWS
    def test_distinct_witnesses_share_one_invariance_walk(self, rows):
        entry = build_entry("lemma_5_2_narrow_gap")
        with _rows_per_block(rows, entry.dim):
            walks, checks = self.walks(entry)
        assert len(checks) == 1
        assert len(checks[0]) == len(set(checks[0])) == 7

    @BLOCK_ROWS
    def test_a_pair_too_large_to_share_a_block_walks_alone(self, rows):
        # At dim 1024 a block holds 128 rows: 14 per member of Monomials(8),
        # fewer than two pairs of 8 samples.
        entry = build_entry("prop_4_8")
        with _rows_per_block(rows, entry.dim):
            walks, checks = self.walks(entry)
        assert walks == [8] * len(entry.pairs)
        assert checks == [[2]]


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@given(st.integers(0, 6), st.integers(1, 4), st.integers(0, 2 ** 30))
@settings(max_examples=100, deadline=None)
def test_density_monotone_in_family(base_degree, extra, seed):
    rng = np.random.default_rng(seed)
    dim = 10
    m = materialize_subspace(IndexSet(tuple(range(6))), dim)
    coords = np.zeros(dim)
    coords[:6] = rng.standard_normal(6)
    x = TruncVector(coords)
    tcoords = np.zeros(dim)
    tcoords[:6] = rng.standard_normal(6)
    targets = [TruncVector(tcoords)]
    small = density_score(TWO_B, x, m, Monomials(base_degree), targets,
                          epsilon=1.0)
    large = density_score(TWO_B, x, m, Monomials(base_degree + extra), targets,
                          epsilon=1.0)
    for a, b in zip(small.per_target, large.per_target):
        assert b.best_distance <= a.best_distance + 1e-15


def _at_block_bounds(run, dim):
    """``run()`` with engine blocks of 1 row, 3 rows and the default bound."""
    results = []
    for rows in (1, 3, None):
        block = operators.BLOCK_BYTES if rows is None else rows * dim * 16
        with mock.patch.object(operators, "BLOCK_BYTES", block):
            results.append(run())
    return results


def _complex_scaled_shift(rng):
    return Scale(complex(*rng.standard_normal(2)), BackwardShift())


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_density_score_does_not_depend_on_the_engine_block(seed, dim):
    # A complex operator on a real candidate: the degree-0 image stays
    # real alone and is stored complex in a block with higher degrees.
    rng = np.random.default_rng(seed)
    op = _complex_scaled_shift(rng)
    m = materialize_subspace(IndexSet(tuple(range(dim))), dim)
    x = TruncVector(rng.standard_normal(dim))
    targets = [TruncVector(rng.standard_normal(dim)) for _ in range(3)]

    def run():
        report = density_score(op, x, m, Monomials(4), targets, epsilon=1.0)
        return [(s.best_distance.hex(), s.witness_index) for s in report.per_target]

    one, three, default = _at_block_bounds(run, dim)
    assert one == three == default


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8))
@settings(max_examples=50, deadline=None)
def test_transitivity_search_does_not_depend_on_the_engine_block(seed, dim):
    # Coverage: real ball samples under a complex operator, as above.
    rng = np.random.default_rng(seed)
    op = _complex_scaled_shift(rng)
    m = materialize_subspace(IndexSet(tuple(range(dim))), dim)
    pairs = [BallPair(TruncVector(rng.standard_normal(dim)),
                      TruncVector(rng.standard_normal(dim)),
                      float(rng.uniform(0.5, 3.0))) for _ in range(3)]

    def run():
        report = transitivity_search(op, m, pairs, Monomials(4),
                                     samples_per_ball=4, seed=seed)
        return [(r.found, r.witness_index, r.invariance_residual.hex())
                for r in report.per_pair]

    one, three, default = _at_block_bounds(run, dim)
    assert one == three == default


@given(st.integers(1, 64), st.data(), st.integers(1, 16),
       st.floats(0.1, 1e3), st.sampled_from([1.0, 2.0, 3.0]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_sample_ball_properties(dim, data, count, radius, p, seed, p_idx):
    indices = data.draw(st.sets(st.integers(0, dim - 1), min_size=1), label="span")
    m = BasisIndexSet(tuple(indices), dim)
    coords = np.zeros(dim)
    coords[list(m.indices)] = data.draw(
        st.lists(st.floats(-1, 1), min_size=len(m), max_size=len(m)), label="center")
    center = TruncVector(coords, p=p)
    # Pair seeds as transitivity_search derives them, beyond 2**32 included.
    pair_seed = seed + 1000003 * p_idx
    samples = sample_ball(center, m, radius, count, pair_seed)
    assert len(samples) == count
    assert samples[0] is center
    for v in samples:
        assert distance_to_subspace(v, m) == 0.0
        assert norm(v - center) <= radius * (1 + 1e-12)
    again = sample_ball(center, m, radius, count, pair_seed)
    assert all(np.array_equal(a.coords, b.coords) for a, b in zip(samples, again))


def _one_sample_at_a_time(center, m, radius, count, seed):
    """``sample_ball`` built sample by sample from ``TruncVector``
    arithmetic, with the draws of one generator."""
    samples = [center]
    idx = list(m.indices)
    for row in 2.0 * np.random.default_rng(seed).random((count - 1, len(m))) - 1.0:
        coords = np.zeros(center.dim)
        coords[idx] = row
        offset = TruncVector(coords.astype(center.coords.dtype), p=center.p)
        scale = norm(offset)
        if scale > 1.0:
            offset = offset * (1.0 / scale)
        samples.append(center + radius * offset)
    return samples


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("complex_field", [False, True])
def test_ball_samples_have_the_bits_of_one_sample_at_a_time(p, complex_field):
    rng = np.random.default_rng(17)
    m = BasisIndexSet((2, 5, 11), 16)
    coords = np.zeros(16, complex if complex_field else float)
    coords[list(m.indices)] = rng.standard_normal(3)
    if complex_field:
        coords[list(m.indices)] += 1j * rng.standard_normal(3)
        coords[5] = complex(coords[5].real, -0.0)
    center = TruncVector(coords, p=p)
    cube = 2.0 * np.random.default_rng(9).random((63, 3)) - 1.0
    scales = np.array([np.linalg.norm(row, ord=p) for row in cube])
    assert (scales > 1.0).any() and (scales <= 1.0).any()  # clamped and inside
    got = sample_ball(center, m, 0.37, 64, 9)
    want = _one_sample_at_a_time(center, m, 0.37, 64, 9)
    assert got[0] is center
    assert [(v.coords.dtype, v.p, v.coords.tobytes()) for v in got] == \
        [(v.coords.dtype, v.p, v.coords.tobytes()) for v in want]


def test_density_builds_only_the_witnesses():
    # Monomials(400) is read from its term table: of its 401 members only
    # the witnesses, at most one per target, become polynomials.
    dim = 2048
    rng = np.random.default_rng(0)
    odd = np.arange(1, dim, 2)
    coords = np.zeros(dim)
    coords[odd] = rng.uniform(0.5, 1.5, odd.size) * 2.0 ** (-odd / 4.0)
    targets = []
    for _ in range(16):
        y = np.zeros(dim)
        y[rng.choice(odd[:32], size=4, replace=False)] = rng.standard_normal(4)
        targets.append(TruncVector(y / np.linalg.norm(y)))
    m = materialize_subspace(ParityZero("even"), dim)
    with mock.patch.object(ConvexPolynomial, "__post_init__", autospec=True,
                           side_effect=ConvexPolynomial.__post_init__) as built:
        report = density_score(TWO_B, TruncVector(coords), m, Monomials(400), targets, 1e-2)
    assert report.orbit_size == 401
    assert all(s.witness == ConvexPolynomial.monomial(s.witness_index)
               for s in report.per_target)
    assert built.call_count <= 16


class TestValidationOrder:
    """Each vector list is validated as one block, with the first error of
    a loop over its vectors."""

    m = materialize_subspace(ParityZero("even"), 8)
    inside = TruncVector.basis(1, 8)
    outside = TruncVector.basis(2, 8)
    short = TruncVector.basis(1, 6)

    def density(self, targets):
        return density_score(TWO_B, self.inside, self.m, Monomials(2), targets, 0.5)

    def test_density_names_the_first_target_outside(self):
        with pytest.raises(TargetOutsideSubspace, match="target 1 "):
            self.density([self.inside, self.outside, self.short])

    def test_density_raises_for_a_wrong_dim_target_ahead_of_one_outside(self):
        with pytest.raises(DimensionMismatch):
            self.density([self.inside, self.short, self.outside])

    def test_transitivity_names_the_pair_and_checks_u_before_v(self):
        good = BallPair(self.inside, self.inside, 0.1)
        with pytest.raises(BallCenterOutsideSubspace, match="pair 2: V center"):
            transitivity_search(TWO_B, self.m,
                                [good, good, BallPair(self.inside, self.outside, 0.1)],
                                Monomials(1))
        with pytest.raises(BallCenterOutsideSubspace, match="pair 1: U center"):
            transitivity_search(TWO_B, self.m, [good, BallPair(self.outside, self.outside, 0.1)],
                                Monomials(1))

    def test_criterion_instance_checks_x_in_order_then_y(self):
        def instance(X, Y):
            return CriterionInstance(op=TWO_B, subspace=ParityZero("even"), dim=8,
                                     X=X, Y=Y, polys=(ConvexPolynomial.monomial(2),))
        ok = self.inside
        with pytest.raises(ValueError, match=r"X\[1\] lies outside"):
            instance((ok, self.outside, ok, self.short), (self.outside,))
        with pytest.raises(DimensionTooSmall, match=r"X\[3\]"):
            instance((ok, ok, ok, self.short, self.outside), (self.outside,))
        with pytest.raises(ValueError, match=r"X\[2\] has exponent"):
            instance((ok, ok, TruncVector.basis(1, 8, p=1.0), self.outside), ())
        with pytest.raises(ValueError, match=r"Y\[0\] lies outside"):
            instance((ok, ok), (self.outside, self.short))

    def test_each_vector_is_measured_at_its_own_exponent(self):
        # Four off-span entries of 4e-10: 1.6e-9 in l^1, past the 1e-9
        # tolerance, and 8e-10 in l^2, inside it.
        coords = TruncVector.basis(1, 8).coords + 4e-10 * (np.arange(8) % 2 == 0)
        vectors = [TruncVector(coords, p=2.0), TruncVector(coords, p=1.0)]
        assert dynamics.first_outside(vectors, self.m.mask()) == 1
        assert dynamics.first_outside(vectors[::-1], self.m.mask()) == 0
        assert dynamics.first_outside(vectors[:1], self.m.mask()) is None

    def test_density_builds_the_mask_once(self):
        targets = default_density_targets(self.m, count=16)
        with mock.patch.object(BasisIndexSet, "mask", autospec=True,
                               side_effect=BasisIndexSet.mask) as mask:
            self.density(targets)
        assert mask.call_count == 1


def test_a_norm_that_can_overflow_a_difference_is_always_measured():
    # Row norms 2^1022 and just below, 2^1021 from a target of norm 1 whose
    # best distance is 1: the norm gap rules out only the smaller row.
    norms = np.array([2.0 ** 1022, np.nextafter(2.0 ** 1022, 0.0)])
    near = dynamics._may_be_nearest(norms, np.array([1.0]), np.array([1.0]), 2.0, 4)
    assert near.tolist() == [[True, False]]
    near = dynamics._may_be_nearest(np.array([1.0]), np.array([2.0 ** 1022]),
                                    np.array([1.0]), 2.0, 4)
    assert near.tolist() == [[True]]


def _first_outside_by_loop(vectors, m, rtol):
    for i, v in enumerate(vectors):
        if distance_to_subspace(v, m) > membership_tolerance(v, rtol):
            return i
    return None


@given(st.data(), st.integers(2, 9), st.sampled_from([None, 1, 3]))
@settings(max_examples=150, deadline=None)
def test_first_outside_matches_the_per_vector_loop(data, dim, rows):
    m = BasisIndexSet(tuple(data.draw(st.sets(st.integers(0, dim - 1), min_size=1),
                                      label="span")), dim)
    entry = st.sampled_from([0.0, -0.0, 1.0, 1e-12, 4e-10, 1e-8, 3.5, 1e200, 1.7e308])
    vectors = []
    for _ in range(data.draw(st.integers(0, 6), label="count")):
        n = data.draw(st.sampled_from([dim, dim, dim, dim + 1]), label="dim")
        coords = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
        if data.draw(st.booleans(), label="complex"):
            coords = coords * (1 - 1j)
        vectors.append(TruncVector(coords, p=data.draw(st.sampled_from([1.0, 2.0]), label="p")))
    try:
        want = _first_outside_by_loop(vectors, m, MEMBERSHIP_RTOL)
    except DimensionMismatch:
        want = DimensionMismatch
    block = operators.BLOCK_BYTES if rows is None else rows * dim * 16
    with mock.patch.object(operators, "BLOCK_BYTES", block):
        try:
            got = dynamics.first_outside(vectors, m.mask(), MEMBERSHIP_RTOL)
        except DimensionMismatch:
            got = DimensionMismatch
    assert got == want
