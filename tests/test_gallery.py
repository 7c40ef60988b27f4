"""Named instances reproduce their expected verdicts end to end."""

import dataclasses
import math

import numpy as np
import pytest

from convexcyclic import (BallPair, ConvexPolynomial, Identity, LambdaTooSmall,
                          Monomials, TruncVector, Verdict, check_criterion_II,
                          density_score,
                          eval_poly, images, materialize_subspace, norm,
                          screen_necessary_conditions,
                          transitivity_search, verify_entry)
from convexcyclic import gallery
from convexcyclic.config import dumps_config, entry_to_config
from convexcyclic.gallery import (REGISTRY, build_entry, entry_direct_sum,
                                  entry_example_5_2, entry_example_5_4,
                                  entry_lemma_5_1, entry_lemma_5_2,
                                  entry_prop_4_8)
from oracles import exact_recovery_norm_sq, rounded_sqrt


class TestDirectSum:
    @pytest.mark.parametrize("dim", [2, 8, 16])
    def test_orbit_confined_to_first_block(self, dim):
        entry = entry_direct_sum(dim)
        split = entry.notes["split"]
        candidate = entry.notes["candidate"]
        for w in images(entry.op, candidate.coords[None], entry.family)[:, 0]:
            assert np.all(w[split:] == 0)

    def test_identity_block_fails_screen(self):
        entry = entry_direct_sum(8)
        report = screen_necessary_conditions(Identity(), entry.notes["split"],
                                             horizon=8)
        assert not report.passed

    def test_verify_includes_density_match(self):
        assert verify_entry(entry_direct_sum(16)) == []

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            entry_direct_sum(7)


class TestLemma51:
    def test_default_passes(self):
        assert verify_entry(entry_lemma_5_1()) == []

    def test_single_interval_degenerate(self):
        assert verify_entry(entry_lemma_5_1(k_count=1)) == []

    def test_constant_widths_builder_fails(self):
        assert verify_entry(entry_lemma_5_1(constant_widths=True)) == []

    def test_dimension_guard(self):
        from convexcyclic import DimensionTooSmall
        with pytest.raises(DimensionTooSmall):
            entry_lemma_5_1(k_count=4, dim=128)


class TestLemma52:
    def test_wide_gap_nothing_found(self):
        entry = entry_lemma_5_2(gap=16, max_degree=8)
        m = materialize_subspace(entry.subspace, entry.dim)
        report = transitivity_search(entry.op, m, list(entry.pairs),
                                     entry.family,
                                     samples_per_ball=entry.samples_per_ball,
                                     seed=entry.seed)
        assert not any(r.found for r in report.per_pair)

    def test_narrow_gap_flips_pairs(self):
        entry = entry_lemma_5_2(gap=2, max_degree=8)
        m = materialize_subspace(entry.subspace, entry.dim)
        report = transitivity_search(entry.op, m, list(entry.pairs),
                                     entry.family,
                                     samples_per_ball=entry.samples_per_ball,
                                     seed=entry.seed)
        found = [r.found for r in report.per_pair]
        assert any(found)
        assert found == list(entry.expected.pair_found)

    def test_degree_zero_family_found_iff_balls_overlap(self):
        entry = entry_lemma_5_2()
        m = materialize_subspace(entry.subspace, entry.dim)
        x = entry.pairs[0].u_center
        overlapping = BallPair(x, x, 0.25)
        disjoint = entry.pairs[0]
        report = transitivity_search(entry.op, m, [overlapping, disjoint],
                                     Monomials(0), samples_per_ball=6, seed=1)
        assert report.per_pair[0].found
        assert report.per_pair[0].witness.degree == 0
        assert not report.per_pair[1].found


class TestProp48:
    def test_criterion_passes_and_cross_gap_search_fails(self):
        entry = entry_prop_4_8()
        assert verify_entry(entry) == []

    def test_within_interval_pair_found(self):
        entry = entry_prop_4_8()
        m = materialize_subspace(entry.subspace, entry.dim)
        report = transitivity_search(entry.op, m, [entry.pairs[-1]],
                                     entry.family, samples_per_ball=4,
                                     seed=entry.seed)
        assert report.per_pair[0].found
        assert report.per_pair[0].witness.degree == 2


class TestExample52:
    def test_default_depth_materialization(self):
        entry = entry_example_5_2(depth=3)
        m = materialize_subspace(entry.subspace, entry.dim)
        assert m.indices == (0, 1, 3, 4, 9, 10, 12, 13)

    def test_numeric_illustration_mass_on_two(self):
        entry = entry_example_5_2()
        P = ConvexPolynomial((0.2,) * 5)
        image = eval_poly(P, entry.op, 16.0 * TruncVector.basis(4, entry.dim))
        assert abs(image.coords[2]) > 0
        assert 2 not in set(entry.notes["materialized"])

    def test_depth_one_downward_closed_all_pass(self):
        entry = entry_example_5_2(depth=1)
        assert entry.expected.criterion_II == (True, True, True)
        assert verify_entry(entry) == []

    def test_depth_two_is_smallest_failing_case(self):
        entry = entry_example_5_2(depth=2)
        assert entry.expected.criterion_II == (True, True, False)
        assert verify_entry(entry) == []

    def test_depth_bounds(self):
        with pytest.raises(ValueError):
            entry_example_5_2(depth=0)
        with pytest.raises(ValueError):
            entry_example_5_2(depth=5)


class TestExample54:
    def test_default_verifies(self):
        assert verify_entry(entry_example_5_4()) == []

    def test_recovery_checks_walk_no_orbit(self, monkeypatch):
        # Criterion I's condition 2 already holds ||x_k|| and
        # ||P_k(T) x_k - y|| for every target and k up to the horizon.
        def walk(*args):
            raise AssertionError("eval_poly re-walked a recovery orbit")

        monkeypatch.setattr(gallery, "eval_poly", walk)
        assert verify_entry(build_entry("example_5_4")) == []

    def test_recovery_problems_read_the_decay_table(self, monkeypatch):
        check = gallery.check_criterion_I

        def corrupted(inst, horizon, tol):
            verdict = check(inst, horizon, tol)
            decay = list(verdict.cond2.decay)
            norms, errors = decay[2]
            decay[2] = (norms[:7] + (1.0,), errors[:3] + (1e-9,) + errors[4:])
            return dataclasses.replace(
                verdict, cond2=dataclasses.replace(verdict.cond2, decay=tuple(decay)))

        monkeypatch.setattr(gallery, "check_criterion_I", corrupted)
        assert verify_entry(build_entry("example_5_4")) == [
            "recovery identity off by 1.00e-09 at k=4", "recovery norm decay off at k=8"]

    def test_lambda_boundary_rejected(self):
        with pytest.raises(LambdaTooSmall):
            entry_example_5_4(lam=1.0)

    def test_complex_lambda_supported(self):
        entry = entry_example_5_4(lam=2.0j)
        inst = entry.instance
        for k in (1, 4):
            xk = inst.recovery_vector(0, k)
            err = norm(eval_poly(inst.poly(k), inst.op, xk) - inst.Y[0])
            assert err <= 1e-12
            assert abs(norm(xk) - norm(inst.Y[0]) / 2.0 ** (2 * k)) <= 1e-12

    def test_density_over_built_vector(self):
        entry = entry_example_5_4()
        from convexcyclic import build_cyclic_vector
        result = build_cyclic_vector(entry.instance, entry.j_max, entry.c)
        m = materialize_subspace(entry.subspace, entry.dim)
        report = density_score(entry.op, result.x, m, entry.family,
                               list(entry.instance.Y), entry.epsilon)
        assert report.verdict == Verdict.DENSE_AT_SCALE


class TestRegistry:
    def test_all_names_build(self):
        for name in REGISTRY:
            entry = build_entry(name)
            assert entry.name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_entry("nope")

    def test_entries_deterministic_bit_for_bit(self):
        for name in REGISTRY:
            a = dumps_config(entry_to_config(build_entry(name)))
            b = dumps_config(entry_to_config(build_entry(name)))
            assert a == b


@pytest.mark.parametrize("name,k", [("lemma_5_1", k) for k in range(1, 5)] + [
    ("prop_4_8", 1), ("prop_4_8", 2),
    pytest.param("prop_4_8", 3, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2: ||x_3|| (degree 583, about 3e-176) "
                            "underflows to 0.0 in the norm")),
])
def test_recovery_norms_are_the_exact_dyadic_norms(name, k):
    # x_k = 2^-d S^d y is exact in float64, so its norm is one rounding
    # (at most an ulp more for the summation) off the exact value, and
    # (2B)^d x_k recovers y bit for bit.
    entry = build_entry(name)
    inst = entry.instance
    verdict = check_criterion_II(inst, entry.horizon, entry.tol)
    degree = inst.poly(k).degree
    for t, (y, (norms, errors)) in enumerate(zip(inst.Y, verdict.cond2.decay)):
        want = rounded_sqrt(exact_recovery_norm_sq(y, degree))
        assert abs(norms[k - 1] - want) <= math.ulp(want), (t, norms[k - 1], want)
        assert errors[k - 1] == 0.0, t
