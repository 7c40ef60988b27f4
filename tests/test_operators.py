"""Operator action, polynomial evaluation, norms, screens and families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcyclic import (BackwardShift, CesaroMeans, ConvexPolynomial,
                          Dense, DimensionMismatch, DirectSum, ForwardShift,
                          Identity, Monomials, NumericalOverflow,
                          RandomSimplex, Scale, SimplexGrid, TruncVector,
                          TruncationOverflow, apply,
                          compose_polys, eval_poly, operator_norm_estimate,
                          screen_necessary_conditions, to_dense)
from oracles import dense_eval, random_triple

TWO_B = Scale(2.0, BackwardShift())
HALF_S = Scale(0.5, ForwardShift())


class TestApply:
    def test_backward_annihilates_bottom(self):
        out = apply(BackwardShift(), TruncVector.basis(0, 6))
        assert np.all(out.coords == 0)

    def test_weighted_forward_shift_cubed(self):
        # Stage-1 vector written in generator coefficients (a1, a2): the
        # e_1 component already carries the 1/2 from the first shift, so
        # three more applications produce a1/2^3 e_3 + a2/2^4 e_4.
        a1, a2 = 1.0, 2.0
        x = TruncVector(np.array([a1, a2 / 2.0] + [0.0] * 6))
        y = x
        for _ in range(3):
            y = apply(HALF_S, y)
        expected = np.zeros(8)
        expected[3] = a1 / 2 ** 3
        expected[4] = a2 / 2 ** 4
        assert np.allclose(y.coords, expected, rtol=0, atol=0)

    def test_forward_shift_is_plain_half_per_step(self):
        out = apply(HALF_S, TruncVector.basis(1, 4))
        assert np.array_equal(out.coords, np.array([0.0, 0.0, 0.5, 0.0]))

    def test_direct_sum_keeps_second_block_zero(self):
        op = DirectSum(TWO_B, Identity(), split=4)
        x = TruncVector(np.array([0.3, 0.1, 0.7, 0.2, 0, 0, 0, 0.0]))
        out = apply(op, x)
        inner = apply(TWO_B, TruncVector(x.coords[:4]))
        assert np.array_equal(out.coords[:4], inner.coords)
        assert np.all(out.coords[4:] == 0)

    def test_forward_overflow_raises(self):
        v = TruncVector(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(TruncationOverflow):
            apply(ForwardShift(), v)

    def test_dense_dimension_checked(self):
        op = Dense(np.eye(3))
        with pytest.raises(DimensionMismatch):
            apply(op, TruncVector.zeros(4))

    def test_per_index_weights(self):
        op = BackwardShift((9.0, 2.0, 3.0, 4.0))
        out = apply(op, TruncVector(np.array([0.0, 1.0, 1.0, 1.0])))
        assert np.array_equal(out.coords, np.array([2.0, 3.0, 4.0, 0.0]))

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            BackwardShift(0.0)


class TestEvalPoly:
    def test_identity_polynomial(self):
        v = TruncVector(np.array([0.2, -0.4, 1.0]))
        out = eval_poly(ConvexPolynomial.identity(), TWO_B, v)
        assert np.array_equal(out.coords, v.coords)

    def test_monomial_on_basis(self):
        for m in range(4):
            out = eval_poly(ConvexPolynomial.monomial(m), TWO_B,
                            TruncVector.basis(5, 8))
            expected = np.zeros(8)
            expected[5 - m] = 2.0 ** m
            assert np.array_equal(out.coords, expected)

    def test_half_half_on_e1(self):
        P = ConvexPolynomial((0.5, 0.5))
        out = eval_poly(P, TWO_B, TruncVector.basis(1, 4))
        assert np.allclose(out.coords, [1.0, 0.5, 0.0, 0.0], rtol=0, atol=0)
        oracle = dense_eval(P, TWO_B, TruncVector.basis(1, 4))
        assert np.allclose(out.coords, oracle, rtol=1e-14, atol=0)

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(11)
        for dim in (4, 8, 16, 32):
            for _ in range(40):
                op, P, v = random_triple(rng, dim)
                got = eval_poly(P, op, v).coords
                want = dense_eval(P, op, v)
                scale = max(1.0, float(np.linalg.norm(want)))
                assert np.linalg.norm(got - want) <= 1e-10 * scale

    def test_backward_truncation_exactness(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            op = Scale(float(rng.uniform(-2, 2)), BackwardShift(float(rng.uniform(0.5, 2))))
            coeffs = rng.dirichlet(np.ones(4))
            P = ConvexPolynomial(tuple(c / np.sum(coeffs) for c in coeffs))
            v = TruncVector(rng.standard_normal(10))
            small = eval_poly(P, op, v).coords
            padded = TruncVector(np.concatenate([v.coords, np.zeros(8)]))
            big = eval_poly(P, op, padded).coords
            assert np.array_equal(small, big[:10])
            assert np.all(big[10:] == 0)


class TestConvexPolynomial:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            ConvexPolynomial((0.5, 0.4))

    def test_nonnegative_by_default(self):
        with pytest.raises(ValueError):
            ConvexPolynomial((1.5, -0.5))

    def test_signed_mode(self):
        P = ConvexPolynomial((1.5, -0.5), allow_signed=True)
        assert P.degree == 1

    def test_trailing_zeros_trimmed(self):
        P = ConvexPolynomial((1.0, 0.0, 0.0))
        assert P.coeffs == (1.0,)
        assert P.degree == 0

    def test_degree_profile(self):
        assert ConvexPolynomial((0.5, 0.0, 0.5)).degree_profile() == (0, 2)


class TestCompose:
    def test_identity_neutral(self):
        P = ConvexPolynomial((0.25, 0.5, 0.25))
        assert compose_polys(P, ConvexPolynomial.identity()).coeffs == P.coeffs

    def test_half_half_squared(self):
        P = ConvexPolynomial((0.5, 0.5))
        assert compose_polys(P, P).coeffs == (0.25, 0.5, 0.25)

    def test_monomials_add_degrees(self):
        a = ConvexPolynomial.monomial(3)
        b = ConvexPolynomial.monomial(4)
        assert compose_polys(a, b).coeffs == ConvexPolynomial.monomial(7).coeffs


class TestNormEstimates:
    def test_two_b(self):
        est = operator_norm_estimate(TWO_B, 8)
        assert est == 2.0
        oracle = float(np.linalg.norm(to_dense(TWO_B, 8), 2))
        assert math.isclose(est, oracle, rel_tol=1e-12)

    def test_identity(self):
        assert operator_norm_estimate(Identity(), 8) == 1.0

    def test_three_b(self):
        op = Scale(3.0, BackwardShift())
        assert operator_norm_estimate(op, 8) == 3.0
        assert math.isclose(operator_norm_estimate(op, 8),
                            float(np.linalg.norm(to_dense(op, 8), 2)),
                            rel_tol=1e-12)

    def test_dense_power_iteration(self):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((10, 10))
        est = operator_norm_estimate(Dense(mat), 10)
        assert math.isclose(est, float(np.linalg.norm(mat, 2)), rel_tol=1e-8)

    def test_weighted_shift_windows(self):
        op = BackwardShift((1.0, 0.5, 3.0, 0.25, 2.0))
        assert operator_norm_estimate(op, 5) == 3.0


class TestScreen:
    def test_identity_fails(self):
        report = screen_necessary_conditions(Identity(), 8, horizon=10)
        assert not report.norm_exceeds_one
        assert not report.passed

    def test_two_b_passes_with_dense_power_oracle(self):
        report = screen_necessary_conditions(TWO_B, 8, horizon=10)
        assert report.passed
        mat = to_dense(TWO_B, 8)
        power = np.eye(8)
        for n in range(1, 8):
            power = mat @ power
            assert math.isclose(report.power_norms[n - 1],
                                float(np.linalg.norm(power, 2)), rel_tol=1e-9)

    def test_zero_operator_fails(self):
        report = screen_necessary_conditions(Scale(0.0, BackwardShift()), 8,
                                             horizon=5)
        assert not report.passed
        assert report.norm_estimate == 0.0

    def test_power_norm_product_overflow_raises(self):
        # |2|^n and the shift's 2^n are finite, their product 4^n is not
        # from n = 512 on; it used to land in power_norms as inf.
        op = Scale(2.0, BackwardShift(2.0))
        assert screen_necessary_conditions(op, 1024, 511).power_norms[-1] == 4.0 ** 511
        with pytest.raises(NumericalOverflow, match="norm estimate") as info:
            screen_necessary_conditions(op, 1024, 600)
        assert info.value.degree == 512


class TestFamilies:
    def test_monomials_include_degree_zero(self):
        members = Monomials(3).members()
        assert members[0].coeffs == (1.0,)
        assert [P.degree for P in members] == [0, 1, 2, 3]

    def test_cesaro(self):
        members = CesaroMeans(2).members()
        assert members[2].coeffs == (1 / 3, 1 / 3, 1 / 3)

    def test_simplex_grid_counts(self):
        members = SimplexGrid(2, 4).members()
        assert len(members) == math.comb(2 + 4, 2)
        for P in members:
            assert math.isclose(math.fsum(P.coeffs), 1.0, abs_tol=1e-12)
            assert all(c >= 0 for c in P.coeffs)

    def test_enumeration_deterministic(self):
        for family in (Monomials(5), CesaroMeans(4), SimplexGrid(3, 3),
                       RandomSimplex(4, 12, seed=9)):
            a = [P.coeffs for P in family.members()]
            b = [P.coeffs for P in family.members()]
            assert a == b

    def test_random_simplex_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            RandomSimplex(3, 6, seed=-4)

    def test_random_simplex_seed_sensitivity(self):
        a = [P.coeffs for P in RandomSimplex(3, 6, seed=1).members()]
        b = [P.coeffs for P in RandomSimplex(3, 6, seed=2).members()]
        assert a != b


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

raw_coeffs = st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1,
                      max_size=10).filter(lambda cs: sum(cs) > 1e-3)


def normalized(cs):
    total = math.fsum(cs)
    return ConvexPolynomial(tuple(c / total for c in cs))


@given(raw_coeffs, raw_coeffs)
@settings(max_examples=200, deadline=None)
def test_compose_closure(cs1, cs2):
    out = compose_polys(normalized(cs1), normalized(cs2))
    assert all(c >= 0 for c in out.coeffs)
    assert abs(math.fsum(out.coeffs) - 1.0) <= 1e-12


@given(st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_compose_degree(a, b):
    out = compose_polys(ConvexPolynomial.monomial(a), ConvexPolynomial.monomial(b))
    assert out.degree == a + b
