"""Operator action, polynomial evaluation, norms, screens and families."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcyclic import (BackwardShift, CesaroMeans, ConvexPolynomial,
                          Dense, DimensionMismatch, DirectSum, ForwardShift,
                          Identity, Monomials, NumericalOverflow,
                          RandomSimplex, Scale, SimplexGrid, TruncVector,
                          TruncationOverflow, apply, eval_poly,
                          screen_necessary_conditions, to_dense)
from convexcyclic.operators import TermTable, power_norm_estimates, term_table
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

    @pytest.mark.parametrize("kind", [BackwardShift, ForwardShift])
    @pytest.mark.parametrize("weight", [2.0, 1j, -0.5 + 2j, (1.0, 2j, -3.0, 0.5, 4.0, 1.5),
                                        (2.0, 3.0, -1.0, 0.5, 0.25, 1j)])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_shift_matches_dense_matrix(self, kind, weight, complex_field):
        # A complex weight on a real row gives a complex image.
        coords = np.array([0.5, -1.0, 2.0, 0.0, 3.0, 0.0])
        if complex_field:
            coords = coords + 1j * np.array([1.0, 0.0, -2.0, 1.0, 0.5, 0.0])
        op = kind(weight)
        got = apply(op, TruncVector(coords)).coords
        want = to_dense(op, coords.size) @ coords
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            BackwardShift(0.0)


class TestEvalPoly:
    def test_identity_polynomial(self):
        v = TruncVector(np.array([0.2, -0.4, 1.0]))
        out = eval_poly(ConvexPolynomial.monomial(0), TWO_B, v)
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

    def test_trailing_zeros_trimmed(self):
        P = ConvexPolynomial((1.0, 0.0, 0.0))
        assert P.coeffs == (1.0,)
        assert P.degree == 0

    def test_trailing_signed_zeros_trimmed(self):
        assert ConvexPolynomial((0.5, 0.5, -0.0, 0.0)).coeffs == (0.5, 0.5)
        assert ConvexPolynomial((0.0, 1.0)).coeffs == (0.0, 1.0)

    @pytest.mark.parametrize("coeffs,kwargs,error,message", [
        ((), {}, ValueError, "a convex polynomial needs at least one coefficient"),
        ((0.5, math.nan), {}, ValueError, "coefficients must be finite"),
        ((math.inf, -math.inf), {}, ValueError, "coefficients must be finite"),
        # Finiteness is checked before signs, signs before the sum.
        ((-1.0, math.nan), {}, ValueError, "coefficients must be finite"),
        ((1.5, -0.5), {}, ValueError, "coefficients must be nonnegative"),
        ((-0.5, 0.25), {}, ValueError, "coefficients must be nonnegative"),
        ((0.5, 0.4), {}, ValueError, "coefficients must sum to 1 within 1e-12, got 0.9"),
        ((2.0, -0.5), {}, ValueError, "coefficients must be nonnegative"),
        ((0.0,), {}, ValueError, "coefficients must sum to 1 within 1e-12, got 0.0"),
        (("half", 0.5), {}, ValueError, "could not convert string to float: 'half'"),
        ((None,), {}, TypeError, "float() argument must be a string or a"),
    ])
    def test_every_error_message(self, coeffs, kwargs, error, message):
        with pytest.raises(error) as info:
            ConvexPolynomial(coeffs, **kwargs)
        assert type(info.value) is error
        assert str(info.value).startswith(message)

    def test_strings_and_booleans_are_rejected(self):
        # float() would turn "0.25" into 0.25 and True into 1.0.
        for coeffs in (("0.25", "0.75"), (False, True), (True,), (np.True_,),
                       (0.5, b"0.5")):
            with pytest.raises(ValueError, match="must be real numbers, not strings or booleans"):
                ConvexPolynomial(coeffs)
        assert ConvexPolynomial((0, 1)).coeffs == (0.0, 1.0)
        assert ConvexPolynomial((np.float32(0.5), np.int64(0), 0.5)).coeffs == (0.5, 0.0, 0.5)

    def test_degree_profile(self):
        assert ConvexPolynomial((0.5, 0.0, 0.5)).degree_profile() == (0, 2)


def composed(P, Q, op, v):
    """P(T)(Q(T)v): two polynomial images, one after the other."""
    return eval_poly(P, op, eval_poly(Q, op, v))


class TestCompose:
    V = TruncVector(np.linspace(1.0, 2.0, 12))

    def test_identity_neutral(self):
        P = ConvexPolynomial((0.25, 0.5, 0.25))
        assert np.array_equal(composed(ConvexPolynomial.monomial(0), P, TWO_B, self.V).coords,
                              eval_poly(P, TWO_B, self.V).coords)

    def test_half_half_squared(self):
        P = ConvexPolynomial((0.5, 0.5))
        square = eval_poly(ConvexPolynomial((0.25, 0.5, 0.25)), TWO_B, self.V)
        assert np.allclose(composed(P, P, TWO_B, self.V).coords, square.coords,
                           rtol=1e-14, atol=0)

    def test_monomials_add_degrees(self):
        a = ConvexPolynomial.monomial(3)
        b = ConvexPolynomial.monomial(4)
        assert np.array_equal(composed(a, b, TWO_B, self.V).coords,
                              eval_poly(ConvexPolynomial.monomial(7), TWO_B, self.V).coords)


class TestNormEstimates:
    def test_two_b(self):
        est = power_norm_estimates(TWO_B, 1, 8)[0]
        assert est == 2.0
        oracle = float(np.linalg.norm(to_dense(TWO_B, 8), 2))
        assert math.isclose(est, oracle, rel_tol=1e-12)

    def test_identity(self):
        assert power_norm_estimates(Identity(), 1, 8)[0] == 1.0

    def test_three_b(self):
        op = Scale(3.0, BackwardShift())
        assert power_norm_estimates(op, 1, 8)[0] == 3.0
        assert math.isclose(power_norm_estimates(op, 1, 8)[0],
                            float(np.linalg.norm(to_dense(op, 8), 2)),
                            rel_tol=1e-12)

    def test_dense_two_norm(self):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((10, 10))
        assert power_norm_estimates(Dense(mat), 1, 10)[0] == float(np.linalg.norm(mat, 2))

    def test_weighted_shift_windows(self):
        op = BackwardShift((1.0, 0.5, 3.0, 0.25, 2.0))
        assert power_norm_estimates(op, 1, 5)[0] == 3.0

    @pytest.mark.parametrize("op, dim", [
        (ForwardShift((1, 1, 5, 1)), 4),
        (BackwardShift((1, 1, 5, 1)), 4),
        (ForwardShift(tuple(np.random.default_rng(5).uniform(0.2, 3.0, 8))), 9),
        (BackwardShift(tuple(np.random.default_rng(6).uniform(0.2, 3.0, 9))), 9),
        (Scale(-1.5j, ForwardShift((2.0, 0.5, 4.0, 1.0, 0.25))), 6),
        (DirectSum(BackwardShift((1, 3, 0.5, 2)), Scale(2.0, ForwardShift((1, 4, 0.5, 1))), 4), 9),
        (Scale(4.0, BackwardShift()), 8),
        (Dense(np.random.default_rng(7).standard_normal((6, 6)) / 3), 6),
    ])
    def test_per_index_weight_powers_match_the_dense_oracle(self, op, dim):
        # Every window of n consecutive weights counts, the last ones too:
        # ForwardShift((1, 1, 5, 1)) keeps ||T^n|| = 5 up to n = 3.  4^n
        # leaves the float range at n = 512, but (4B)^n is zero from n = 8
        # at dim 8.  A dense block's norms are the oracle's, bit for bit.
        got = power_norm_estimates(op, 600, dim)
        mat, power = to_dense(op, dim), np.eye(dim)
        tol = 0.0 if isinstance(op, Dense) else 1e-12
        for n in range(1, 601):
            power = power @ mat
            assert math.isclose(got[n - 1], float(np.linalg.norm(power, 2)), rel_tol=tol)


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
        # An underflowed factor is no exact zero: ||T^2|| = 1e100, but
        # 1e-400 reads 0 and 1e500 reads inf.
        with pytest.raises(NumericalOverflow) as info:
            screen_necessary_conditions(Scale(1e-200, BackwardShift(1e250)), 8, 2)
        assert info.value.degree == 2

    @pytest.mark.parametrize("op, dim", [
        (DirectSum(Identity(), Identity(), 8), 4),
        (DirectSum(Identity(), BackwardShift(), 8), 4),
        (Dense(np.eye(3)), 5),
    ], ids=["direct_sum_split", "direct_sum_split_shift", "dense_size"])
    def test_an_operator_that_does_not_fit_dim_raises(self, op, dim):
        # The screen, the engine and the dense oracle give one message.
        messages = set()
        for call in (lambda: screen_necessary_conditions(op, dim, 3),
                     lambda: power_norm_estimates(op, 3, dim),
                     lambda: apply(op, TruncVector.zeros(dim)),
                     lambda: to_dense(op, dim)):
            with pytest.raises(DimensionMismatch) as info:
                call()
            messages.add(str(info.value))
        assert len(messages) == 1


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

    @pytest.mark.parametrize("degree", [0, 1, 2, 17, 50])
    def test_monomial_terms_are_those_of_the_members(self, degree):
        family = Monomials(degree)
        got, want = term_table(family), TermTable.of(family.members())
        for name in ("degrees", "constants", "ptr", "powers", "coeffs"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert all(got.member(j) == want.member(j) for j in range(degree + 1))
        assert all(got[j0:].member(j) == want.member(j0 + j)
                   for j0 in (0, degree) for j in range(degree + 1 - j0))

    @pytest.mark.parametrize("degree", [0, 1, 2, 17, 50])
    def test_cesaro_terms_are_those_of_the_members(self, degree):
        family = CesaroMeans(degree)
        got, want = family.terms(), TermTable.of(family.members())
        for name in ("degrees", "constants", "ptr", "powers", "coeffs"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert all(got[j0:].member(j) == want.member(j0 + j)
                   for j0 in (0, degree) for j in range(degree + 1 - j0))

    def test_cesaro_terms_build_no_polynomial(self):
        with mock.patch.object(ConvexPolynomial, "__post_init__", autospec=True,
                               side_effect=ConvexPolynomial.__post_init__) as built:
            table = term_table(CesaroMeans(1000))
            assert len(table) == 1001 and built.call_count == 0
            assert table[1000:].member(0) == CesaroMeans(1000).members()[-1]

    @pytest.mark.parametrize("family", [Monomials(6), CesaroMeans(5), SimplexGrid(3, 3),
                                        RandomSimplex(4, 7, seed=2)])
    def test_term_table_rebuilds_every_member(self, family):
        # Coverage: a table read from members() holds their coefficients.
        table = term_table(family)
        members = family.members()
        assert len(table) == len(members)
        for j0 in range(len(members)):
            block = table[j0: j0 + 2]
            for j in range(len(block)):
                P = members[j0 + j]
                coeffs = [0.0] * (block.degrees[j] + 1)
                coeffs[0] = block.constants[j]
                for s in range(block.ptr[j], block.ptr[j + 1]):
                    coeffs[block.powers[s]] = block.coeffs[s]
                assert tuple(coeffs) == P.coeffs
                assert block.member(j) == P

    def test_monomial_terms_build_no_polynomial(self):
        # members() at the MAX_MEMBERS cap builds 4,096 tuples of up to
        # 4,096 coefficients; the table is made without any.
        with mock.patch.object(ConvexPolynomial, "__post_init__", autospec=True,
                               side_effect=ConvexPolynomial.__post_init__) as built:
            table = term_table(Monomials(4095))
            assert len(table) == 4096 and built.call_count == 0
            assert table[4000:].member(95) == ConvexPolynomial.monomial(4095)

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
    # The coefficient convolution of two convex polynomials is convex, and
    # its image is the image of one polynomial taken after the other.
    P, Q = normalized(cs1), normalized(cs2)
    PQ = ConvexPolynomial(tuple(float(c) for c in np.convolve(P.coeffs, Q.coeffs)))
    v = TruncVector.basis(PQ.degree, PQ.degree + 1)
    assert np.allclose(composed(P, Q, TWO_B, v).coords, eval_poly(PQ, TWO_B, v).coords,
                       rtol=1e-12, atol=1e-12 * 2.0 ** PQ.degree)


@given(st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_compose_degree(a, b):
    v = TruncVector.basis(a + b, a + b + 1)
    out = composed(ConvexPolynomial.monomial(a), ConvexPolynomial.monomial(b), TWO_B, v)
    assert np.array_equal(out.coords, 2.0 ** (a + b) * TruncVector.basis(0, a + b + 1).coords)
