"""The orbit engine: bit-identity with the per-member loop, the dense
oracle, application counts and error semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcyclic import (BackwardShift, CesaroMeans, ConvexPolynomial,
                          ForwardShift, Identity, Monomials, NumericalOverflow,
                          RandomSimplex, Scale, SimplexGrid,
                          TruncationOverflow, TruncVector, apply, eval_poly,
                          images, operators, orbit_segment)
from oracles import (dense_eval, loop_apply, loop_images, random_operator,
                     random_vector)

FAMILIES = {
    "monomials": lambda rng: Monomials(int(rng.integers(0, 6))),
    "cesaro": lambda rng: CesaroMeans(int(rng.integers(0, 6))),
    "simplex_grid": lambda rng: SimplexGrid(int(rng.integers(0, 4)),
                                            int(rng.integers(1, 4))),
    "random_simplex": lambda rng: RandomSimplex(int(rng.integers(0, 5)),
                                                int(rng.integers(1, 6)),
                                                seed=int(rng.integers(0, 100))),
}


@given(st.integers(0, 2 ** 30), st.integers(1, 8), st.booleans(),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.sampled_from(sorted(FAMILIES)),
       st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_images_match_loop_and_dense_oracle(seed, dim, complex_field, p, kind, batch):
    rng = np.random.default_rng(seed)
    op, blocks = random_operator(rng, dim, complex_field)
    family = FAMILIES[kind](rng)
    members = family.members()
    top = max(P.degree for P in members)
    vectors = [random_vector(rng, dim, blocks, top, p, complex_field)
               for _ in range(batch)]
    got = images(op, np.array([v.coords for v in vectors]), members)
    assert got.shape == (len(members), batch, dim)
    for r, v in enumerate(vectors):
        for j, want in enumerate(loop_images(op, v.coords, members)):
            assert np.array_equal(got[j, r], want)
            dense = dense_eval(members[j], op, v)
            scale = max(1.0, float(np.linalg.norm(dense)))
            assert np.linalg.norm(got[j, r] - dense) <= 1e-12 * scale
        segment = orbit_segment(op, v, family)
        assert all(w.p == p for w in segment)
        assert all(np.array_equal(w.coords, got[j, r]) for j, w in enumerate(segment))


@given(st.integers(0, 2 ** 30), st.integers(1, 6), st.sampled_from(sorted(FAMILIES)),
       st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_faults_are_the_loop_failures(seed, dim, kind, batch):
    # No headroom for forward shifts: some (member, row) evaluations
    # overflow the truncation, and exactly those must be reported.
    rng = np.random.default_rng(seed)
    op, _ = random_operator(rng, dim)
    members = FAMILIES[kind](rng).members()
    X = rng.standard_normal((batch, dim))
    out, fault = operators._images(op, X, members)
    for r in range(batch):
        for j, P in enumerate(members):
            try:
                want = loop_images(op, X[r], [P])[0]
            except TruncationOverflow:
                assert isinstance(fault.get((j, r)), TruncationOverflow)
                continue
            assert (j, r) not in fault
            assert np.array_equal(out[j, r], want)


@pytest.mark.parametrize("degree", [0, 1, 7, 64])
def test_monomials_cost_one_block_application_per_degree(degree, monkeypatch):
    calls = []
    act = operators._act

    def counting(op, X, check=True):
        calls.append(X.shape)
        return act(op, X, check)

    monkeypatch.setattr(operators, "_act", counting)
    x = np.zeros((1, 128))
    x[0, 100:] = 1.0
    images(BackwardShift(2.0), x, Monomials(degree).members())
    assert calls == [(1, 128)] * degree


def test_forward_overflow_still_raised():
    x = np.array([[0.0, 1.0, 0.0, 2.0]])
    with pytest.raises(TruncationOverflow):
        images(ForwardShift(), x, Monomials(2).members())
    with pytest.raises(TruncationOverflow):
        images(Scale(0.5, ForwardShift()), x, [ConvexPolynomial.monomial(1)])
    with pytest.raises(TruncationOverflow):
        eval_poly(ConvexPolynomial.monomial(3), ForwardShift(), TruncVector(x[0]))


def test_overflow_fails_only_the_members_and_rows_that_reach_it():
    X = np.array([[0.0, 0.0, 1.0],    # top mass: the first shift overflows
                  [1.0, 0.0, 0.0]])   # headroom for two shifts
    polys = [ConvexPolynomial.identity(), ConvexPolynomial.monomial(1),
             ConvexPolynomial.monomial(2), ConvexPolynomial.monomial(3)]
    out, fault = operators._images(ForwardShift(), X, polys)
    assert sorted(fault) == [(1, 0), (2, 0), (3, 0), (3, 1)]
    assert all(isinstance(e, TruncationOverflow) for e in fault.values())
    assert np.array_equal(out[0], X)
    assert np.array_equal(out[2, 1], [0.0, 0.0, 1.0])


def test_non_finite_power_raises_value_error():
    x = np.array([[0.0, 1e308, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        images(Scale(2.0, BackwardShift()), x, [ConvexPolynomial.monomial(2)])
    # Members below the failing degree are unaffected.
    out = images(Scale(2.0, BackwardShift()), x, [ConvexPolynomial.identity()])
    assert np.array_equal(out[0], x)


def test_numerical_overflow_carries_the_degree():
    # 2B e_1100: the power T^d x = 2^d e_(1100-d) first overflows at d = 1024.
    x = TruncVector.basis(1100, 1101)
    with pytest.raises(NumericalOverflow) as info:
        eval_poly(ConvexPolynomial.monomial(1030), Scale(2.0, BackwardShift()), x)
    assert info.value.degree == 1024
    assert isinstance(info.value, ValueError)
    with pytest.raises(NumericalOverflow) as info:
        apply(Scale(2.0, BackwardShift()), TruncVector(np.array([0.0, 1e308])))
    assert info.value.degree == 1
    # A sum of finite signed terms that overflows names the member's degree.
    P = ConvexPolynomial((-1.0, 0.0, 0.0, 2.0), allow_signed=True)
    out, fault = operators._images(Identity(), np.array([[1e308]]), [P])
    assert list(fault) == [(0, 0)]
    assert isinstance(fault[0, 0], NumericalOverflow)
    assert fault[0, 0].degree == 3


@pytest.mark.parametrize("shift", [BackwardShift(1.0), ForwardShift(1.0)])
def test_unit_weight_shifts_keep_the_loop_bits(shift):
    # Real rows are copied; complex rows are still multiplied by 1 + 0j,
    # which turns -0.0 - 5j into 0.0 - 5j as the loop does.
    rng = np.random.default_rng(3)
    real = rng.standard_normal((3, 9))
    real[:, -1] = 0.0
    real[0, 1] = -0.0
    cplx = real + 1j * rng.standard_normal((3, 9))
    cplx[:, -1] = 0.0
    cplx[1, 2] = complex(-0.0, -5.0)
    for X in (real, cplx):
        got = operators._act(shift, X)
        for r in range(len(X)):
            assert got[r].tobytes() == loop_apply(shift, X[r]).tobytes()
