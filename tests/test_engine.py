"""The orbit engine: bit-identity with the per-member loop, the dense
oracle, application counts and error semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcyclic import (BackwardShift, CesaroMeans, ConvexPolynomial,
                          DirectSum, ForwardShift, Identity, Monomials,
                          NumericalOverflow, RandomSimplex, Scale, SimplexGrid,
                          TruncationOverflow, TruncVector, apply, eval_poly,
                          images, operators, orbit_segment)
from oracles import (OPERATOR_KINDS, backward_windows, dense_eval,
                     dense_poly_matrix, loop_apply, loop_images, random_operator,
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


def _windowed_rows(rng, dim, windows, complex_field):
    """One row per (a, b) in ``windows``, random on [a, b) clipped to dim
    and zero elsewhere; a == b gives an all-zero row."""
    X = np.zeros((len(windows), dim), complex if complex_field else float)
    for r, (a, b) in enumerate(windows):
        a, b = sorted((min(a, dim), min(b, dim)))
        X[r, a:b] = rng.standard_normal(b - a)
        if complex_field:
            X[r, a:b] += 1j * rng.standard_normal(b - a)
    return X


def _assert_loop_and_dense(op, X, members):
    """``_images`` on X against the loop (bits and truncation faults) and,
    where no row overflows, the dense oracle."""
    out, fault = operators._images(op, X, members)
    for r, x in enumerate(X):
        for j, P in enumerate(members):
            try:
                want = loop_images(op, x, [P])[0]
            except TruncationOverflow:
                assert isinstance(fault.get((j, r)), TruncationOverflow)
                continue
            assert (j, r) not in fault
            assert np.array_equal(out[j, r], want)
            dense = dense_poly_matrix(P, op, len(x)) @ x
            scale = max(1.0, float(np.linalg.norm(dense)))
            assert np.linalg.norm(out[j, r] - dense) <= 1e-12 * scale


@given(st.integers(0, 2 ** 30), st.integers(1, 12), st.booleans(),
       st.sampled_from(sorted(FAMILIES)), st.sampled_from(OPERATOR_KINDS),
       st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_images_of_windowed_rows_match_loop_and_dense_oracle(
        seed, dim, complex_field, kind, op_kind, windows):
    # Rows live on random windows, of different supports in one block and
    # some all zero; forward shifts have no headroom, so some rows reach
    # the top index and others overflow it.
    rng = np.random.default_rng(seed)
    op, _ = random_operator(rng, dim, complex_field, kind=op_kind)
    _assert_loop_and_dense(op, _windowed_rows(rng, dim, windows, complex_field),
                           FAMILIES[kind](rng).members())


@pytest.mark.parametrize("op, windows", [
    # A direct sum whose window straddles its split at 5.
    (DirectSum(Scale(-1.5, BackwardShift((0.5, -2.0, 1j, 3.0, 1.0))),
               ForwardShift(-0.75), split=5), [(3, 7), (4, 6), (0, 0)]),
    # Forward shifts whose window reaches the top index, then overflows it.
    (ForwardShift((1.0, -2.0, 0.5, 1j, 3.0, -1.0, 2.0, 0.25, 1.0)), [(4, 7), (5, 6)]),
    (Scale(-2.0, ForwardShift(1.0)), [(6, 9), (0, 0)]),
    # Per-index weights and a negative factor under a backward shift whose
    # window reaches index 0 and empties.
    (Scale(-0.5, BackwardShift(tuple(np.linspace(-2.0, 2.0, 10) + 0.1))), [(1, 3), (2, 4)]),
])
def test_windows_at_the_split_and_the_ends(op, windows):
    rng = np.random.default_rng(7)
    for complex_field in (False, True):
        _assert_loop_and_dense(op, _windowed_rows(rng, 10, windows, complex_field),
                               Monomials(6).members() + CesaroMeans(4).members())


@pytest.mark.parametrize("shift, need", [(BackwardShift((1.0, 2.0, 3.0)), 8),
                                         (ForwardShift((1.0, 2.0, 3.0)), 7)])
def test_short_per_index_weights_raise_inside_their_range(shift, need):
    # e_1 stays within the three weights for a step, but the weights must
    # cover every index of the truncation.
    x = TruncVector.basis(1, 8)
    message = f"per-index weights cover 3 indices, need {need}"
    with pytest.raises(ValueError, match=message):
        images(shift, x.coords[None], Monomials(2))
    with pytest.raises(ValueError, match=message):
        eval_poly(ConvexPolynomial.monomial(1), shift, x)
    with pytest.raises(ValueError, match=message):
        apply(shift, x)


def _record_acts(monkeypatch) -> list:
    """The window, as (first column, block shape), of every later
    outermost ``_act_window`` call: one per engine step."""
    calls = []
    depth = [0]
    act = operators._act_window

    def counting(op, X, lo, dim, check=True):
        if not depth[0]:
            calls.append((lo, X.shape))
        depth[0] += 1
        try:
            return act(op, X, lo, dim, check)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(operators, "_act_window", counting)
    return calls


@pytest.mark.parametrize("degree", [0, 1, 7, 64, 200])
def test_monomials_cost_one_block_application_per_degree(degree, monkeypatch):
    # The window [100, 128) moves down one column a degree; from degree 100
    # on it loses column 0 each time, and it is empty after degree 128.
    calls = _record_acts(monkeypatch)
    x = np.zeros((1, 128))
    x[0, 100:] = 1.0
    got = images(BackwardShift(2.0), x, Monomials(degree).members())
    assert calls == backward_windows(x, degree)
    assert len(calls) == min(degree, 128)
    for j, want in enumerate(loop_images(BackwardShift(2.0), x[0],
                                         Monomials(degree).members())):
        assert np.array_equal(got[j, 0], want)


def test_an_all_zero_block_costs_one_application(monkeypatch):
    # The first step acts on the empty window: it validates the operator
    # and settles the dtype of the images.
    calls = _record_acts(monkeypatch)
    got = images(BackwardShift(2j), np.zeros((2, 8)), Monomials(5))
    assert calls == backward_windows(np.zeros((2, 8)), 5) == [(0, (2, 0))]
    assert got.dtype == np.complex128 and not got[1:].any()
    assert np.array_equal(got[0], np.zeros((2, 8)))


def _record_blocks(mp) -> list:
    """The number of members in every later engine block."""
    blocks = []
    engine = operators._images

    def counting(op, X, polys, walk=None):
        blocks.append(len(polys))
        return engine(op, X, polys, walk)

    mp.setattr(operators, "_images", counting)
    return blocks


def _flat(stream):
    """Every image of an ``image_stream`` as (j, r, w, error), in order."""
    for j0, r0, out, fault in stream:
        for j, r in np.ndindex(out.shape[:2]):
            yield j0 + j, r0 + r, out[j, r], fault.get((j, r))


def test_monomials_cost_one_block_application_per_degree_across_blocks(monkeypatch):
    # At dim 2048 one block holds 64 members: Monomials(400) comes in 7
    # blocks, and each resumes where the previous one stopped, window and
    # all.
    calls = _record_acts(monkeypatch)
    blocks = _record_blocks(monkeypatch)
    x = np.zeros((1, 2048))
    x[0, 1600:] = 1.0
    stream = list(_flat(operators.image_stream(BackwardShift(2.0), x, Monomials(400))))
    assert [(j, r) for j, r, _, _ in stream] == [(j, 0) for j in range(401)]
    assert blocks == [64] * 6 + [17]
    assert calls == backward_windows(x, 400)
    assert len(calls) == 400


def test_the_walk_stops_when_the_window_empties(monkeypatch):
    # Rows e_2 and e_5 leave a window [2, 6) that is empty after degree 6;
    # the later blocks of Monomials(40) resume the empty walk and apply
    # nothing.
    calls = _record_acts(monkeypatch)
    X = np.zeros((2, 64))
    X[0, 2], X[1, 5] = 1.0, -3.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "BLOCK_BYTES", 16 * 64 * 2 * 4)
        stream = list(_flat(operators.image_stream(Scale(-2.0, BackwardShift()), X,
                                                   Monomials(40))))
    assert calls == backward_windows(X, 40)
    assert len(calls) == 6
    want = [loop_images(Scale(-2.0, BackwardShift()), x, Monomials(40).members())
            for x in X]
    assert all(np.array_equal(w, want[r][j]) for j, r, w, _ in stream)


def test_each_row_slice_carries_one_walk(monkeypatch):
    # At dim 512 a block holds 256 rows, so 600 rows stream in slices of
    # 256, 256 and 88, one member per block.  Each slice walks once through
    # Monomials(100), window and all: 3 x 100 block applications.
    rng = np.random.default_rng(11)
    X = np.zeros((600, 512))
    for r0, (lo, hi) in zip((0, 256, 512), ((40, 300), (150, 512), (100, 201))):
        rows = X[r0: r0 + 256]
        rows[:, lo:hi] = rng.standard_normal((len(rows), hi - lo))
    op, family = Scale(2.0, BackwardShift()), Monomials(100)
    want, want_faults = operators._images(op, X, family)
    calls = _record_acts(monkeypatch)
    windows = {0: [], 256: [], 512: []}
    faults = {}
    for j0, r0, out, fault in operators.image_stream(op, X, family):
        windows[r0] += calls[sum(map(len, windows.values())):]
        assert out.shape[0] == 1
        # Zeros outside a slice's window may differ in sign from the
        # whole block's (see the operators module).
        assert np.array_equal(out[0], want[j0, r0: r0 + out.shape[1]])
        faults.update(((j0 + j, r0 + r), e) for (j, r), e in fault.items())
    assert len(calls) == 300
    for r0, got in windows.items():
        assert got == backward_windows(X[r0: r0 + 256], 100)
    assert faults == want_faults == {}


def _stream_and_whole(op, X, members, rows_per_block):
    """image_stream at a bound of ``rows_per_block`` rows, gathered into
    one array and a fault table, next to one _images call on the whole
    family."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "BLOCK_BYTES", 16 * X.shape[1] * rows_per_block)
        blocks = _record_blocks(mp)
        stream = list(_flat(operators.image_stream(op, X, members)))
    assert len(blocks) == -(-len(members) // (rows_per_block // len(X)))
    assert [(j, r) for j, r, _, _ in stream] == list(np.ndindex(len(members), len(X)))
    got = np.array([w for _, _, w, _ in stream],
                   dtype=np.result_type(*{w.dtype for _, _, w, _ in stream}))
    faults = {(j, r): e for j, r, _, e in stream if e is not None}
    got = got.reshape((len(members),) + X.shape)
    return (got, faults), operators._images(op, X, members)


def _describe(faults):
    return {key: (type(e), str(e), getattr(e, "degree", None))
            for key, e in faults.items()}


@given(st.integers(0, 2 ** 30), st.integers(1, 6), st.sampled_from(sorted(FAMILIES)),
       st.integers(1, 3), st.integers(1, 3), st.booleans(),
       st.sampled_from([1.0, 1e300]))
@settings(max_examples=300, deadline=None)
def test_blocks_share_one_walk_with_the_same_bits_and_faults(
        seed, dim, kind, batch, members_per_block, complex_field, magnitude):
    # Forward shifts get no headroom and large rows overflow, so rows fail
    # inside one block while later blocks still read them.
    rng = np.random.default_rng(seed)
    op, _ = random_operator(rng, dim, complex_field)
    members = FAMILIES[kind](rng).members()
    X = rng.standard_normal((batch, dim))
    if complex_field:
        X = X + 1j * rng.standard_normal((batch, dim))
    X *= magnitude
    (got, faults), (want, want_faults) = _stream_and_whole(
        op, X, members, batch * members_per_block)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert list(faults) == list(want_faults)
    assert _describe(faults) == _describe(want_faults)


def test_carried_walk_keeps_a_failed_row_failed():
    # Row 0 overflows the truncation at degree 3, inside the block of
    # members 2 and 3; row 1 never does.  The later blocks resume the walk
    # and still fail row 0 for every member past degree 2.
    X = np.zeros((2, 12))
    X[0, 9] = 1.0
    X[1, 0] = 1.0
    members = Monomials(9).members()
    (got, faults), (want, want_faults) = _stream_and_whole(
        ForwardShift(0.5j), X, members, 4)
    assert got.tobytes() == want.tobytes()
    assert sorted(faults) == [(j, 0) for j in range(3, 10)]
    assert _describe(faults) == _describe(want_faults)
    assert all(isinstance(e, TruncationOverflow) for e in faults.values())
    assert np.array_equal(got[9, 1], loop_images(ForwardShift(0.5j), X[1], members)[9])


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
