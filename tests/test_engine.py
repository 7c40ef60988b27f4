"""The orbit engine: bit-identity with the per-member loop, the dense
oracle, application counts and error semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcyclic import (BackwardShift, ConvexPolynomial, DirectSum,
                          ForwardShift, Identity, Monomials, NumericalOverflow,
                          Scale, TruncationOverflow, TruncVector, apply,
                          eval_poly, images, operators)
from oracles import (OPERATOR_KINDS, backward_jumps, backward_windows, dense_eval,
                     dense_poly_matrix, loop_apply, loop_images, members_of,
                     outer_accumulators, random_convex_poly, random_operator,
                     random_vector)


def _dense_rows(count):
    """``count`` members, member k with the weight 1/(k+1) at every degree
    0..k: a term at every degree, and a table whose degrees overlap."""
    return [ConvexPolynomial((1.0 / (k + 1),) * (k + 1)) for k in range(count)]


FAMILIES = {
    "monomials": lambda rng: Monomials(int(rng.integers(0, 6))),
    "dense_rows": lambda rng: _dense_rows(int(rng.integers(1, 7))),
    "random_convex": lambda rng: [random_convex_poly(rng, int(rng.integers(0, 5)))
                                  for _ in range(int(rng.integers(1, 6)))],
}


@given(st.integers(0, 2 ** 30), st.integers(1, 8), st.booleans(),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.sampled_from(sorted(FAMILIES)),
       st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_images_match_loop_and_dense_oracle(seed, dim, complex_field, p, kind, batch):
    rng = np.random.default_rng(seed)
    op, blocks = random_operator(rng, dim, complex_field)
    family = FAMILIES[kind](rng)
    members = members_of(family)
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
        assert np.array_equal(images(op, v.coords[None], family)[:, 0], got[:, r])


@given(st.integers(0, 2 ** 30), st.integers(1, 6), st.sampled_from(sorted(FAMILIES)),
       st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_faults_are_the_loop_failures(seed, dim, kind, batch):
    # No headroom for forward shifts: some (member, row) evaluations
    # overflow the truncation, and exactly those must be reported.
    rng = np.random.default_rng(seed)
    op, _ = random_operator(rng, dim)
    members = members_of(FAMILIES[kind](rng))
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
                           members_of(FAMILIES[kind](rng)))


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
                               Monomials(6).members() + tuple(_dense_rows(5)))


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


def _record_acts(monkeypatch, resolved=None) -> list:
    """The window, as (first column, block shape), of every later call of
    an outermost resolved step: one per engine step.  ``resolved``, if
    given, gets the row dtype of every outermost resolution."""
    calls = []
    depth = [0]
    stepper = operators._stepper

    def outermost(op, dim, dtype):
        depth[0] += 1
        try:
            step, out_dtype = stepper(op, dim, dtype)
        finally:
            depth[0] -= 1
        if depth[0]:
            return step, out_dtype
        if resolved is not None:
            resolved.append(dtype)

        def counting(X, lo):
            calls.append((lo, X.shape))
            return step(X, lo)
        return counting, out_dtype

    monkeypatch.setattr(operators, "_stepper", outermost)
    return calls


@pytest.mark.parametrize("degree", [0, 1, 7, 64, 200])
def test_monomials_cost_one_block_application_per_degree(degree, monkeypatch):
    # The window [100, 128) moves down one column a degree; from degree 100
    # on it loses column 0 each time, and it is empty after degree 128.
    # Weight 3 is no power of two, so the walk steps every degree.
    calls = _record_acts(monkeypatch)
    x = np.zeros((1, 128))
    x[0, 100:] = 1.0
    got = images(BackwardShift(3.0), x, Monomials(degree).members())
    assert calls == backward_windows(x, degree)
    assert len(calls) == min(degree, 128)
    for j, want in enumerate(loop_images(BackwardShift(3.0), x[0],
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


def _record_jumps(monkeypatch) -> list:
    """Every later closed-form jump, as (degrees jumped, first column,
    block shape) of the window it lands on."""
    jumps = []
    jump = operators._dyadic_power

    def recording(power, lo, n, dyadic):
        power, lo = jump(power, lo, n, dyadic)
        jumps.append((n, lo, power.shape))
        return power, lo

    monkeypatch.setattr(operators, "_dyadic_power", recording)
    return jumps


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
    # all.  Weight 1.5 is no power of two, so the walk steps every degree.
    calls = _record_acts(monkeypatch)
    blocks = _record_blocks(monkeypatch)
    x = np.zeros((1, 2048))
    x[0, 1600:] = 1.0
    stream = list(_flat(operators.image_stream(BackwardShift(1.5), x, Monomials(400))))
    assert [(j, r) for j, r, _, _ in stream] == [(j, 0) for j in range(401)]
    assert blocks == [64] * 6 + [17]
    assert calls == backward_windows(x, 400)
    assert len(calls) == 400


def test_monomials_under_2B_make_the_window_once_per_block(monkeypatch):
    # Under 2B each of the 7 blocks of Monomials(400) at dim 2048 adds its
    # members as one run and makes the window once, at the run's end:
    # no step, and 7 jumps where one per degree made 400.
    calls = _record_acts(monkeypatch)
    jumps = _record_jumps(monkeypatch)
    x = np.zeros((1, 2048))
    x[0, 1600:] = np.linspace(0.5, 1.5, 448)
    op = Scale(2.0, BackwardShift())
    got = np.concatenate([out for _, _, out, _ in operators.image_stream(op, x, Monomials(400))])
    assert calls == []
    assert jumps == backward_jumps(x, [63, 127, 191, 255, 319, 383, 400])
    want, _ = _stepped(op, x, Monomials(400).members(), None)
    assert got.tobytes() == want.tobytes()


def test_the_walk_stops_when_the_window_empties(monkeypatch):
    # Rows e_2 and e_5 leave a window [2, 6) that is empty after degree 6;
    # the later blocks of Monomials(40) resume the empty walk and apply
    # nothing.  -2B walks in closed form: blocks of 4 members add degrees
    # 1..3 and 4..7 as runs, with one jump to the end of each.
    calls = _record_acts(monkeypatch)
    jumps = _record_jumps(monkeypatch)
    X = np.zeros((2, 64))
    X[0, 2], X[1, 5] = 1.0, -3.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "BLOCK_BYTES", 16 * 64 * 2 * 4)
        stream = list(_flat(operators.image_stream(Scale(-2.0, BackwardShift()), X,
                                                   Monomials(40))))
    assert calls == []
    assert jumps == backward_jumps(X, [3, 7])
    assert jumps[-1] == (4, 0, (2, 0))
    want = [loop_images(Scale(-2.0, BackwardShift()), x, Monomials(40).members())
            for x in X]
    assert all(np.array_equal(w, want[r][j]) for j, r, w, _ in stream)


def test_each_row_slice_carries_one_walk(monkeypatch):
    # At dim 512 a block holds 256 rows, so 600 rows stream in slices of
    # 256, 256 and 88, one member per block.  Each slice walks once through
    # Monomials(100), window and all: 3 x 100 closed-form jumps of one
    # degree, where a walk started again would jump from degree 0.
    rng = np.random.default_rng(11)
    X = np.zeros((600, 512))
    for r0, (lo, hi) in zip((0, 256, 512), ((40, 300), (150, 512), (100, 201))):
        rows = X[r0: r0 + 256]
        rows[:, lo:hi] = rng.standard_normal((len(rows), hi - lo))
    op, family = Scale(2.0, BackwardShift()), Monomials(100)
    want, want_faults = operators._images(op, X, family)
    calls = _record_acts(monkeypatch)
    jumps = _record_jumps(monkeypatch)
    windows = {0: [], 256: [], 512: []}
    faults = {}
    for j0, r0, out, fault in operators.image_stream(op, X, family):
        windows[r0] += jumps[sum(map(len, windows.values())):]
        assert out.shape[0] == 1
        # Zeros outside a slice's window may differ in sign from the
        # whole block's (see the operators module).
        assert np.array_equal(out[0], want[j0, r0: r0 + out.shape[1]])
        faults.update(((j0 + j, r0 + r), e) for (j, r), e in fault.items())
    assert calls == [] and len(jumps) == 300
    for r0, got in windows.items():
        assert got == backward_jumps(X[r0: r0 + 256], range(1, 101))
    assert faults == want_faults == {}


def test_a_failing_row_costs_no_extra_step(monkeypatch):
    # One entry of 1e300 (frexp exponent 997) in row 300 overflows under
    # 2B at degree 28, so the row fails members 28..100.  Its slice jumps
    # in closed form to degree 27, the bound, steps once to degree 28 and
    # jumps on: every slice still takes one block operation per degree,
    # and every faulted image reads 0.
    rng = np.random.default_rng(5)
    X = rng.standard_normal((600, 512))
    X[300, 400] = 1e300
    calls = _record_acts(monkeypatch)
    jumps = _record_jumps(monkeypatch)
    faults = {}
    for j0, r0, out, fault in operators.image_stream(Scale(2.0, BackwardShift()), X,
                                                     Monomials(100)):
        for (j, r), e in fault.items():
            assert not out[j, r].any()
            faults[j0 + j, r0 + r] = e
    assert calls == [(0, (256, 512 - 27))]
    assert len(jumps) == 299 and {n for n, _, _ in jumps} == {1}
    assert sorted(faults) == [(j, 300) for j in range(28, 101)]
    assert all(type(e) is NumericalOverflow and e.degree == 28 for e in faults.values())


@given(st.integers(0, 2 ** 30), st.integers(1, 6), st.sampled_from(sorted(FAMILIES)),
       st.integers(1, 3), st.sampled_from([1.0, 1e300]))
@settings(max_examples=100, deadline=None)
def test_faulted_images_read_zero(seed, dim, kind, batch, magnitude):
    # Forward shifts get no headroom and large rows overflow.
    rng = np.random.default_rng(seed)
    op, _ = random_operator(rng, dim)
    X = magnitude * rng.standard_normal((batch, dim))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "BLOCK_BYTES", 16 * dim * batch)
        for _, _, out, fault in operators.image_stream(op, X, FAMILIES[kind](rng)):
            for j, r in fault:
                assert not out[j, r].any()


def test_an_operator_that_does_not_fit_fails_every_row():
    # The weights cover 2 of the 3 indices a forward shift needs at dim 4.
    # The weight error comes first, also for the row that would overflow.
    shift = ForwardShift((1.0, 2.0))
    X = np.array([[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
    message = "forward shift: per-index weights cover 2 indices, need 3"
    with pytest.raises(ValueError, match=message):
        apply(shift, TruncVector(X[0]))
    out, fault = operators._images(shift, X, Monomials(2))
    assert sorted(fault) == [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert all(type(e) is ValueError and str(e) == message for e in fault.values())
    assert np.array_equal(out[0], X) and not out[1:].any()


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
    members = members_of(FAMILIES[kind](rng))
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
    polys = [ConvexPolynomial.monomial(0), ConvexPolynomial.monomial(1),
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
    out = images(Scale(2.0, BackwardShift()), x, [ConvexPolynomial.monomial(0)])
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
    # A sum of finite terms that overflows names the member's degree: the
    # unit sum is checked to 1e-12, so a convex sum can pass the float range.
    P = ConvexPolynomial((0.5, 0.0, 0.0, 0.5 + 5e-13))
    out, fault = operators._images(Identity(), np.array([[np.finfo(float).max]]), [P])
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
        got, _ = operators._act(shift, X)
        for r in range(len(X)):
            assert got[r].tobytes() == loop_apply(shift, X[r]).tobytes()


def test_weights_are_resolved_once_per_walk(monkeypatch):
    # A walk reads the per-index weights of dim 8,192 once, not once per
    # degree, and its images keep the loop's bits.
    rng = np.random.default_rng(2)
    dim = 8192
    op = BackwardShift(tuple(rng.uniform(0.9, 1.1, dim)))
    x = np.zeros((1, dim))
    x[0, 7000:] = rng.uniform(0.5, 1.5, dim - 7000)
    reads = []
    weight_array = operators._weight_array

    def counting(weight, count, label):
        reads.append(count)
        return weight_array(weight, count, label)

    monkeypatch.setattr(operators, "_weight_array", counting)
    got = images(op, x, Monomials(200))
    assert reads == [dim]
    members = Monomials(200).members()
    for j in (0, 1, 2, 100, 200):
        assert got[j, 0].tobytes() == loop_images(op, x[0], [members[j]])[0].tobytes()


@pytest.mark.parametrize("op", [
    BackwardShift(2j),
    Scale(1j, ForwardShift(tuple(np.linspace(-2.0, 2.0, 11) + 0.05))),
    DirectSum(Scale(1j, BackwardShift()), Identity(), split=5),
], ids=["backward", "scaled_forward", "direct_sum"])
def test_real_rows_through_a_complex_operator(op, monkeypatch):
    # The first step turns the real rows complex; the walk then resolves
    # the step again for complex rows (a unit shift multiplies them by
    # 1 + 0j) and still takes one step per degree.  The rows are
    # nonnegative, so no zero outside the window differs in sign from the
    # loop's (see the operators module).
    rng = np.random.default_rng(13)
    X = abs(_windowed_rows(rng, 12, [(3, 9), (5, 7), (0, 0)], False))
    members = Monomials(6).members() + tuple(_dense_rows(5))
    resolved = []
    calls = _record_acts(monkeypatch, resolved)
    out, fault = operators._images(op, X, members)
    assert resolved == [np.dtype(float), np.dtype(complex)]
    assert len(calls) == 6
    for r, x in enumerate(X):
        for j, P in enumerate(members):
            try:
                want = loop_images(op, x, [P])[0]
            except TruncationOverflow:
                assert isinstance(fault.get((j, r)), TruncationOverflow)
                continue
            assert (j, r) not in fault
            # A degree-0 member stays real in the loop.
            assert out[j, r].tobytes() == want.astype(out.dtype).tobytes()
    # The running power of a walk to each degree keeps the loop's bits in
    # its window, zero signs included: no accumulator absorbs them here.
    loop = list(X)
    for degree in range(1, 7):
        walk = operators._Walk(X)
        operators._images(op, X, Monomials(degree), walk)
        lo, hi = walk.lo, walk.lo + walk.power.shape[1]
        for r in np.flatnonzero(walk.failed_at > degree):
            loop[r] = loop_apply(op, loop[r])
            assert walk.power[r].tobytes() == loop[r][lo:hi].tobytes()


def _streamed(op, X, members, rows):
    """Every image of ``image_stream`` at a bound of ``rows`` rows (the
    default bound for None), as one array, and its faults described."""
    block = operators.BLOCK_BYTES if rows is None else 16 * X.shape[1] * rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "BLOCK_BYTES", block)
        stream = list(_flat(operators.image_stream(op, X, members)))
    got = np.array([w for _, _, w, _ in stream]).reshape((len(members),) + X.shape)
    return got, _describe({(j, r): e for j, r, _, e in stream if e is not None})


def _stepped(op, X, members, rows):
    """``_streamed`` with the closed form switched off: every degree steps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_dyadic_shift", lambda op: None)
        return _streamed(op, X, members, rows)


#: Monomials and sparse members whose degrees pass the truncation of 24.
SPARSE_MEMBERS = (Monomials(9).members()
                  + (ConvexPolynomial((0.25,) + (0.0,) * 3 + (0.5,) + (0.0,) * 4 + (0.25,)),
                     ConvexPolynomial((0.0,) * 13 + (0.75,) + (0.0,) * 6 + (0.25,)),
                     ConvexPolynomial.monomial(30)))


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("shift", [BackwardShift, ForwardShift])
@pytest.mark.parametrize("factor", [1.0, -1.0, 2.0, -2.0, 4.0])
def test_closed_form_walks_keep_the_stepped_bits(factor, shift, rows, monkeypatch):
    # f * S with weight 2 jumps in closed form.  Its images and faults are
    # the stepped walk's byte for byte, -0.0 entries included; a forward
    # window reaching the top index steps there and fails its row.
    rng = np.random.default_rng(17)
    X = abs(_windowed_rows(rng, 24, [(3, 9), (10, 21), (0, 24), (0, 0), (18, 24)], False))
    X[1, 12] = X[2, 5] = -0.0
    op = Scale(factor, shift(2.0))
    got, faults = _streamed(op, X, SPARSE_MEMBERS, rows)
    want, want_faults = _stepped(op, X, SPARSE_MEMBERS, rows)
    assert got.tobytes() == want.tobytes()
    assert faults == want_faults
    for r, x in enumerate(X):
        for j, P in enumerate(SPARSE_MEMBERS):
            try:
                loop = loop_images(op, x, [P])[0]
            except TruncationOverflow:
                assert faults[j, r][0] is TruncationOverflow
                continue
            assert (j, r) not in faults
            assert np.array_equal(got[j, r], loop)
            if not np.signbit(x).any():  # zero signs aside (see the operators module)
                assert got[j, r].tobytes() == loop.tobytes()
    if shift is BackwardShift:  # only the all-zero row's first step acts
        calls = _record_acts(monkeypatch)
        _streamed(op, X, SPARSE_MEMBERS, rows)
        assert all(shape[1] == 0 for _, shape in calls)


@pytest.mark.parametrize("op", [Scale(-2.0, BackwardShift(2.0)), Scale(4.0, ForwardShift())])
def test_the_closed_form_power_keeps_the_loop_bits(op):
    # The running power in its window after a walk to each degree, -0.0
    # entries and the signs of a negative factor included.
    X = np.zeros((2, 16))
    X[0, 3:8] = [1.5, -0.0, -2.0, 0.0, 3.0]
    X[1, 5:7] = [-0.0, 0.25]
    loop = list(X)
    for degree in range(1, 9):
        walk = operators._Walk(X)
        operators._images(op, X, [ConvexPolynomial.monomial(degree)], walk)
        lo, hi = walk.lo, walk.lo + walk.power.shape[1]
        for r in range(len(X)):
            loop[r] = loop_apply(op, loop[r])
            assert walk.power[r].tobytes() == loop[r][lo:hi].tobytes()


def test_overflow_at_and_past_the_jump_bound(monkeypatch):
    # Under 2 * (2B), e = 2: 1.5 * 2^1000 (frexp exponent 1001) stays
    # finite to degree 11 and overflows at 12; 1.5 * 2^998 one degree
    # later.  The walk jumps to degrees 5 and 11, then steps to 12 and 13,
    # where each row fails, and then every row has failed.
    X = np.zeros((2, 128))
    X[0, 100], X[1, 90] = 1.5 * 2.0 ** 1000, 1.5 * 2.0 ** 998
    op = Scale(2.0, BackwardShift(2.0))
    members = [ConvexPolynomial.monomial(d) for d in (5, 11, 12, 13, 14, 40)]
    calls = _record_acts(monkeypatch)
    jumps = _record_jumps(monkeypatch)
    out, fault = operators._images(op, X, members)
    assert jumps == [(5, 85, (2, 11)), (6, 79, (2, 11))]
    assert calls == [(79, (2, 11)), (78, (2, 11))]
    assert _describe(fault) == {
        **{(j, 0): (NumericalOverflow, str(NumericalOverflow(12)), 12) for j in (2, 3, 4, 5)},
        **{(j, 1): (NumericalOverflow, str(NumericalOverflow(13)), 13) for j in (3, 4, 5)}}
    assert out[1, 0, 89] == 1.5 * 2.0 ** 1022 and out[2, 1, 78] == 1.5 * 2.0 ** 1022
    monkeypatch.setattr(operators, "_dyadic_shift", lambda op: None)
    want, want_fault = operators._images(op, X, members)
    assert out.tobytes() == want.tobytes()
    assert _describe(fault) == _describe(want_fault)


def test_a_forward_window_reaching_the_top_at_the_jump_target(monkeypatch):
    # The window [2, 6) reaches index 15 = dim - 1 at degree 10, the jump
    # target; the step to degree 11 pushes mass past it.
    X = np.zeros((1, 16))
    X[0, 2:6] = [1.0, -0.0, 2.0, 3.0]
    calls = _record_acts(monkeypatch)
    jumps = _record_jumps(monkeypatch)
    members = [ConvexPolynomial.monomial(d) for d in (10, 11, 12)]
    out, fault = operators._images(ForwardShift(2.0), X, members)
    assert jumps == [(10, 12, (1, 4))] and calls == [(12, (1, 4))]
    assert sorted(fault) == [(1, 0), (2, 0)]
    assert all(type(e) is TruncationOverflow for e in fault.values())
    assert np.array_equal(out[0, 0], loop_images(ForwardShift(2.0), X[0], members[:1])[0])


@pytest.mark.parametrize("op, complex_field", [
    (Scale(2.0, Scale(0.5, BackwardShift())), False),  # 0.5 can round a subnormal
    (Scale(2.0, BackwardShift()), True),
    (Scale(2j, BackwardShift()), False),
    (BackwardShift((2.0,) * 12), False),
])
def test_other_ops_and_complex_rows_still_step(op, complex_field, monkeypatch):
    rng = np.random.default_rng(19)
    X = abs(_windowed_rows(rng, 12, [(4, 10), (6, 8)], False))
    X[0, 4] = 5e-324
    if complex_field:
        X = X * (1 + 1j)
    calls = _record_acts(monkeypatch)
    jumps = _record_jumps(monkeypatch)
    out, fault = operators._images(op, X, Monomials(6).members())
    assert jumps == [] and len(calls) == 6 and not fault
    for j, want in enumerate(loop_images(op, X[0], Monomials(6).members())):
        assert np.array_equal(out[j, 0], want)


def test_a_walk_within_the_bound_resolves_no_step(monkeypatch):
    # 2B on e_1100 at dim 1101 through degrees 300 and 1023: two jumps, and
    # the step is never even resolved.
    resolved = []
    calls = _record_acts(monkeypatch, resolved)
    jumps = _record_jumps(monkeypatch)
    x = TruncVector.basis(1100, 1101)
    members = [ConvexPolynomial.monomial(300), ConvexPolynomial.monomial(1023)]
    got = images(Scale(2.0, BackwardShift()), x.coords[None], members)
    assert resolved == calls == []
    assert jumps == [(300, 800, (1, 1)), (723, 77, (1, 1))]
    assert got[1, 0, 77] == 2.0 ** 1023


def _walked(op, X, members, rows, stepped=False):
    """``_streamed`` (``_stepped`` if ``stepped``), and the walk after each
    engine block as (degree, first column, window shape and bytes)."""
    walks = []
    engine = operators._images

    def recording(op, X, polys, walk=None):
        got = engine(op, X, polys, walk)
        walks.append((walk.degree, walk.lo, walk.power.shape, walk.power.tobytes()))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_images", recording)
        got = (_stepped if stepped else _streamed)(op, X, members, rows)
    return got, walks


EDGE_WINDOWS = st.sampled_from([(0, 3), (21, 24), (0, 24)])


@given(st.integers(0, 2 ** 30), st.sampled_from([0, 1, 2, 7]), st.booleans(),
       st.sampled_from([BackwardShift, ForwardShift]), st.sampled_from([1, 3, None]),
       st.integers(1, 30), st.integers(-3, 3),
       st.lists(st.one_of(st.tuples(st.integers(0, 24), st.integers(0, 24)), EDGE_WINDOWS),
                min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_runs_keep_the_stepped_bits(seed, e, negative, shift, rows, degree, slack, windows):
    # A walk under +-2^e S adds each run of Monomials(30) in one strided
    # view.  Its images, faults and window after every block are the
    # stepped walk's byte for byte, -0.0 entries and windows at both edges
    # included.  One row's peak lies within a few units of the bound at a
    # degree inside the family, so for e > 0 a run stops mid-block there.
    rng = np.random.default_rng(seed)
    X = _windowed_rows(rng, 24, windows, False)
    X[rng.random(X.shape) < 0.2] = -0.0
    r = int(rng.integers(len(X)))
    if e and X[r].any():
        peak = np.frexp(abs(X[r]).max())[1]
        X[r] = np.ldexp(X[r], min(1024, 1024 - e * degree + slack) - peak)
    split = int(rng.integers(e + 1))  # 2^e as a factor times a weight
    op = Scale((-1.0 if negative else 1.0) * 2.0 ** (e - split), shift(2.0 ** split))
    assert operators._dyadic_shift(op) == (shift is BackwardShift, negative, e)
    members = Monomials(30).members()
    (got, faults), walks = _walked(op, X, members, rows)
    (want, want_faults), want_walks = _walked(op, X, members, rows, stepped=True)
    assert got.tobytes() == want.tobytes()
    assert faults == want_faults
    assert walks == want_walks


def test_a_run_stops_where_its_scale_factor_would_leave_the_float_range(monkeypatch):
    # Under 2^7 B the subnormal 5e-324 (frexp exponent -1073) stays finite
    # to degree 299, but 2^(7k) is finite only for k <= 146: the run of
    # Monomials(200) stops there and a second run goes on to 200.
    x = np.zeros((1, 256))
    x[0, 250] = 5e-324
    op = Scale(128.0, BackwardShift())
    jumps = _record_jumps(monkeypatch)
    got, faults = _streamed(op, x, Monomials(200).members(), None)
    assert jumps == [(146, 104, (1, 1)), (54, 50, (1, 1))]
    want, want_faults = _stepped(op, x, Monomials(200).members(), None)
    assert got.tobytes() == want.tobytes() and faults == want_faults == {}
    assert got[200, 0, 50] == 2.0 ** (7 * 200 - 1074)


#: Constant terms of tables whose accumulators start from runs of equal
#: bits: +0.0 only, both zero signs, nonzero runs, runs of one member and
#: one member with c != 0 (the last two written by the outer product).
SETUP_CONSTANTS = {
    "all_plus_zero": (0.0,) * 6,
    "mixed_zeros": (0.0, 0.0, -0.0, -0.0, -0.0, 0.0),
    "nonzero_runs": (0.25, 0.25, 0.25, 0.5, 0.5, 0.0),
    "alternating": (0.0, 0.5) * 3,
    "distinct": (0.0, -0.0, 0.125, 0.25, 0.5, 0.75),
    "one_member": (0.75,),
}


def _setup_table(constants):
    """Member j: the constant c_j plus (1 - c_j) T^(j + 1), so each later
    member block resumes its row slice's walk."""
    n = len(constants)
    return operators.TermTable(np.arange(1, n + 1), constants, np.arange(n + 1),
                               np.arange(1, n + 1), [1.0 - c for c in constants], None)


def _setup_rows(complex_field):
    """Rows with negative and -0.0 entries, and a row of -0.0 only."""
    X = np.full((3, 12), -0.0)
    X[0, 2:9] = [1.5, -0.0, -2.0, 0.0, 3.0, -0.25, 7.0]
    X[1, 4:7] = [-0.0, -1.0, 0.5]
    if complex_field:
        X = X.astype(np.complex128)
        X.imag[0, 3:7] = [-0.0, 2.0, -3.5, 0.0]
        X.imag[2] = -0.0
    return X


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("op", [Scale(2.0, BackwardShift()), Scale(-1.5, ForwardShift())])
@pytest.mark.parametrize("kind", sorted(SETUP_CONSTANTS))
def test_accumulators_start_with_the_bits_of_the_outer_product(
        kind, op, complex_field, rows, monkeypatch):
    # One product per run of equal constants, copied down the run, gives
    # the zero signs of c_j X; so do the images of a fresh walk and of a
    # resumed one, where every member block starts its accumulators anew.
    constants = np.array(SETUP_CONSTANTS[kind])
    X = _setup_rows(complex_field)
    got = operators._accumulators(constants, X)
    want = outer_accumulators(constants, X)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    table = _setup_table(constants)
    fresh, fresh_fault = operators._images(op, X, table)
    streamed, streamed_faults = _streamed(op, X, table, rows)
    monkeypatch.setattr(operators, "_accumulators", outer_accumulators)
    want, want_fault = operators._images(op, X, table)
    assert fresh.dtype == want.dtype and fresh.tobytes() == want.tobytes()
    assert _describe(fresh_fault) == _describe(want_fault)
    want, want_faults = _streamed(op, X, table, rows)
    assert streamed.dtype == want.dtype and streamed.tobytes() == want.tobytes()
    assert streamed_faults == want_faults
