"""The criterion checkers, the builder and the density and transitivity
diagnostics walk blocks of rows through the engine and measure each block
at once; they must give exactly what the serial per-vector and per-image
loops give: equal verdicts bit for bit, and the same error first."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexcyclic import (BackwardShift, BallPair, ConvexPolynomial,
                          CriterionInstance, DirectSum, ExplicitRecovery,
                          ForwardShift, IndexSet, Monomials, Scale,
                          ShiftRecovery, TruncVector,
                          build_cyclic_vector, check_criterion_I,
                          check_criterion_II, criteria, density_score,
                          materialize_subspace, norm, operators,
                          transitivity_search)
from convexcyclic.gallery import build_entry, entry_lemma_5_1, entry_prop_4_8
from oracles import (OPERATOR_KINDS, backward_jumps, random_convex_poly,
                     random_operator, serial_build, serial_criterion_I,
                     serial_criterion_II, serial_density, serial_transitivity)

#: Every spec kind, unit-weight shifts (copied, not multiplied), a scale
#: whose powers leave the float range, and a direct sum whose blocks leave
#: it at different degrees.
KINDS = OPERATOR_KINDS + ("unit_backward", "unit_forward", "scale_overflow",
                          "split_overflow")


def _operator(rng, dim, complex_field, kind):
    if kind == "unit_backward":
        return BackwardShift(1.0)
    if kind == "unit_forward":
        return ForwardShift(1.0)
    phase = 1j if complex_field else -1.0
    if kind == "scale_overflow":
        return Scale(1e150 * phase, random_operator(rng, dim, complex_field)[0])
    if kind == "split_overflow":
        split = int(rng.integers(1, dim))
        return DirectSum(Scale(1e110 * phase, random_operator(rng, split, complex_field)[0]),
                         Scale(1e160, random_operator(rng, dim - split, complex_field)[0]),
                         split)
    return random_operator(rng, dim, complex_field, kind=kind)[0]


def _span_vector(rng, dim, span, p, complex_field):
    scale = float(rng.choice([1.0, 1e-3, 1e150, 1e300]))
    coords = np.zeros(dim, dtype=complex if complex_field else float)
    coords[span] = rng.standard_normal(len(span)) * scale
    if complex_field:
        coords[span] += 1j * rng.standard_normal(len(span)) * scale
    coords[span] *= rng.random(len(span)) < 0.8
    return TruncVector(coords, p=p)


def _instance(seed, kind, complex_field):
    """A small random instance; forward shifts overflow the truncation
    whenever a vector has mass at the top index of the span."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 10))
    p = float(rng.choice([1.0, 2.0, 3.0]))
    span = sorted(rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=False))
    # Targets low in the span leave shift recovery room below the top.
    low = [i for i in span if i < dim - 4] if rng.random() < 0.5 else []

    def vectors(count, field=complex_field, support=span):
        return tuple(_span_vector(rng, dim, support, p, field) for _ in range(count))

    polys = tuple(random_convex_poly(rng, 4) for _ in range(int(rng.integers(1, 5))))
    rule = rng.choice(["shift", "explicit", "none"], p=[0.45, 0.45, 0.1])
    if rule == "shift":
        recovery = ShiftRecovery(complex(0, 2) if complex_field else
                                 float(rng.choice([2.0, 0.5, -1.5])))
    elif rule == "explicit":
        # Mixed fields: real rows walk in one block with complex ones.
        entries = [None if rng.random() < 0.15 else
                   vectors(1, complex_field and rng.random() < 0.5)[0]
                   for _ in range(int(rng.integers(len(polys) - 1, len(polys) + 2)))]
        recovery = ExplicitRecovery(tuple(entries))
    else:
        recovery = None
    inst = CriterionInstance(op=_operator(rng, dim, complex_field, kind),
                             subspace=IndexSet(tuple(int(i) for i in span)),
                             dim=dim, X=vectors(int(rng.integers(0, 4))),
                             Y=vectors(int(rng.integers(1, 4)), support=low or span),
                             polys=polys,
                             recovery=recovery)
    knobs = {"horizon": int(rng.integers(1, len(polys) + 1)),
             "tol": float(rng.choice([1e-9, 1e-3, 1.0, 1e300])),
             "j_max": int(rng.integers(1, 4)),
             "c": float(rng.choice([1.0, 1e3, 1e300])),
             "k_step": int(rng.integers(1, 4))}
    return inst, knobs


def _outcome(fn, *args, **kwargs):
    """A result as comparable bits, or the raised error's type, message
    and attributes."""
    try:
        result = fn(*args, **kwargs)
    except Exception as err:
        return ("raised", type(err), str(err), repr(sorted(vars(err).items())))
    if hasattr(result, "x"):
        return ("built", result.x.coords.dtype, result.x.coords.tobytes(),
                result.x.p, repr(result.steps))
    return ("verdict", repr(result))


def _run_all(checks, inst, knobs):
    h, tol = knobs["horizon"], knobs["tol"]
    check_I, check_II, build = checks
    return [_outcome(check_I, inst, h, tol), _outcome(check_II, inst, h, tol),
            _outcome(build, inst, knobs["j_max"], knobs["c"], k_step=knobs["k_step"])]


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("kind", KINDS)
@given(seed=st.integers(0, 2 ** 32 - 1), complex_field=st.booleans())
@settings(max_examples=25, deadline=None)
def test_batched_checks_match_the_serial_loops(rows, kind, seed, complex_field):
    inst, knobs = _instance(seed, kind, complex_field)
    want = _run_all((serial_criterion_I, serial_criterion_II, serial_build), inst, knobs)
    block = operators.BLOCK_BYTES if rows is None else rows * inst.dim * 16
    with mock.patch.object(operators, "BLOCK_BYTES", block):
        got = _run_all((check_criterion_I, check_criterion_II, build_cyclic_vector),
                       inst, knobs)
    assert got == want


def _record_acts(monkeypatch) -> list:
    """The window, as (first column, block shape), of every later call of
    an outermost resolved step: one per engine step."""
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

        def counting(X, lo):
            calls.append((lo, X.shape))
            return step(X, lo)
        return counting, out_dtype

    monkeypatch.setattr(operators, "_stepper", outermost)
    return calls


def test_criterion_II_walks_X_once_and_the_recovery_vectors_once(monkeypatch):
    # lemma_5_1's polys have degrees 15, 56, 97 and 212; the per-vector
    # loops cost 2 * 12 * 212 (X) + 4 * 380 (recovery) = 6,608 applications.
    # Under 2B each of the two walks jumps in closed form to each of the
    # four degrees over its live window, and steps nowhere: the X window
    # [19, 110) is empty at degree 212, the recovery window is not.
    entry = entry_lemma_5_1()
    inst = entry.instance
    calls = _record_acts(monkeypatch)
    jumps = _record_jumps(monkeypatch)
    verdict = check_criterion_II(inst, entry.horizon, entry.tol)
    assert verdict.all_passed
    X = np.array([x.coords for x in inst.X])
    recovery = np.array([inst.recovery_vector(y, k).coords
                         for k in range(1, 5) for y in range(len(inst.Y))])
    assert X.shape == (12, 512) and recovery.shape == (16, 512)
    degrees = [P.degree for P in inst.polys]
    assert degrees == [15, 56, 97, 212]
    assert calls == []
    assert jumps == backward_jumps(X, degrees) + backward_jumps(recovery, degrees)
    assert len(jumps) == 8 and jumps[3] == (115, 0, (12, 0))
    assert all(shape[1] < 512 for _, _, shape in jumps)


def _record_cond2_kernels(monkeypatch) -> dict:
    """The rows of every ``row_norms``, the (target, rows) of every
    ``target_distances`` and the calls of ``row_distance`` made by
    ``criteria``, and the images of every engine block it reads."""
    seen = {"norms": [], "distances": [], "row_distance": 0, "images": 0}
    row_norms, target_distances = criteria.row_norms, criteria.target_distances
    row_distance, image_stream = criteria.row_distance, criteria.image_stream

    def norms(rows, p):
        seen["norms"].append(len(rows))
        return row_norms(rows, p)

    def distances(rows, p, targets):
        seen["distances"].append((tuple(targets), len(rows)))
        return target_distances(rows, p, targets)

    def distance(*args):
        seen["row_distance"] += 1
        return row_distance(*args)

    def stream(*args):
        for block in image_stream(*args):
            seen["images"] += block[2].shape[0] * block[2].shape[1]
            yield block

    monkeypatch.setattr(criteria, "row_norms", norms)
    monkeypatch.setattr(criteria, "target_distances", distances)
    monkeypatch.setattr(criteria, "row_distance", distance)
    monkeypatch.setattr(criteria, "image_stream", stream)
    return seen


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("name", ["lemma_5_1", "example_5_4"])
def test_condition_2_measures_only_the_diagonal_images(monkeypatch, name, rows):
    # Row (y, k) is read at member k only: |Y| * horizon images, each
    # measured once against its own target, and no image one at a time.
    entry = build_entry(name)
    inst, horizon = entry.instance, entry.horizon
    want = criteria._check_cond2(inst, horizon, entry.tol)
    block = operators.BLOCK_BYTES if rows is None else rows * inst.dim * 16
    monkeypatch.setattr(operators, "BLOCK_BYTES", block)
    seen = _record_cond2_kernels(monkeypatch)
    assert repr(criteria._check_cond2(inst, horizon, entry.tol)) == repr(want)
    diagonal = len(inst.Y) * horizon
    assert seen["row_distance"] == 0
    assert sum(seen["norms"]) == diagonal
    assert sum(count for _, count in seen["distances"]) == diagonal
    for target in inst.Y:
        assert sum(count for targets, count in seen["distances"]
                   if targets == (target,)) == horizon
    if rows is None and name == "lemma_5_1":
        assert seen["norms"] == [16]
        assert seen["distances"] == [((y,), 4) for y in inst.Y]
    if rows is None and name == "example_5_4":
        assert (diagonal, seen["images"]) == (48, 384)


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


def test_rows_walked_past_their_degree_overflow_without_warnings():
    # Row (y, k=1) of condition 2 walks on to degree 3 with the others; its
    # power 4^3 * 1e307 overflows there, but it only needs degree 1.
    dim = 8
    top = TruncVector.basis(dim - 1, dim) * 1e307
    inst = CriterionInstance(
        op=Scale(4.0, BackwardShift()), subspace=IndexSet(tuple(range(dim))),
        dim=dim, X=(), Y=(TruncVector.basis(0, dim),),
        polys=(ConvexPolynomial.monomial(1), ConvexPolynomial.monomial(3)),
        recovery=ExplicitRecovery((top, TruncVector.basis(3, dim) * (1 / 64))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = check_criterion_II(inst, 2, 1e-9)
    norms, errors = verdict.cond2.decay[0]
    assert errors[1] == 0.0 and errors[0] > 1e307


def test_invariance_raises_the_first_failing_row_of_the_first_failing_k():
    # Left block e_0..e_3 under 1e110 B leaves the float range at degree 3
    # (from e_3), right block e_4..e_7 under 1e160 B at degree 2 (from e_6).
    # k = 1 (degree 2) fails only on e_6 and e_7, which come after e_3.
    dim = 8
    zero = TruncVector.zeros(dim)
    inst = CriterionInstance(
        op=DirectSum(Scale(1e110, BackwardShift()), Scale(1e160, BackwardShift()), 4),
        subspace=IndexSet(tuple(range(dim))), dim=dim, X=(), Y=(zero,),
        polys=(ConvexPolynomial.monomial(2), ConvexPolynomial.monomial(3)),
        recovery=ExplicitRecovery((zero, zero)))
    for rows in (1, 3, None):
        block = operators.BLOCK_BYTES if rows is None else rows * dim * 16
        with mock.patch.object(operators, "BLOCK_BYTES", block):
            got = _outcome(check_criterion_I, inst, 2, 1e-9)
        assert got == _outcome(serial_criterion_I, inst, 2, 1e-9)
        assert got[2].endswith("at degree 2")


def _diagnostic_case(seed, kind, complex_field):
    """A small operator, a span, and vectors in it; forward shifts without
    headroom and rows near 1e300 make images fail, and a foreign exponent
    makes distances raise."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 10))
    p = float(rng.choice([1.0, 2.0, 3.0]))
    span = sorted(int(i) for i in rng.choice(dim, size=int(rng.integers(1, dim + 1)),
                                             replace=False))
    m = IndexSet(tuple(span))

    def vector(q=p):
        return _span_vector(rng, dim, span, q, complex_field and rng.random() < 0.7)

    x = vector()
    targets = [vector(p if rng.random() < 0.9 else p + 1.0)
               for _ in range(int(rng.integers(1, 4)))]
    pairs = [BallPair(vector(), vector(), float(rng.choice([0.5, 3.0, 1e300])))
             for _ in range(int(rng.integers(1, 3)))]
    shape, count = int(rng.integers(0, 3)), int(rng.integers(1, 7))
    # Monomials, or a plain sequence: dense rows with a term at every
    # degree, or random convex polynomials.
    family = (Monomials(count - 1) if shape == 0 else
              [ConvexPolynomial((1.0 / (k + 1),) * (k + 1)) for k in range(count)]
              if shape == 1 else [random_convex_poly(rng, 3) for _ in range(count)])
    return _operator(rng, dim, complex_field, kind), m, x, targets, pairs, family


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("kind", KINDS)
@given(seed=st.integers(0, 2 ** 32 - 1), complex_field=st.booleans())
@settings(max_examples=25, deadline=None)
def test_block_diagnostics_match_the_image_loops(rows, kind, seed, complex_field):
    # 5 samples per ball: at a bound of 1 or 3 rows a pair's samples walk
    # in row slices, one member per block.
    op, spec, x, targets, pairs, family = _diagnostic_case(seed, kind, complex_field)
    m = materialize_subspace(spec, x.dim)
    want = [_outcome(serial_density, op, x, m, family, targets, 1e-2),
            _outcome(serial_transitivity, op, m, pairs, family, 5, seed % 1000)]
    block = operators.BLOCK_BYTES if rows is None else rows * x.dim * 16
    with mock.patch.object(operators, "BLOCK_BYTES", block):
        got = [_outcome(density_score, op, x, m, family, targets, 1e-2),
               _outcome(transitivity_search, op, m, pairs, family, 5, seed % 1000)]
    assert got == want


@pytest.mark.parametrize("rows", [1, 3, None])
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 100.0]),
       c=st.sampled_from([0.5, 0.999, 1.0, 1.0 + 2.0 ** -40, 1.001, 2.0, -1.0]),
       e=st.integers(-1080, 1020) | st.integers(-4, 4))
@example(seed=0, p=1.0, c=2.0, e=1017)
@settings(max_examples=60, deadline=None)
def test_density_measures_every_image_that_can_be_nearest(rows, seed, p, c, e):
    # The orbit c^n x has a continuum of norms, so density's norm bounds
    # decide which images it measures; targets sit on orbit points, a hair
    # off them (near ties) and at random, at scales from subnormal to near
    # the float range, where underflowed terms and overflowing differences
    # test the bounds' margins.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 7))
    span = sorted(int(i) for i in rng.choice(dim, size=int(rng.integers(1, dim + 1)),
                                             replace=False))
    m = materialize_subspace(IndexSet(tuple(span)), dim)
    coords = np.zeros(dim)
    coords[span] = np.ldexp(rng.standard_normal(len(span)), e)
    x = TruncVector(coords, p=p)
    op = Scale(c, operators.Identity())
    targets = []
    for _ in range(int(rng.integers(1, 5))):
        y = np.zeros(dim)
        kind = int(rng.integers(0, 3))
        # A target past the float range reads inf and is dropped below.
        with np.errstate(over="ignore"):
            if kind < 2:
                y[span] = coords[span] * c ** int(rng.integers(0, 8))
                y[span] *= 1.0 + (1e-13 * rng.standard_normal(len(span)) if kind else 0.0)
            else:
                y[span] = np.ldexp(rng.standard_normal(len(span)),
                                   int(rng.integers(-1080, 1020)))
        if np.isfinite(y).all():
            targets.append(TruncVector(y, p=p))
    if not targets:
        return
    family = Monomials(int(rng.integers(0, 40)))
    want = _outcome(serial_density, op, x, m, family, targets, 1e-2)
    block = operators.BLOCK_BYTES if rows is None else rows * dim * 16
    with mock.patch.object(operators, "BLOCK_BYTES", block):
        assert _outcome(density_score, op, x, m, family, targets, 1e-2) == want


@pytest.mark.parametrize("rows", [1, None])
@pytest.mark.parametrize("case", ["underflow", "overflow"])
def test_density_norm_bounds_keep_their_margins(rows, case):
    # underflow: at p = 100, ||2^n 1e-4|| reads 0 (its 100th power
    # underflows), so | ||w|| - ||y|| | = 1 exceeds the distances 0.9999 and
    # 0.9998 to y = 1; only the underflow margin keeps member 1 measured.
    # overflow: member 0 lies 1e306 from y, ten times closer than the norm
    # gap of member 1 (0.9e308), whose difference to y overflows: density
    # must measure it and raise, as the loop does.
    if case == "underflow":
        op, x, y = Scale(2.0, operators.Identity()), [1e-4], [1.0]
    else:
        op, x, y = Scale(-0.9 / 0.99, operators.Identity()), [-0.99e308], [-1e308]
    p = 100.0 if case == "underflow" else 2.0
    m = materialize_subspace(IndexSet((0,)), 1)
    args = (op, TruncVector(np.array(x), p=p), m, Monomials(1),
            [TruncVector(np.array(y), p=p)], 1e-2)
    want = _outcome(serial_density, *args)
    assert want[0] == ("verdict" if case == "underflow" else "raised")
    block = operators.BLOCK_BYTES if rows is None else rows * 16
    with mock.patch.object(operators, "BLOCK_BYTES", block):
        assert _outcome(density_score, *args) == want


def test_a_search_past_one_block_of_samples_matches_the_image_loop(monkeypatch):
    # prop_4_8's first cross-gap pair finds nothing.  At dim 1024 a block
    # holds 128 rows, so 300 samples walk in slices of 128, 128 and 44,
    # each carried through Monomials(8): 3 x 8 closed-form jumps of one
    # degree under 2B, and no step.
    entry = entry_prop_4_8()
    m = materialize_subspace(entry.subspace, entry.dim)
    args = (entry.op, m, entry.pairs[:1], entry.family, 300, 5)
    assert operators.block_rows(entry.dim) == 128
    want = serial_transitivity(*args)
    calls = _record_acts(monkeypatch)
    jumps = _record_jumps(monkeypatch)
    got = transitivity_search(*args)
    assert not got.per_pair[0].found
    assert repr(got) == repr(want)
    assert calls == []
    assert sorted(shape[0] for _, _, shape in jumps) == [44] * 8 + [128] * 16
    assert {n for n, _, _ in jumps} == {1}


def test_a_builder_candidate_is_scored_in_one_walk(monkeypatch):
    # Step 2 of lemma_5_1's builder: the candidate xc and the step-1
    # summand x_1 walk together through P_{k_1} and P, in closed form under
    # 2B: one jump to each degree over their live window.  A second walk of
    # xc through P_{k_1} would repeat the jump to P_{k_1}'s degree.
    inst = entry_lemma_5_1().instance
    steps = build_cyclic_vector(inst, 2).steps
    k1, k2 = steps[0].k, steps[1].k
    xc, x1 = inst.recovery_vector(1, k2), inst.recovery_vector(0, k1)
    calls = _record_acts(monkeypatch)
    jumps = _record_jumps(monkeypatch)
    bound = criteria._four_term_bound(inst, xc, norm(xc), inst.Y[1], inst.poly(k2),
                                     [k1], [x1])
    assert bound == steps[1].four_term_bound
    assert inst.poly(k1).degree < inst.poly(k2).degree
    assert calls == []
    assert jumps == backward_jumps(np.array([xc.coords, x1.coords]),
                                   [inst.poly(k1).degree, inst.poly(k2).degree])
