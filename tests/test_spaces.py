"""Vectors, norms, subspace materialization, projection and distances."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexcyclic import (BasisIndexSet, ConvexPolynomial, CriterionInstance,
                          DimensionMismatch, DimensionTooSmall,
                          DirectSumFactor, Identity, IndexSet, IntervalFamily,
                          NumericalOverflow, ParityZero, RecursiveSpan,
                          TruncVector, distance_to_subspace,
                          materialize_subspace, membership_tolerance, norm)
from convexcyclic.spaces import (MEMBERSHIP_RTOL, off_span_norms, outside_span,
                                 row_norms, row_tolerances, target_distances)
from oracles import row_distance


def scalar_loop_norm(coords, p):
    return sum(abs(c) ** p for c in coords) ** (1.0 / p)


class TestNorm:
    def test_unit_basis_vector(self):
        assert norm(TruncVector.basis(0, 8)) == 1.0

    def test_zero_vector(self):
        assert norm(TruncVector.zeros(5)) == 0.0

    def test_three_four_five(self):
        v = TruncVector(np.array([3.0, 4.0, 0.0, 0.0]))
        assert math.isclose(norm(v), 5.0, rel_tol=1e-15)
        assert math.isclose(norm(v), scalar_loop_norm(v.coords, 2.0), rel_tol=1e-14)

    def test_p_one_and_three(self):
        coords = np.array([1.0, -2.0, 0.5])
        for p in (1.0, 3.0):
            v = TruncVector(coords, p=p)
            assert math.isclose(norm(v), scalar_loop_norm(coords, p), rel_tol=1e-12)

    def test_complex_norm(self):
        v = TruncVector(np.array([3.0 + 4.0j, 0.0j]))
        assert math.isclose(norm(v), 5.0, rel_tol=1e-15)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            TruncVector(np.ones(3), p=0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TruncVector(np.array([1.0, np.inf]))


class TestMaterialize:
    def test_recursive_stage_three(self):
        spec = RecursiveSpan((0, 1, 3, 9), depth=3)
        m = materialize_subspace(spec, 16)
        assert m.indices == (0, 1, 3, 4, 9, 10, 12, 13)

    def test_parity_even_zero(self):
        m = materialize_subspace(ParityZero("even"), 6)
        assert m.indices == (1, 3, 5)

    def test_parity_odd_zero(self):
        m = materialize_subspace(ParityZero("odd"), 6)
        assert m.indices == (0, 2, 4)

    def test_empty_index_set(self):
        m = materialize_subspace(IndexSet(()), 4)
        assert m.indices == ()

    def test_interval_family(self):
        spec = IntervalFamily((1, 5), (2, 7))
        assert materialize_subspace(spec, 10).indices == (1, 2, 5, 6, 7)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            IntervalFamily((1, 3), (3, 5))  # end must stay below next start

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            materialize_subspace(RecursiveSpan((0, 1, 3, 9), depth=3), 12)
        with pytest.raises(DimensionTooSmall):
            materialize_subspace(IndexSet((0, 5)), 5)
        with pytest.raises(DimensionTooSmall):
            materialize_subspace(IntervalFamily((2,), (6,)), 6)

    def test_recursive_offset_growth_enforced(self):
        with pytest.raises(ValueError):
            RecursiveSpan((0, 1, 2), depth=2)  # 2 <= 2*(0+1)

    def test_direct_sum_factor_blocks(self):
        left = materialize_subspace(DirectSumFactor(0, split=3), 8)
        right = materialize_subspace(DirectSumFactor(1, split=3), 8)
        assert left.indices == (0, 1, 2)
        assert right.indices == (3, 4, 5, 6, 7)

    def test_direct_sum_factor_inner(self):
        spec = DirectSumFactor(1, split=4, inner=ParityZero("even"))
        assert materialize_subspace(spec, 10).indices == (5, 7, 9)


class TestProjectAndDistance:
    def test_project_outside_vector_vanishes(self):
        # Nothing of v lies in the span, so its distance is its whole norm.
        m = BasisIndexSet((0, 1, 3, 4), 8)
        v = 3.0 * TruncVector.basis(2, 8) + 4.0 * TruncVector.basis(5, 8)
        assert math.isclose(distance_to_subspace(v, m), 5.0, rel_tol=1e-15)

    def test_member_unchanged(self):
        m = BasisIndexSet((0, 1, 3, 4), 8)
        v = TruncVector.basis(3, 8) + 2.0 * TruncVector.basis(0, 8)
        assert distance_to_subspace(v, m) == 0.0

    def test_coordinate_selection(self):
        # Only the coordinates outside the index set count.
        m = BasisIndexSet((1,), 4)
        v = TruncVector(np.array([3.0, 7.0, 4.0, 0.0]))
        assert math.isclose(distance_to_subspace(v, m), 5.0, rel_tol=1e-15)

    def test_distance_of_basis_vector(self):
        m = BasisIndexSet((0, 1, 3, 4), 8)
        v = TruncVector.basis(2, 8)
        assert math.isclose(distance_to_subspace(v, m), 1.0, rel_tol=1e-15)
        off = [c for i, c in enumerate(v.coords) if i not in (0, 1, 3, 4)]
        assert math.isclose(distance_to_subspace(v, m),
                            scalar_loop_norm(off, 2.0), rel_tol=1e-14)

    def test_distance_of_member_is_zero(self):
        m = BasisIndexSet((0, 1, 3, 4), 8)
        assert distance_to_subspace(TruncVector.basis(4, 8), m) == 0.0

    def test_mixed_distance(self):
        m = BasisIndexSet((0,), 4)
        v = TruncVector.basis(0, 4) + TruncVector.basis(2, 4)
        assert math.isclose(distance_to_subspace(v, m), 1.0, rel_tol=1e-15)

    def test_dimension_mismatch(self):
        m = BasisIndexSet((0,), 4)
        with pytest.raises(DimensionMismatch):
            distance_to_subspace(TruncVector.zeros(5), m)

    def test_row_distance_overflow(self):
        y = TruncVector(np.array([0.0, -1.7e308]))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalOverflow, match="distance") as info:
                row_distance(np.array([0.0, 1.7e308]), 2.0, y)
        assert isinstance(info.value, ValueError) and info.value.degree is None

    def test_membership_tolerance_scales(self):
        m = BasisIndexSet((0,), 2)
        almost = TruncVector(np.array([1.0, 1e-12]))
        assert distance_to_subspace(almost, m) <= membership_tolerance(almost)
        off = TruncVector(np.array([1.0, 1e-6]))
        assert distance_to_subspace(off, m) > membership_tolerance(off)

    def test_overflowing_norm_keeps_a_finite_tolerance(self):
        # ||w||_1 = 2^1004 * 2^20 overflows, so rtol * ||w|| was inf and
        # admitted the off-span entry 2^1004 = 1.7e302.
        w = np.ldexp(np.array([767156.0, 0.0, -281419.0, 1.0]), 1004)
        v = TruncVector(w, p=1.0)
        m = BasisIndexSet((0, 2), 4)
        assert math.isinf(norm(v))
        tol = membership_tolerance(v)
        assert math.isclose(tol, math.ldexp(MEMBERSHIP_RTOL, 1024), rel_tol=1e-12)
        assert row_tolerances(w[None], 1.0, MEMBERSHIP_RTOL)[0] == tol
        assert distance_to_subspace(v, m) > tol
        with pytest.raises(ValueError, match="outside the subspace"):
            CriterionInstance(op=Identity(), subspace=IndexSet((0, 2)), dim=4,
                              X=(v,), Y=(), polys=(ConvexPolynomial.monomial(0),))

    def test_norm_of_overflowing_row_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isclose(norm(TruncVector(np.array([3e300, 4e300]))), 5e300,
                                rel_tol=1e-15)

    def test_norm_of_huge_finite_row_is_finite(self):
        # The plain sum of squares overflows above about 1.3e154.
        row = np.array([3e300, 4e300])
        with np.errstate(over="ignore"):
            assert math.isclose(norm(TruncVector(row)), 5e300, rel_tol=1e-15)
            assert math.isclose(off_span_norms(row[None], np.array([True, False]), 2.0)[0],
                                4e300, rel_tol=1e-15)


class TestNormKernel:
    """Rows are measured from their real parts, whatever their dtype."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
           st.sampled_from([1.0, 1e-200, 1e200]), st.sampled_from([1.0, 2.0, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_real_row_has_numpys_bits_stored_either_way(self, seed, size, scale, p):
        # Rows of about 1e200 overflow the plain sum at p = 2 and 3 and
        # take the rescale path; numpy's own norm is then inf.
        row = np.random.default_rng(seed).standard_normal(size) * scale
        got = row_norms(row[None], p)[0]
        assert row_norms(row.astype(np.complex128)[None], p)[0].hex() == got.hex()
        with np.errstate(over="ignore"):
            plain = float(np.linalg.norm(row, ord=p))
        if math.isfinite(plain):
            assert got.hex() == plain.hex()
        else:
            assert math.isfinite(got) and scale == 1e200

    def test_complex_row_past_the_float_range_has_norm_inf(self):
        # |1.5e308 (1 + i)| is past the float range; max|c| was inf and
        # c / max|c| NaN.
        row = np.array([1.5e308 + 1.5e308j, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (1.0, 2.0, 3.0):
                assert row_norms(row[None], p)[0] == math.inf

    def test_complex_row_past_the_float_range_keeps_a_finite_tolerance(self):
        row = np.array([1.5e308 + 1.5e308j, 0.0])
        for p in (1.0, 2.0):
            tol = row_tolerances(row[None], p, MEMBERSHIP_RTOL)[0]
            assert math.isclose(tol, MEMBERSHIP_RTOL * math.sqrt(2) * 1.5e308,
                                rel_tol=1e-15)


def dot_norm(coords, p):
    """One row's norm by the one-row formula: numpy's norm at p != 2, and
    sqrt of ``x.dot(x)`` over contiguous real parts at p = 2, measured
    again as s * ||c / s|| when the plain sum overflows."""
    with np.errstate(over="ignore"):
        if p != 2:
            result = float(np.linalg.norm(coords, ord=p))
        elif np.iscomplexobj(coords):
            re, im = np.array(coords.real), np.array(coords.imag)
            result = math.sqrt(re.dot(re) + im.dot(im))
        else:
            x = np.array(coords)
            result = math.sqrt(x.dot(x))
    if math.isinf(result) and np.all(np.isfinite(coords)):
        parts = np.array(coords).view(np.float64)
        top = float(np.max(np.abs(parts)))
        result = top * dot_norm((parts / top).view(coords.dtype), p)
    return result


def _blocks(rng, width, complex_field):
    """Row blocks of one width: plain, with all-zero rows, near 1e200 (the
    rescale path), and strided views (every other row, every other column,
    Fortran order)."""
    W = rng.standard_normal((6, width))
    if complex_field:
        W = W + 1j * rng.standard_normal((6, width))
    zeros = W.copy()
    zeros[[0, 3]] = 0
    huge = W * 1e200
    wide = np.repeat(W, 2, axis=1)
    yield from (W, zeros, huge, W[::2], wide[:, ::2], np.asfortranarray(W),
                huge[1::2, :])


class TestRowNorms:
    """The batched kernel gives every row the bits of its one-row norm."""

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("width", [1, 2, 3, 7, 64, 129, 1000, 4097])
    def test_every_row_has_its_one_row_bits(self, width, p, complex_field):
        rng = np.random.default_rng(width)
        for W in _blocks(rng, width, complex_field):
            got = row_norms(W, p)
            assert got.dtype == np.float64 and got.shape == (len(W),)
            for r, row in enumerate(W):
                assert got[r].hex() == dot_norm(row, p).hex()
                assert got[r].hex() == row_norms(row[None], p)[0].hex()

    def test_rescaled_rows_are_finite_and_zero_rows_zero(self):
        W = np.array([[3e200, 4e200, 0.0], [0.0, 0.0, 0.0], [1.5e308, 1.5e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = row_norms(W, 2.0)
        assert math.isclose(got[0], 5e200, rel_tol=1e-15)
        assert got[1] == 0.0 and got[2] == math.inf

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_block_measures_match_the_one_row_calls(self, p):
        rng = np.random.default_rng(7)
        W = rng.standard_normal((9, 33)) * np.array([1.0, 1e200, 1e-200])[:, None].repeat(3, 0)
        mask = rng.random(33) < 0.5
        y = TruncVector(rng.standard_normal(33), p=p)
        with np.errstate(over="ignore"):
            off, tol, dist = (off_span_norms(W, mask, p),
                              row_tolerances(W, p, MEMBERSHIP_RTOL),
                              target_distances(W, p, (y,))[0])
        for r, row in enumerate(W):
            assert off[r].hex() == off_span_norms(row[None], mask, p)[0].hex()
            assert tol[r].hex() == row_tolerances(row[None], p, MEMBERSHIP_RTOL)[0].hex()
            assert dist[r].hex() == row_distance(row, p, y).hex()

    def test_a_difference_that_overflows_reads_nan(self):
        y = TruncVector(np.array([0.0, -1.7e308]))
        dists = target_distances(np.array([[0.0, 1.0], [0.0, 1.7e308]]), 2.0, (y,))[0]
        assert dists[0] == 1.7e308 and math.isnan(dists[1])
        with pytest.raises(ValueError, match="exponents differ"):
            target_distances(np.zeros((2, 2)), 1.0, (y,))


def _at_the_tolerance(W, r, col, mask, p, rtol):
    """Set W[r, col], off the span, to the value nearest the row's
    tolerance at which its residual equals its tolerance."""
    tol = row_tolerances(W[r][None], p, rtol)[0]
    below = above = tol
    for _ in range(32):
        for value in (below, above):
            W[r, col] = value
            if off_span_norms(W[r][None], mask, p)[0] == row_tolerances(W[r][None], p, rtol)[0]:
                return
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
    raise AssertionError("no entry puts the residual at the tolerance")


class TestOutsideSpan:
    """Norms a caller passes in give the verdicts of measuring the rows."""

    MASK = np.array([True, False, True, False])

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_passed_norms_keep_every_residual_and_verdict(self, p, complex_field):
        # Rows: inside the span, well outside, a residual equal to its
        # tolerance, a plain norm that overflows but fits after rescaling
        # (residual under and over its tolerance), and a norm past the
        # float range, whose tolerance rtol * n * s is finite (residual
        # over and under it).
        W = np.array([[3.0, 0.0, -2.0, 0.0],
                      [1.0, 0.5, -2.0, -0.25],
                      [4.0, 0.0, -1.25, -0.0],
                      [1e200, 1e190, -1e200, 0.0],
                      [1e200, 1e192, -1e200, -0.0],
                      [1.5e308, 1e300, -1.5e308, 0.0],
                      [1.5e308, 1e299, -1.5e308, -0.0]])
        if complex_field:  # columns 1 and 2 turned imaginary, magnitudes kept
            W = W.astype(np.complex128)
            W[:, 1:3] = 1j * W[:, 1:3].real
        rtol = MEMBERSHIP_RTOL
        _at_the_tolerance(W, 2, 3, self.MASK, p, rtol)
        norms = row_norms(W, p)
        assert math.isfinite(norms[3]) and math.isinf(norms[5])
        residuals, outside = outside_span(W, self.MASK, p, rtol)
        got_residuals, got_outside = outside_span(W, self.MASK, p, rtol, norms)
        assert got_residuals.tobytes() == residuals.tobytes()
        assert got_outside.tolist() == outside.tolist()
        assert outside.tolist() == [False, True, False, False, True, True, False]
        assert residuals[2] == row_tolerances(W[2][None], p, rtol)[0] > rtol

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("width", [4, 129])
    def test_passed_norms_of_every_block_kind(self, width, p, complex_field):
        # Blocks of zero rows, rows near 1e200 and strided views, against a
        # tolerance small enough that most rows are measured.
        rng = np.random.default_rng(width)
        mask = rng.random(width) < 0.5
        for W in _blocks(rng, width, complex_field):
            for rtol in (MEMBERSHIP_RTOL, 1.0):
                want = outside_span(W, mask, p, rtol)
                got = outside_span(W, mask, p, rtol, row_norms(W, p))
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tolist() == want[1].tolist()


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

# Signed zeros, entries whose differences overflow, and plain values.
kernel_entry_st = (st.sampled_from([0.0, -0.0, 1.0, -2.5, 1.7e308, -1.7e308, 1e154])
                   | st.floats(-1e3, 1e3, width=64))


def _kernel_coords(draw, n, complex_field):
    re = np.array(draw(st.lists(kernel_entry_st, min_size=n, max_size=n)), dtype=np.float64)
    if not complex_field:
        return re
    out = np.empty(n, dtype=np.complex128)
    out.real = re
    out.imag = draw(st.lists(kernel_entry_st, min_size=n, max_size=n))
    return out


@st.composite
def kernel_target(draw, dim, p):
    """A target with an empty, full or drawn support window, whose zeros
    outside the window may be -0.0."""
    complex_field = draw(st.booleans(), label="complex target")
    coords = draw(st.sampled_from([0.0, -0.0])) * np.ones(
        dim, dtype=np.complex128 if complex_field else np.float64)
    kind = draw(st.sampled_from(["zero", "full", "window"]), label="window kind")
    a, b = {"zero": (0, 0), "full": (0, dim)}.get(kind, (None, None))
    if kind == "window":
        a = draw(st.integers(0, dim - 1), label="a")
        b = draw(st.integers(a + 1, dim), label="b")
    coords[a:b] = _kernel_coords(draw, b - a, complex_field)
    if b > a:  # pin the window's ends, so it is [a, b) exactly
        coords[[a, b - 1]] = np.where(coords[[a, b - 1]] == 0, 1.0, coords[[a, b - 1]])
    return TruncVector(coords, p=p)


@given(st.data(), st.integers(1, 10), st.integers(1, 4),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_target_distances_have_the_bits_of_the_full_difference(
        data, dim, nrows, p, complex_rows, read_only):
    rows = np.stack([_kernel_coords(data.draw, dim, complex_rows) for _ in range(nrows)])
    targets = data.draw(st.lists(kernel_target(dim, p), min_size=1, max_size=3), label="targets")
    rows.setflags(write=not read_only)
    before = rows.tobytes()
    got = target_distances(rows, p, targets)
    assert rows.tobytes() == before
    assert got.shape == (len(targets), nrows)
    for t, y in enumerate(targets):
        nonzero = np.flatnonzero(y.coords)
        assert y.support_window == ((nonzero[0], nonzero[-1] + 1) if nonzero.size else (0, 0))
        with np.errstate(over="ignore"):
            diff = rows - y.coords
            want = row_norms(diff, p)
        want[~np.isfinite(diff).all(axis=1)] = np.nan
        assert got[t].tobytes() == want.tobytes()
        assert target_distances(rows, p, [y]).tobytes() == want.tobytes()
        for r, row in enumerate(rows):
            if math.isnan(want[r]):
                with pytest.raises(NumericalOverflow):
                    row_distance(row, p, y)
            else:
                assert row_distance(row, p, y).hex() == float(want[r]).hex()


def test_target_distances_check_every_target_first():
    rows = np.zeros((2, 3))
    good, long = TruncVector(np.ones(3)), TruncVector(np.ones(4))
    p1 = TruncVector(np.ones(3), p=1.0)
    with pytest.raises(DimensionMismatch):
        target_distances(rows, 2.0, [good, long, p1])
    with pytest.raises(ValueError, match="exponents differ"):
        target_distances(rows, 2.0, [good, p1, long])


coords_st = st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=64),
                     min_size=1, max_size=24)


@st.composite
def vector_and_indexset(draw):
    coords = draw(coords_st)
    dim = len(coords)
    indices = draw(st.sets(st.integers(0, dim - 1), max_size=dim))
    return TruncVector(np.array(coords)), BasisIndexSet(tuple(indices), dim)


def complement(m: BasisIndexSet) -> BasisIndexSet:
    """The coordinates outside m: v's distance to it is the norm of v's
    part inside m."""
    return BasisIndexSet(tuple(i for i in range(m.dim) if i not in m.indices), m.dim)


@given(vector_and_indexset())
@settings(max_examples=200, deadline=None)
def test_pythagoras(pair):
    v, m = pair
    lhs = norm(v) ** 2
    rhs = distance_to_subspace(v, complement(m)) ** 2 + distance_to_subspace(v, m) ** 2
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


@st.composite
def span_row_and_depth(draw):
    """A span, a row whose in-span entries have magnitude >= 1 and whose
    off-span entries are either far below the tolerance or far above it,
    and how many powers of two below the top scaling to test."""
    dim = draw(st.integers(2, 12))
    indices = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1))
    m = BasisIndexSet(tuple(indices), dim)
    inside = st.floats(1.0, 1e6) | st.floats(-1e6, -1.0)
    outside = st.just(0.0) | st.floats(1e-20, 1e-13) | st.floats(0.1, 1e3)
    row = np.array([draw(inside if i in m.indices else outside) for i in range(dim)])
    return m, row, draw(st.integers(0, 60) | st.integers(0, 1100))


@given(span_row_and_depth(), st.sampled_from([1.0, 2.0, 3.0]))
@example((BasisIndexSet((1,), 2), np.array([0.0, 16.0]), 0), 1.0)
@settings(max_examples=200, deadline=None)
def test_membership_verdict_survives_scaling_toward_float_max(case, p):
    # In-span entries have magnitude >= 1, so the tolerance is rtol * ||w||;
    # off-span entries are either far below it or far above it.  Rows are
    # scaled up to the largest power of two at which ||w|| is still finite:
    # 2^top ||w|| < 2^1024 where ||w|| < 2^e, its frexp exponent.
    m, row, depth = case
    top = 1024 - math.frexp(np.linalg.norm(row, ord=p))[1]
    k = max(0, top - depth)
    scaled = np.ldexp(row, k)

    def verdicts(w):
        v = TruncVector(w, p=p)
        return (distance_to_subspace(v, m) <= membership_tolerance(v),
                off_span_norms(w[None], m.mask(), p)[0]
                <= row_tolerances(w[None], p, MEMBERSHIP_RTOL)[0])

    with np.errstate(over="ignore"):
        assert verdicts(scaled) == verdicts(row)


@given(st.integers(1, 5), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_materialization_monotone_recursive(depth_small, extra):
    spec = RecursiveSpan((0, 1, 3, 9, 27), depth=min(depth_small, 4))
    small_dim = 64
    big_dim = small_dim + 8 * extra
    small = materialize_subspace(spec, small_dim).indices
    big = materialize_subspace(spec, big_dim).indices
    assert set(small) <= set(big)


@given(st.integers(2, 24), st.integers(0, 16))
@settings(max_examples=100, deadline=None)
def test_materialization_monotone_parity(dim, extra):
    spec = ParityZero("even")
    assert set(materialize_subspace(spec, dim).indices) <= \
        set(materialize_subspace(spec, dim + extra).indices)


def test_deep_recursive_stage_rejected_before_it_is_built():
    # Stage 60 would hold 2^60 indices; its largest one alone decides.
    offsets = [0]
    for _ in range(60):
        offsets.append(2 * sum(offsets) + 1)
    with pytest.raises(DimensionTooSmall, match="stage-60"):
        materialize_subspace(RecursiveSpan(tuple(offsets), depth=60), 1 << 16)


def test_recursive_nesting_and_gap():
    spec = RecursiveSpan((0, 1, 3, 9, 27), depth=4)
    stages = [set(spec.stage_indices(k)) for k in range(5)]
    for k in range(4):
        assert stages[k] < stages[k + 1]
    # Between the running offset sum and the next offset nothing may appear.
    offsets = spec.n_seq
    for k in range(1, 4):
        running = sum(offsets[: k + 1])
        for j in range(running + 1, offsets[k + 1]):
            assert j not in stages[k]
            assert j not in stages[4] or j >= offsets[k + 1]
