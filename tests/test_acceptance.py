"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances and horizons are pinned here, not configurable.
"""

import json
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcyclic import (BackwardShift, BallPair, BasisIndexSet,
                          ConvexPolynomial, DirectSum, Identity, IndexSet,
                          Monomials, ParityZero, Scale, ScheduleInfeasible,
                          TruncVector, Verdict, build_cyclic_vector,
                          check_criterion_I, check_criterion_II,
                          compose_polys, density_score, distance_to_subspace,
                          eval_poly, invariance_check, materialize_subspace,
                          norm, operators, orbit_segment, project,
                          transitivity_search, xi_schedule)
from convexcyclic.cli import main
from convexcyclic.config import dumps_config, entry_to_config
from convexcyclic.gallery import (build_entry, entry_example_5_2,
                                  entry_example_5_4, entry_lemma_5_1,
                                  entry_lemma_5_2, entry_prop_4_8)
from oracles import dense_eval, random_triple

TWO_B = Scale(2.0, BackwardShift())


def _report(line):
    print(f"\nACCEPTANCE {line}")


# ---------------------------------------------------------------------------
# 1. Oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(20240817)
    for dim in (4, 8, 16, 32):
        for _ in range(200):
            op, P, v = random_triple(rng, dim)
            got = eval_poly(P, op, v).coords
            want = dense_eval(P, op, v)
            scale = max(1.0, float(np.linalg.norm(want)))
            assert np.linalg.norm(got - want) <= 1e-10 * scale
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(f"1 oracle equivalence (800 triples, {elapsed:.2f}s): PASS")


# ---------------------------------------------------------------------------
# 2. Parity-subspace reproduction
# ---------------------------------------------------------------------------


def test_criterion_2_parity_instance_reproduction():
    entry = entry_example_5_4(lam=2.0, dim=64)
    inst = entry.instance
    verdict = check_criterion_I(inst, horizon=8, tol=1e-6)
    assert verdict.cond1.passed and verdict.cond2.passed and verdict.cond3.passed
    for y_index, y in enumerate(inst.Y):
        for k in range(1, 9):
            xk = inst.recovery_vector(y_index, k)
            assert norm(eval_poly(inst.poly(k), inst.op, xk) - y) <= 1e-12
            assert abs(norm(xk) - norm(y) / 2.0 ** (2 * k)) <= 1e-12
    m = materialize_subspace(entry.subspace, entry.dim)
    for degree in range(0, 17, 2):
        assert invariance_check(ConvexPolynomial.monomial(degree),
                                entry.op, m).invariant
    for degree in range(1, 16, 2):
        assert not invariance_check(ConvexPolynomial.monomial(degree),
                                    entry.op, m).invariant
    _report("2 parity instance (criterion one, recovery, invariance): PASS")


# ---------------------------------------------------------------------------
# 3. Recursive-subspace counterexample
# ---------------------------------------------------------------------------


def test_criterion_3_recursive_counterexample():
    entry = entry_example_5_2(depth=3)
    materialized = set(entry.notes["materialized"])
    assert materialized == {0, 1, 3, 4, 9, 10, 12, 13}
    verdict = check_criterion_II(entry.instance, entry.horizon, entry.tol)
    assert verdict.cond1.passed
    assert verdict.cond2.passed
    assert not verdict.cond3.passed
    failing = [d for d in verdict.cond3.details if not d.passed]
    assert failing and failing[0].landing_index not in materialized
    image = eval_poly(ConvexPolynomial((0.2,) * 5), entry.op,
                      16.0 * TruncVector.basis(4, entry.dim))
    assert abs(image.coords[2]) > 0
    assert 2 not in materialized
    _report("3 recursive counterexample (conditions 1-2 pass, 3 fails): PASS")


# ---------------------------------------------------------------------------
# 4. Criterion/transitivity separation at dim 1024
# ---------------------------------------------------------------------------


def test_criterion_4_separation(tmp_path):
    started = time.monotonic()
    cfg_path = tmp_path / "prop_4_8.json"
    cfg_path.write_text(dumps_config(entry_to_config(build_entry("prop_4_8"))))
    crit_exit = main(["criterion", "--which", "II", "--config", str(cfg_path),
                      "--out", str(tmp_path / "crit")])
    trans_exit = main(["transitivity", "--config", str(cfg_path),
                       "--out", str(tmp_path / "trans")])
    elapsed = time.monotonic() - started
    assert crit_exit == 0
    assert trans_exit == 1
    assert elapsed < 60.0
    _report(f"4 separation at dim 1024 (exit 0 and 1, {elapsed:.1f}s): PASS")


# ---------------------------------------------------------------------------
# 5. Negative search across wide gaps, flipped by narrow gaps
# ---------------------------------------------------------------------------


def test_criterion_5_gap_search():
    wide = entry_lemma_5_2(gap=16, max_degree=8)
    m = materialize_subspace(wide.subspace, wide.dim)
    report = transitivity_search(wide.op, m, list(wide.pairs), wide.family,
                                 samples_per_ball=wide.samples_per_ball,
                                 seed=wide.seed)
    assert not any(r.found for r in report.per_pair)

    narrow = entry_lemma_5_2(gap=2, max_degree=8)
    m2 = materialize_subspace(narrow.subspace, narrow.dim)
    report2 = transitivity_search(narrow.op, m2, list(narrow.pairs),
                                  narrow.family,
                                  samples_per_ball=narrow.samples_per_ball,
                                  seed=narrow.seed)
    assert any(r.found for r in report2.per_pair)
    _report("5 gap-16/degree-8 search empty, gap-2 flips pairs: PASS")


# ---------------------------------------------------------------------------
# 6. Builder soundness and density of the built vector
# ---------------------------------------------------------------------------


def test_criterion_6_builder_soundness():
    entry = entry_example_5_4()
    inst = entry.instance
    result = build_cyclic_vector(inst, j_max=6, c=1.0)
    xs = xi_schedule(len(result.steps), 1.0)
    for step in result.steps:
        tail = math.fsum(xs[step.j:])
        limit = step.j * xs[step.j - 1] + tail
        err = norm(eval_poly(inst.poly(step.k), inst.op, result.x)
                   - inst.Y[step.j - 1])
        assert err <= limit
    m = materialize_subspace(entry.subspace, entry.dim)
    report = density_score(entry.op, result.x, m, entry.family,
                           list(inst.Y), epsilon=1e-2)
    assert report.verdict == Verdict.DENSE_AT_SCALE
    _report("6 builder bound chain and density at 1e-2: PASS")


# ---------------------------------------------------------------------------
# 7. Structural invariants (each property >= 100 cases)
# ---------------------------------------------------------------------------

coords_st = st.lists(st.floats(-1e4, 1e4, allow_nan=False, width=64),
                     min_size=1, max_size=16)


@st.composite
def vec_and_set(draw):
    coords = draw(coords_st)
    dim = len(coords)
    indices = draw(st.sets(st.integers(0, dim - 1), max_size=dim))
    return TruncVector(np.array(coords)), BasisIndexSet(tuple(indices), dim)


@given(vec_and_set())
@settings(max_examples=150, deadline=None)
def test_criterion_7a_projection_idempotence(pair):
    v, m = pair
    once = project(v, m)
    assert np.array_equal(project(once, m).coords, once.coords)


@given(vec_and_set())
@settings(max_examples=150, deadline=None)
def test_criterion_7b_pythagoras(pair):
    v, m = pair
    lhs = norm(v) ** 2
    rhs = norm(project(v, m)) ** 2 + distance_to_subspace(v, m) ** 2
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


raw_coeffs = st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1,
                      max_size=9).filter(lambda cs: sum(cs) > 1e-3)


@given(raw_coeffs, raw_coeffs)
@settings(max_examples=150, deadline=None)
def test_criterion_7c_compose_closure(cs1, cs2):
    def normalized(cs):
        total = math.fsum(cs)
        return ConvexPolynomial(tuple(c / total for c in cs))
    out = compose_polys(normalized(cs1), normalized(cs2))
    assert all(c >= 0 for c in out.coeffs)
    assert abs(math.fsum(out.coeffs) - 1.0) <= 1e-12


@given(st.integers(1, 7), raw_coeffs, st.integers(0, 2 ** 30))
@settings(max_examples=150, deadline=None)
def test_criterion_7d_direct_sum_confinement(split, cs, seed):
    rng = np.random.default_rng(seed)
    dim = 2 * split
    op = DirectSum(TWO_B, Identity(), split=split)
    coords = np.zeros(dim)
    coords[:split] = rng.standard_normal(split)
    x = TruncVector(coords)
    total = math.fsum(cs)
    P = ConvexPolynomial(tuple(c / total for c in cs))
    image = eval_poly(P, op, x)
    assert np.all(image.coords[split:] == 0.0)


@given(st.integers(0, 5), st.integers(1, 5), st.integers(0, 2 ** 30))
@settings(max_examples=120, deadline=None)
def test_criterion_7e_density_monotone(base, extra, seed):
    rng = np.random.default_rng(seed)
    dim = 9
    m = materialize_subspace(IndexSet(tuple(range(5))), dim)
    coords = np.zeros(dim)
    coords[:5] = rng.standard_normal(5)
    x = TruncVector(coords)
    tc = np.zeros(dim)
    tc[:5] = rng.standard_normal(5)
    targets = [TruncVector(tc)]
    small = density_score(TWO_B, x, m, Monomials(base), targets, epsilon=1.0)
    large = density_score(TWO_B, x, m, Monomials(base + extra), targets,
                          epsilon=1.0)
    assert large.per_target[0].best_distance <= \
        small.per_target[0].best_distance + 1e-15


@given(st.integers(0, 2 ** 30))
@settings(max_examples=120, deadline=None)
def test_criterion_7f_block_determinism(seed):
    rng = np.random.default_rng(seed)
    dim = 10
    m = materialize_subspace(ParityZero("even"), dim)
    coords = np.zeros(dim)
    coords[1::2] = rng.standard_normal(dim // 2)
    x = TruncVector(coords)
    targets = [TruncVector.basis(j, dim) for j in (1, 3, 5, 7)]

    # The same payloads whatever the engine's block bound: one image row
    # per block, three rows per block (splitting each member's samples),
    # and the default, which holds every image at once.
    u, v = np.zeros((2, dim))
    u[1:-1:2] = rng.standard_normal(dim // 2 - 1)
    v[1::2] = rng.standard_normal(dim // 2)
    transit = np.zeros(dim)
    transit[2:] = u[:-2] / 4.0  # (2B)^2 carries it onto u
    pairs = [BallPair(TruncVector(u), TruncVector(v), 1.0),
             BallPair(TruncVector(u), TruncVector(transit), 0.5)]

    def payloads():
        d = density_score(TWO_B, x, m, Monomials(7), targets, epsilon=0.25)
        t = transitivity_search(TWO_B, m, pairs, Monomials(7), samples_per_ball=4,
                                seed=seed)
        return (d.verdict, d.admissible_orbit_size,
                [(s.best_distance, s.witness_index) for s in d.per_target],
                [(r.found, r.witness_index, r.invariance_residual) for r in t.per_pair])

    expected = payloads()
    assert expected[3][1][0]
    for rows in (1, 3):
        with mock.patch.object(operators, "BLOCK_BYTES", rows * dim * 16):
            assert operators.block_rows(dim) == rows
            assert payloads() == expected


def test_criterion_7_summary():
    _report("7 structural invariants (6 properties, >=100 cases each): PASS")


# ---------------------------------------------------------------------------
# 8. Full gallery verification through the CLI
# ---------------------------------------------------------------------------


def test_criterion_8_gallery_verify_all():
    started = time.monotonic()
    exit_code = main(["gallery", "verify-all"])
    elapsed = time.monotonic() - started
    assert exit_code == 0
    assert elapsed < 300.0
    _report(f"8 gallery verify-all (exit 0, {elapsed:.1f}s): PASS")
