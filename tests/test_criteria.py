"""Criterion checkers, the xi schedule and the cyclic-vector builder."""

import math
import re
from unittest import mock

import numpy as np
import pytest

from convexcyclic import (BackwardShift, ConvexPolynomial, CriterionInstance,
                          DimensionTooSmall, ExplicitRecovery, IndexSet,
                          NumericalOverflow, ParityZero,
                          RecoveryRuleMissing,
                          Scale, ScheduleInfeasible, ShiftRecovery,
                          TruncationOverflow, TruncVector, build_cyclic_vector,
                          check_criterion_I, check_criterion_II, criteria,
                          eval_poly,
                          norm, xi_schedule)
from convexcyclic.gallery import (entry_example_5_2, entry_example_5_4,
                                  entry_lemma_5_1, entry_prop_4_8)

TWO_B = Scale(2.0, BackwardShift())


class TestXiSchedule:
    def test_first_value(self):
        assert xi_schedule(1, 1.0) == [0.5]

    def test_budget_terms_decrease(self):
        xs = xi_schedule(12, 3.7)
        tails = [math.fsum(xs[j:]) for j in range(1, 13)]
        budget = [j * xs[j - 1] + tails[j - 1] for j in range(1, 13)]
        for a, b in zip(budget, budget[1:]):
            assert b < a

    def test_partial_sum_below_c(self):
        xs = xi_schedule(10, 1.0)
        total = math.fsum(xs)
        oracle = sum(1.0 / (j * 2 ** j) for j in range(1, 11))
        assert math.isclose(total, oracle, rel_tol=1e-14)
        assert total < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            xi_schedule(0)
        with pytest.raises(ValueError):
            xi_schedule(3, c=0.0)


def zero_instance(dim=16):
    zero = TruncVector.zeros(dim)
    return CriterionInstance(
        op=TWO_B,
        subspace=ParityZero("even"),
        dim=dim,
        X=(zero,),
        Y=(zero,),
        polys=tuple(ConvexPolynomial.monomial(2 * k) for k in range(1, 5)),
        recovery=ShiftRecovery(2.0),
    )


class TestCriterionChecks:
    def test_zero_vectors_pass_trivially(self):
        verdict = check_criterion_I(zero_instance(), horizon=4, tol=1e-9)
        assert verdict.cond1.passed and verdict.cond2.passed
        assert verdict.cond1.worst_tail_norm == 0.0

    def test_empty_X_passes_vacuously(self):
        inst = zero_instance()
        emptied = CriterionInstance(op=inst.op, subspace=inst.subspace,
                                    dim=inst.dim, X=(), Y=inst.Y,
                                    polys=inst.polys, recovery=inst.recovery)
        verdict = check_criterion_II(emptied, horizon=4, tol=1e-9)
        assert verdict.cond1.passed and verdict.cond3.passed

    def test_parity_entry_criterion_one(self):
        entry = entry_example_5_4()
        verdict = check_criterion_I(entry.instance, horizon=8, tol=1e-6)
        assert verdict.all_passed
        # Exact recovery identity and geometric norm decay.
        inst = entry.instance
        for y_index, y in enumerate(inst.Y):
            for k in (1, 3, 8):
                xk = inst.recovery_vector(y_index, k)
                assert norm(eval_poly(inst.poly(k), inst.op, xk) - y) <= 1e-12
                assert abs(norm(xk) - norm(y) / 2.0 ** (2 * k)) <= 1e-12

    def test_recursive_entry_criterion_two_fails_cond3(self):
        entry = entry_example_5_2()
        verdict = check_criterion_II(entry.instance, entry.horizon, entry.tol)
        assert verdict.cond1.passed
        assert verdict.cond2.passed
        assert not verdict.cond3.passed
        failing = [d for d in verdict.cond3.details if not d.passed]
        assert failing
        materialized = set(entry.notes["materialized"])
        assert failing[0].landing_index not in materialized

    def test_recursive_entry_criterion_one_lands_on_two(self):
        entry = entry_example_5_2()
        verdict = check_criterion_I(entry.instance, entry.horizon, entry.tol)
        assert verdict.cond1.passed and verdict.cond2.passed
        assert not verdict.cond3.passed
        failing = [d for d in verdict.cond3.details if not d.passed]
        assert failing[0].landing_index == 2

    def test_interval_entry_criterion_two(self):
        entry = entry_lemma_5_1()
        verdict = check_criterion_II(entry.instance, entry.horizon, entry.tol)
        assert verdict.all_passed

    def test_degenerate_single_interval_cond3_vacuous(self):
        entry = entry_lemma_5_1(k_count=1)
        verdict = check_criterion_II(entry.instance, entry.horizon, entry.tol)
        assert verdict.cond3.passed
        assert verdict.all_passed

    def test_recovery_rule_missing(self):
        inst = zero_instance()
        bare = CriterionInstance(op=inst.op, subspace=inst.subspace,
                                 dim=inst.dim, X=inst.X, Y=inst.Y,
                                 polys=inst.polys, recovery=None)
        with pytest.raises(RecoveryRuleMissing):
            check_criterion_I(bare, horizon=2, tol=1e-6)

    def test_explicit_recovery_bounds(self):
        inst = zero_instance()
        rule = ExplicitRecovery((TruncVector.zeros(16), None))
        patched = CriterionInstance(op=inst.op, subspace=inst.subspace,
                                    dim=inst.dim, X=inst.X, Y=inst.Y,
                                    polys=inst.polys, recovery=rule)
        with pytest.raises(RecoveryRuleMissing):
            patched.recovery_vector(0, 2)
        assert norm(patched.recovery_vector(0, 1)) == 0.0

    def test_shift_recovery_overflow_carries_the_degree(self):
        # 0.5^(-1100) = 2^1100 is past the float range.
        with pytest.raises(NumericalOverflow) as info:
            ShiftRecovery(0.5).recover(TruncVector.basis(0, 2000),
                                       ConvexPolynomial.monomial(1100))
        assert info.value.degree == 1100
        # A finite factor times a large coordinate overflows too.
        y = TruncVector(np.r_[1e305, np.zeros(20)])
        with pytest.raises(NumericalOverflow) as info:
            ShiftRecovery(0.5).recover(y, ConvexPolynomial.monomial(20))
        assert info.value.degree == 20
        x = ShiftRecovery(0.5).recover(y, ConvexPolynomial.monomial(10))
        assert x.coords[10] == 1e305 * 2.0 ** 10

    def test_shift_past_the_truncation_but_short_of_twice_it(self):
        # dim < d < 2 dim: the kept part y[:dim - d] is empty and the tail
        # that leaves the truncation is all of y.
        y = TruncVector.basis(3, 64)
        with pytest.raises(TruncationOverflow):
            ShiftRecovery(2.0).recover(y, ConvexPolynomial.monomial(100))
        zero = ShiftRecovery(2.0).recover(TruncVector.zeros(64), ConvexPolynomial.monomial(100))
        assert zero.dim == 64 and not zero.coords.any()

    def test_shift_recovery_rows_match_one_row_at_a_time(self):
        # One block holds rows that shift cleanly, leave the truncation,
        # leave the float range and vanish; each row gets the value or the
        # error of shifting it alone, coordinate by coordinate.
        dim = 12
        Y = np.zeros((5, dim))
        Y[0, :4] = [1.5, -2.0, 0.25, 3.0]
        Y[1, 9] = 1.0
        Y[2, 0] = 1e305
        Y[3, :2] = [1e-300, -7.0]

        def by_hand(scale, y, d):
            if d == 0:
                return y
            if (y[max(0, dim - d):] != 0).any():
                return TruncationOverflow
            try:
                factor = scale ** -d
            except OverflowError:
                return NumericalOverflow
            x = np.zeros(dim, np.result_type(y, factor))
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(d, dim):
                    x[i] = y[i - d] * factor
            return x if np.isfinite(x).all() else NumericalOverflow

        for scale in (2.0, 0.5, -1.5, 0.5j):
            rule = ShiftRecovery(scale)
            for d in (0, 1, 3, 8, 11, 13, 30, 1100):
                rows, errors = rule.recover_rows(Y, d)
                for y, row, error in zip(Y, rows, errors):
                    want = by_hand(rule.scale, y, d)
                    if isinstance(want, type):
                        assert type(error) is want
                        with pytest.raises(want, match=re.escape(str(error))):
                            rule.recover(TruncVector(y), ConvexPolynomial.monomial(d))
                    else:
                        assert error is None
                        assert row.dtype == want.dtype and (row == want).all()
                        x = rule.recover(TruncVector(y), ConvexPolynomial.monomial(d))
                        assert (x.coords == want).all()

    def test_condition_two_builds_no_vector_for_a_shift_rule(self):
        entry = entry_lemma_5_1()
        with mock.patch.object(TruncVector, "__post_init__", autospec=True,
                               side_effect=TruncVector.__post_init__) as built:
            cond2 = criteria._check_cond2(entry.instance, entry.horizon, entry.tol)
        assert cond2.passed
        assert built.call_count == 0

    def test_complex_X_past_the_float_range_fails_condition_one(self):
        # ||B^k x|| = |1.5e308 (1 + i)| is past the float range for k <= 4;
        # the norm was NaN and the condition passed with 0.0.
        x = TruncVector.basis(5, 16, complex_field=True) * (1.5e308 + 1.5e308j)
        inst = CriterionInstance(
            op=BackwardShift(1.0), subspace=IndexSet(tuple(range(16))), dim=16,
            X=(x,), Y=(TruncVector.basis(1, 16),),
            polys=tuple(ConvexPolynomial.monomial(d) for d in range(1, 5)),
            recovery=ShiftRecovery(1.0))
        cond1 = check_criterion_II(inst, 4, 1e-6).cond1
        assert not cond1.passed
        assert cond1.worst_tail_norm == math.inf

    def test_horizon_bounds_checked(self):
        with pytest.raises(ValueError):
            check_criterion_I(zero_instance(), horizon=99, tol=1e-6)

    @pytest.mark.parametrize("check", [check_criterion_I, check_criterion_II])
    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_tolerance_must_be_positive(self, check, tol):
        # Every comparison with a NaN tolerance is False, so example_5_2's
        # condition 3 of criterion II would read passed, against the gallery.
        entry = entry_example_5_2()
        with pytest.raises(ValueError, match="tol must be positive"):
            check(entry.instance, entry.horizon, tol)

    def test_verdict_monotone_in_tolerance(self):
        entry = entry_example_5_4()
        tols = (1e-8, 1e-6, 1e-3, 1e-1)
        flags = []
        for tol in tols:
            v = check_criterion_II(entry.instance, entry.horizon, tol)
            flags.append((v.cond1.passed, v.cond2.passed, v.cond3.passed))
        for earlier, later in zip(flags, flags[1:]):
            for a, b in zip(earlier, later):
                assert (not a) or b  # pass at tighter tol implies pass at looser


class TestBuilder:
    def test_zero_target_single_step(self):
        inst = zero_instance()
        result = build_cyclic_vector(inst, j_max=6, c=1.0)
        assert len(result.steps) == 1  # only one target declared
        assert norm(result.x) < xi_schedule(1, 1.0)[0]

    def test_parity_builder_soundness(self):
        entry = entry_example_5_4()
        result = build_cyclic_vector(entry.instance, j_max=6, c=1.0)
        assert len(result.steps) == 6
        xs = xi_schedule(6, 1.0)
        ks = [s.k for s in result.steps]
        assert all(a < b for a, b in zip(ks, ks[1:]))
        for step in result.steps:
            tail = math.fsum(xs[step.j:])
            assert step.post_error <= step.j * xs[step.j - 1] + tail
            err = norm(eval_poly(entry.instance.poly(step.k), entry.instance.op,
                                 result.x) - entry.instance.Y[step.j - 1])
            assert math.isclose(err, step.post_error, rel_tol=1e-12, abs_tol=1e-15)

    def test_interval_builder_respects_separation(self):
        entry = entry_lemma_5_1()
        result = build_cyclic_vector(entry.instance, entry.j_max, entry.c)
        degrees = entry.notes["degrees"]
        placements = dict(entry.notes["placements"])
        starts = entry.notes["starts"]
        chosen_degrees = [degrees[s.k - 1] for s in result.steps]
        for earlier, later in zip(chosen_degrees, chosen_degrees[1:]):
            assert later - earlier > starts[placements[later]]

    def test_constant_widths_infeasible_at_wide_target(self):
        entry = entry_lemma_5_1(constant_widths=True)
        with pytest.raises(ScheduleInfeasible) as err:
            build_cyclic_vector(entry.instance, entry.j_max, entry.c)
        assert err.value.step == 3
        assert err.value.best_bound >= err.value.required

    def test_builder_criterion_consistency(self):
        # Full second-criterion pass at the horizon implies the builder
        # succeeds for much smaller target counts.
        for entry in (entry_lemma_5_1(), entry_example_5_4(), entry_prop_4_8()):
            verdict = check_criterion_II(entry.instance, entry.horizon, entry.tol)
            assert verdict.all_passed
            result = build_cyclic_vector(entry.instance, j_max=2, c=entry.c)
            assert len(result.steps) == 2

    def test_builder_requires_targets(self):
        inst = zero_instance()
        bare = CriterionInstance(op=inst.op, subspace=inst.subspace,
                                 dim=inst.dim, X=(), Y=(), polys=inst.polys,
                                 recovery=inst.recovery)
        with pytest.raises(ValueError):
            build_cyclic_vector(bare, j_max=2)


class TestInstanceValidation:
    def test_members_must_lie_in_subspace(self):
        with pytest.raises(ValueError):
            CriterionInstance(op=TWO_B, subspace=ParityZero("even"), dim=8,
                              X=(TruncVector.basis(2, 8),),
                              Y=(TruncVector.basis(1, 8),),
                              polys=(ConvexPolynomial.monomial(2),),
                              recovery=ShiftRecovery(2.0))

    def test_explicit_recovery_vectors_must_have_the_instance_dim(self):
        inst = zero_instance()
        rule = ExplicitRecovery((TruncVector.zeros(inst.dim), None,
                                 TruncVector.zeros(inst.dim + 1)))
        with pytest.raises(DimensionTooSmall, match="x_3 has dim 17"):
            CriterionInstance(op=inst.op, subspace=inst.subspace, dim=inst.dim,
                              X=inst.X, Y=inst.Y, polys=inst.polys, recovery=rule)

    def test_every_vector_has_the_exponent_of_the_first(self):
        # X, Y and explicit recovery vectors share one p; the first vector
        # sets it.
        inst = zero_instance()
        q = TruncVector.zeros(inst.dim, p=3.0)
        cases = [(inst.X + (q,), inst.Y, None, r"X\[1\] has exponent p = 3.0, not 2.0"),
                 (inst.X, (q,), None, r"Y\[0\] has exponent p = 3.0"),
                 ((), (q, inst.Y[0]), None, r"Y\[1\] has exponent p = 2.0"),
                 (inst.X, inst.Y, ExplicitRecovery((None, q)), "x_2 has exponent p = 3.0")]
        for X, Y, rule, message in cases:
            with pytest.raises(ValueError, match=message):
                CriterionInstance(op=inst.op, subspace=inst.subspace, dim=inst.dim,
                                  X=X, Y=Y, polys=inst.polys, recovery=rule)
        same = CriterionInstance(op=inst.op, subspace=inst.subspace, dim=inst.dim,
                                 X=(q,), Y=(q,), polys=inst.polys,
                                 recovery=ExplicitRecovery((q,)))
        assert same.X == (q,)

    def test_polys_required(self):
        with pytest.raises(ValueError):
            CriterionInstance(op=TWO_B, subspace=ParityZero("even"), dim=8,
                              X=(), Y=(), polys=(), recovery=None)
