import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anacci.errors import (
    AllZeroInit,
    NoConvergence,
    NonPositiveInput,
    TermOverflow,
    WeightOverflow,
    WeightUnderflow,
)
from anacci.recurrence import (
    RecurrenceSpec,
    canonical_init,
    generate,
    ratio_limit,
)
from anacci.solver import solve_lambda


class TestSpec:
    def test_rejects_all_zero_init(self):
        with pytest.raises(AllZeroInit):
            RecurrenceSpec(p=1, n=2, init=(0, 0))

    def test_rejects_wrong_init_length(self):
        with pytest.raises(ValueError):
            RecurrenceSpec(p=1, n=3, init=(0, 1))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(NonPositiveInput):
            RecurrenceSpec(p=0, n=2, init=(0, 1))

    def test_rejects_infinite_weight(self):
        with pytest.raises(NonPositiveInput, match="finite and > 0"):
            RecurrenceSpec(p=math.inf, n=2, init=(0, 1))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_float_init(self, bad):
        with pytest.raises(ValueError, match="init"):
            RecurrenceSpec(p=1, n=2, init=(bad, 1.0))

    @pytest.mark.parametrize("bad", [Decimal("nan"), Decimal("snan"), Decimal("-inf")])
    def test_rejects_a_decimal_nan_or_infinity_as_a_float_one(self, bad):
        # a Decimal nan was reported as a term beyond the double range, and a
        # signaling one raised InvalidOperation from the all-zero test
        with pytest.raises(ValueError, match=r"^init terms must be finite"):
            generate(RecurrenceSpec(1.0, 2, (bad, 1.0)), 5)

    def test_a_decimal_past_the_doubles_overflows(self):
        with pytest.raises(TermOverflow, match="term 0"):
            generate(RecurrenceSpec(1.0, 2, (Decimal("1e400"), 1.0)), 5)

    def test_accepts_exact_terms_of_any_size(self):
        spec = RecurrenceSpec(p=10**400, n=2, init=(Fraction(1, 10**400), 10**400))
        assert generate(spec, 3)[2] == 10**800 + 1

    def test_exact_detection(self):
        assert RecurrenceSpec(p=1, n=2, init=(0, 1)).exact
        assert RecurrenceSpec(p=Fraction(1, 2), n=1, init=(1,)).exact
        assert not RecurrenceSpec(p=1.5, n=1, init=(1,)).exact

    def test_init_is_stored_as_a_tuple(self):
        spec = RecurrenceSpec(p=1, n=2, init=[0, 1])
        assert spec.init == (0, 1)
        assert type(spec.init) is tuple
        assert spec._replace(init=[1, 1]).init == (1, 1)

    def test_replace_checks_as_the_constructor_does(self):
        spec = RecurrenceSpec(p=1, n=2, init=(0, 1))
        with pytest.raises(AllZeroInit):
            spec._replace(init=(0, 0))
        with pytest.raises(ValueError, match="exactly n=3"):
            spec._replace(n=3)

    def test_is_immutable(self):
        spec = RecurrenceSpec(p=1, n=2, init=(0, 1))
        with pytest.raises(AttributeError):
            spec.colour = "red"
        with pytest.raises(AttributeError):
            spec.p = 2


class TestCanonicalInit:
    def test_shapes(self):
        assert canonical_init(1) == (1,)
        assert canonical_init(2) == (0, 1)
        assert canonical_init(4) == (0, 0, 0, 1)


class TestGenerate:
    def test_fibonacci(self):
        spec = RecurrenceSpec(p=1, n=2, init=(0, 1))
        assert generate(spec, 8) == [0, 1, 1, 2, 3, 5, 8, 13]

    def test_weight_two(self):
        spec = RecurrenceSpec(p=2, n=2, init=(0, 1))
        assert generate(spec, 6) == [0, 1, 2, 6, 16, 44]

    def test_tribonacci(self):
        spec = RecurrenceSpec(p=1, n=3, init=(0, 0, 1))
        assert generate(spec, 7) == [0, 0, 1, 1, 2, 4, 7]

    def test_integer_closure(self):
        spec = RecurrenceSpec(p=3, n=4, init=(2, 0, -1, 5))
        terms = generate(spec, 40)
        assert all(isinstance(t, int) for t in terms)

    def test_rational_arithmetic(self):
        spec = RecurrenceSpec(p=Fraction(1, 2), n=2, init=(0, 1))
        terms = generate(spec, 6)
        assert terms == [0, 1, Fraction(1, 2), Fraction(3, 4), Fraction(5, 8), Fraction(11, 16)]

    def test_count_must_cover_init(self):
        with pytest.raises(ValueError):
            generate(RecurrenceSpec(p=1, n=3, init=(0, 0, 1)), 2)

    def test_float_agrees_with_exact(self):
        for p in (1, 2, 3):
            exact = generate(RecurrenceSpec(p=p, n=3, init=(0, 0, 1)), 50)
            approx = generate(RecurrenceSpec(p=float(p), n=3, init=(0.0, 0.0, 1.0)), 50)
            for e, f in zip(exact, approx):
                assert f == pytest.approx(float(e), rel=1e-12)

    def test_float_window_does_not_drift(self):
        # 200 steps crosses several resync points
        exact = generate(RecurrenceSpec(p=1, n=2, init=(0, 1)), 200)
        approx = generate(RecurrenceSpec(p=1.0, n=2, init=(0.0, 1.0)), 200)
        for e, f in zip(exact, approx):
            assert f == pytest.approx(float(e), rel=1e-12)


    @pytest.mark.parametrize("p, n", [
        (0.2, 2), (0.1, 3), (0.05, 5), (0.010888409742776727, 2),
    ])
    def test_decaying_float_terms_track_the_exact_sequence(self, p, n):
        # p*n < 1: the terms decay, so a running window sum would keep the
        # rounding error of the early, larger terms
        approx = generate(RecurrenceSpec(p, n, tuple(map(float, canonical_init(n)))), 200)
        exact = generate(RecurrenceSpec(Fraction(p), n, canonical_init(n)), 200)
        for k, (f, e) in enumerate(zip(approx, exact)):
            assert abs(Fraction(f) - e) <= 8 * Fraction(math.ulp(float(e))), (k, f)

    def test_overflowing_term_is_named(self):
        with pytest.raises(TermOverflow, match="term 601 "):
            generate(RecurrenceSpec(p=2.5, n=2, init=(0.0, 1.0)), 900)

    def test_overflowing_window_sum_is_named(self):
        spec = RecurrenceSpec(p=1, n=2, init=(1e308, 1e308))
        assert generate(spec, 2) == [1e308, 1e308]  # no sum is formed
        with pytest.raises(TermOverflow, match="term 2 "):
            generate(spec, 3)

    def test_exact_initial_term_past_the_doubles_is_named(self):
        # float(10**400) used to raise a bare OverflowError
        spec = RecurrenceSpec(p=1.5, n=2, init=(0, 10**400))
        with pytest.raises(TermOverflow, match="^term 1 "):
            generate(spec, 4)
        with pytest.raises(TermOverflow, match="^term 1 "):
            ratio_limit(spec)

    def test_exact_weight_below_the_doubles_raises(self):
        # the weight used to round to 0.0 and zero every later term
        spec = RecurrenceSpec(p=Fraction(1, 10**400), n=2, init=(0, 1.0))
        with pytest.raises(WeightUnderflow, match="order-2 recurrence is below"):
            generate(spec, 4)

    def test_exact_weight_past_the_doubles_raises(self):
        spec = RecurrenceSpec(p=10**400, n=2, init=(0, 1.0))
        with pytest.raises(WeightOverflow, match="order-2 recurrence is above"):
            generate(spec, 4)


class TestRatioLimit:
    def test_fibonacci_reaches_golden_ratio(self):
        spec = RecurrenceSpec(p=1, n=2, init=(0, 1))
        estimate = ratio_limit(spec, 1e-12)
        assert estimate.k0 == 0
        assert estimate.value == pytest.approx(solve_lambda(1, 2).value, abs=1e-11)

    def test_weight_two(self):
        spec = RecurrenceSpec(p=2, n=2, init=(0, 1))
        estimate = ratio_limit(spec, 1e-12)
        assert estimate.value == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-11)

    def test_constant_sequence_converges_at_zero_tol(self):
        estimate = ratio_limit(RecurrenceSpec(p=1, n=1, init=(5,)), 0.0)
        assert estimate.value == 1.0
        assert estimate.k0 == -1

    def test_zero_term_mid_sequence_resets_and_records_k0(self):
        # 1, -1, 0, -1, -1, -2, ... has its last zero at index 2
        spec = RecurrenceSpec(p=1, n=2, init=(1, -1))
        estimate = ratio_limit(spec, 1e-12)
        assert estimate.k0 == 2
        assert estimate.value == pytest.approx(solve_lambda(1, 2).value, abs=1e-10)

    def test_matches_solver_over_small_lattice(self):
        for m in range(1, 6):
            for n in range(1, 7):
                spec = RecurrenceSpec(p=m, n=n, init=canonical_init(n))
                estimate = ratio_limit(spec, 1e-12, 500)
                assert estimate.value == pytest.approx(
                    solve_lambda(m, n).value, abs=1e-10
                ), (m, n)

    def test_long_run_renormalization_survives_overflow(self):
        # growth ~6^k overflows doubles near k = 397 without rescaling
        spec = RecurrenceSpec(p=5.0, n=6, init=tuple(map(float, canonical_init(6))))
        estimate = ratio_limit(spec, 0.0, 500)
        assert math.isfinite(estimate.value)
        assert estimate.k_used > 64  # crossed at least one renormalization
        assert estimate.value == pytest.approx(solve_lambda(5, 6).value, abs=1e-9)

    def test_overflow_between_renormalizations_is_named(self):
        with pytest.raises(TermOverflow, match="term 3 "):
            ratio_limit(RecurrenceSpec(p=1e300, n=2, init=(0.0, 1.0)))

    def test_exact_weight_past_the_doubles_raises(self):
        # exact terms exist, but the float estimate has no weight to run on
        spec = RecurrenceSpec(p=10**400, n=2, init=(0, 1))
        assert generate(spec, 3) == [0, 1, 10**400]
        with pytest.raises(WeightOverflow, match="above the largest finite double"):
            ratio_limit(spec)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejects_a_tolerance_that_is_not_finite_and_non_negative(self, tol):
        # a nan tolerance used to fail every delta test and end in NoConvergence
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            ratio_limit(RecurrenceSpec(p=1, n=2, init=(0, 1)), tol)

    def test_budget_exhaustion_raises(self):
        spec = RecurrenceSpec(p=1, n=2, init=(0, 1))
        with pytest.raises(NoConvergence):
            ratio_limit(spec, 0.0, 12)

    def test_max_terms_precondition(self):
        with pytest.raises(ValueError):
            ratio_limit(RecurrenceSpec(p=1, n=4, init=canonical_init(4)), 1e-9, 6)

    @given(scale=st.one_of(
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=-1000, max_value=-1),
    ))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, scale):
        base = ratio_limit(RecurrenceSpec(p=1, n=3, init=(0, 0, 1)), 1e-12)
        scaled = ratio_limit(
            RecurrenceSpec(p=1, n=3, init=(0, 0, scale)), 1e-12
        )
        assert scaled.value == pytest.approx(base.value, rel=1e-12)
        assert scaled.k0 == base.k0


class TestHoradam:
    """The order-2 members of the family, w_k(a1, a2; m, -m) with integer
    weight m, in exact integer arithmetic."""

    def test_examples(self):
        assert generate(RecurrenceSpec(2, 2, (0, 1)), 6) == [0, 1, 2, 6, 16, 44]
        assert generate(RecurrenceSpec(1, 2, (0, 1)), 6) == [0, 1, 1, 2, 3, 5]
        assert generate(RecurrenceSpec(3, 2, (1, 1)), 5) == [1, 1, 6, 21, 81]

    def test_integer_arithmetic(self):
        terms = generate(RecurrenceSpec(7, 2, (2, -3)), 30)
        assert all(isinstance(t, int) for t in terms)

    def test_count_precondition(self):
        with pytest.raises(ValueError):
            generate(RecurrenceSpec(2, 2, (0, 1)), 1)

    def test_weight_precondition(self):
        with pytest.raises(NonPositiveInput):
            generate(RecurrenceSpec(0, 2, (0, 1)), 4)
