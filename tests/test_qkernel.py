import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anacci.errors import InputOutOfRange, NonPositiveInput
from anacci.qkernel import (
    RegionClass,
    _ln,
    _q_dq,
    classify,
    dq_value,
    eval_P,
    lambda_min,
    q_value,
)
from anacci.solver import lower_bound_basic, solve_lambda

from oracles import P_exact, mp_q_dq, q_naive, rounded

positive = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)


class TestEvalP:
    def test_root_at_p_for_order_one(self):
        assert eval_P(1.0, 1.0, 1) == 0.0

    def test_direct_substitution(self):
        assert eval_P(2.0, 1.0, 2) == pytest.approx(1.0, abs=1e-15)

    def test_vanishes_at_dominant_root(self):
        phi = solve_lambda(1, 2).value
        assert abs(eval_P(phi, 1.0, 2)) < 1e-12

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            eval_P(1.0, 1.0, 0)

    def test_overflowing_power_reports_the_sign_of_the_scaled_form(self):
        # lam^2 = 1e400 raised a raw OverflowError; P/lam^n = 1 - p/lam - p/lam^2
        assert eval_P(1e200, 1.0, 2) == math.inf
        assert eval_P(1e200, 1e300, 2) == -math.inf
        assert eval_P(1e300, 1.0, 5) == math.inf
        # the geometric sum overflows while lam^n = 4.7e307 does not
        lam, p, n = 1.01, 1e-9, 71_200
        exact = lam**n * (1.0 - p * (1.0 - lam**-n) / (lam - 1.0))
        assert eval_P(lam, p, n) == pytest.approx(exact, rel=1e-12)


class TestEvalPExact:
    """eval_P against the plain Fraction sum of oracles.P_exact."""

    def test_rational_inputs_give_the_exact_fraction(self):
        lams = (1, 2, 7, Fraction(1, 3), Fraction(5, 2), Fraction(10**30 + 1, 10**30))
        for lam in lams:
            for p in (1, 3, Fraction(2, 7), Fraction(1, 10**40)):
                for n in range(1, 13):
                    value = eval_P(lam, p, n)
                    assert type(value) is Fraction
                    assert value == P_exact(lam, p, n), (lam, p, n)

    def test_float_inputs_round_the_exact_value_once(self):
        rng = random.Random(5)
        points = []
        for _ in range(400):
            p = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            points.append((rng.uniform(1e-2, p + 2.0), p, rng.randint(1, 60)))
        for _, p, n in points[:50]:
            # the solved root and its neighbours, where P cancels
            root = solve_lambda(p, n).value if n > 1 else p
            points += [(lam, p, n) for lam in (math.nextafter(root, 0.0), root,
                                               math.nextafter(root, math.inf))]
        points += [
            (1.0, 0.3, 5), (1.0, 5e-324, 7), (1.0, 1e300, 3),  # lam = 1
            (0.5, 0.25, 1), (1e308, 1e-308, 1), (5e-324, 1e-323, 1),  # n = 1
            (5e-324, 1.0, 3), (1e-310, 1e-315, 4), (2.0, 5e-324, 10),  # subnormal
        ]
        # P overflows, or underflows to a signed zero
        signed = {
            (1e200, 1.0, 2): math.inf,
            (1e300, 1.0, 5): math.inf,
            (1e200, 1e300, 2): -math.inf,
            (1.5, 1e308, 40): -math.inf,
            (2.0**-537, 2.0**-1074, 2): -0.0,
            (2.0**-537 * (1.0 + 2.0**-52), 2.0**-1074, 2): 0.0,
        }
        for point, expected in signed.items():
            assert rounded(P_exact(*point)).hex() == expected.hex()
        points += list(signed)
        mismatches = [
            point for point in points
            if eval_P(*point).hex() != rounded(P_exact(*point)).hex()
        ]
        assert not mismatches

    def test_numpy_and_bool_inputs(self):
        # numpy integers are Rationals whose own powers wrap past 2^63
        value = eval_P(np.int64(3), np.int64(1), 40)
        assert type(value) is Fraction and value == P_exact(3, 1, 40)
        value = eval_P(True, True, 3)
        assert type(value) is Fraction and value == -2
        value = eval_P(np.float64(1.5), 0.25, 7)
        assert type(value) is float and value == rounded(P_exact(1.5, 0.25, 7))
        # one Rational and one float side round once
        value = eval_P(Fraction(1, 3), 0.5, 4)
        assert type(value) is float and value == rounded(P_exact(Fraction(1, 3), 0.5, 4))

    @pytest.mark.parametrize("big", [Decimal("1e400"), Decimal("1e-400")])
    def test_non_double_input_outside_the_double_range(self, big):
        # float() reads these as inf, which raised a raw OverflowError, and as 0
        with pytest.raises(InputOutOfRange, match="^lam lies outside"):
            eval_P(big, 1.0, 3)
        with pytest.raises(InputOutOfRange, match="^p lies outside"):
            eval_P(1.5, big, 3)


class TestEvalQ:
    def test_zero_on_unit_plane(self):
        assert q_value(1.0, 0.7, 3.2) == 0.0

    def test_value_at_p_plus_one(self):
        # Q(p+1, p, q) = p for any q
        assert q_value(3.0, 2.0, 5.0) == pytest.approx(2.0, rel=1e-14)

    def test_direct_substitution(self):
        assert q_value(2.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_matches_naive_away_from_overflow(self):
        for lam in (0.3, 0.9, 1.1, 2.7):
            for p in (0.5, 1.0, 3.0):
                for q in (0.4, 1.0, 2.5, 7.0):
                    assert q_value(lam, p, q) == pytest.approx(
                        q_naive(lam, p, q), rel=1e-12, abs=1e-13
                    )

    def test_domain_is_validated(self):
        with pytest.raises(NonPositiveInput):
            q_value(0.0, 1.0, 1.0)
        with pytest.raises(NonPositiveInput):
            q_value(1.0, -1.0, 1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(NonPositiveInput, match="finite"):
                q_value(bad, 1.0, 1.0)
            with pytest.raises(NonPositiveInput, match="finite"):
                dq_value(2.0, 1.0, bad)

    @given(p=positive, q=positive)
    @settings(max_examples=200, deadline=None)
    def test_unit_plane_is_exactly_zero(self, p, q):
        assert q_value(1.0, p, q) == 0.0


class TestOverflowGuard:
    def test_sign_negative_between_one_and_root(self):
        # root of Q(., 1, 5000) is just under 2, so 1.5 sits in the
        # negative trough (1, root) even though 1.5**5000 overflows
        assert q_value(1.5, 1.0, 5000.0) == -math.inf

    def test_sign_positive_beyond_root(self):
        assert q_value(2.5, 1.0, 5000.0) == math.inf
        # root of Q(., 0.3, 5000) is just under 1.3
        assert q_value(1.5, 0.3, 5000.0) == math.inf

    def test_exact_cancellation_at_p_plus_one(self):
        assert q_value(2.0, 1.0, 5000.0) == 1.0

    @pytest.mark.parametrize("lam, p, q", [(3.86e227, 9.38e269, 0.384), (5e300, 1e305, 0.3)])
    def test_infinite_where_both_products_overflow_below_t_700(self, lam, p, q):
        # lam^q = e^201 and e^208 are finite, but (lam-1)*lam^q and
        # p*(lam^q - 1) both overflow, and inf - inf was a silent nan;
        # Q is -2.32e357 and -1.62e395
        assert q * math.log(lam) < 700.0
        exact = mp_q_dq(lam, p, q)[0]
        assert abs(exact) > sys.float_info.max
        assert q_value(lam, p, q) == math.copysign(math.inf, exact)

    def test_finite_where_both_products_overflow_but_q_does_not(self):
        # (lam-1)*lam^q and p*(lam^q - 1) are both about 1e390, yet Q = p - lam^q
        lam = p = 1e300
        exact = mp_q_dq(lam, p, 0.3)[0]
        assert q_value(lam, p, 0.3) == pytest.approx(float(exact), rel=1e-13)


class TestFusedKernel:
    """_q_dq: Q and Q' from one shared power, with no input checks."""

    U = 2.0**-53

    @pytest.mark.parametrize("p", [0.05, 0.7, 1.0, 3.0, 40.0])
    @pytest.mark.parametrize("q", [0.1, 0.9, 1.0, 2.5, 17.0, 150.0])
    def test_matches_mpmath_on_grid(self, p, q):
        # running error bounds: t = q*ln(lam) carries an absolute error of
        # about 2|t| ulp into the shared power, and the slope one ulp of its
        # larger term
        lams = [0.01, 0.3, 0.9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.2, 2.0, 7.5]
        lams += [lambda_min(p, q), p + 1.0]
        for lam in lams:
            value, deriv = _q_dq(lam, p, q)
            assert (value, deriv) == (q_value(lam, p, q), dq_value(lam, p, q))
            ref_q, ref_dq = mp_q_dq(lam, p, q)
            t = q * math.log(lam)
            power = lam**q
            grow = 4.0 * (abs(t) + 2.0) * self.U
            bound_q = grow * (abs(lam - 1.0) * power + p * abs(math.expm1(t)))
            bound_dq = grow * power / lam * (lam * (q + 1.0) + (p + 1.0) * q)
            # within the bound, so the signs agree wherever |reference| exceeds it
            assert abs(value - ref_q) <= bound_q, (lam, value, ref_q)
            assert abs(deriv - ref_dq) <= bound_dq, (lam, deriv, ref_dq)

    @pytest.mark.parametrize("edge", [0.5, 2.0])
    def test_log_follows_the_ln_rule_at_its_switch_points(self, edge):
        # _q_dq writes _ln's log1p-or-log choice out; both must switch at
        # the same doubles
        lams = [edge]
        for direction in (0.0, math.inf):
            lam = edge
            for _ in range(3):
                lam = math.nextafter(lam, direction)
                lams.append(lam)
        for lam in lams:
            for p, q in ((1.0, 2.0), (0.3, 1.5), (5.0, 40.0)):
                t = q * _ln(lam)
                e = math.exp(t)
                slope = lam * (q + 1.0) - (p + 1.0) * q
                expected = ((lam - 1.0) * e - p * math.expm1(t), e / lam * slope)
                assert _q_dq(lam, p, q) == expected, (lam, p, q)

    def test_unit_lam(self):
        assert _q_dq(1.0, 0.7, 3.2) == (0.0, 4.2 - 1.7 * 3.2)
        assert _q_dq(1.0, 1.0, 1.0) == (0.0, 0.0)

    def test_overflow_branch(self):
        # t = q*ln(lam) > 700: signs by lam - (p+1) and by the slope
        assert _q_dq(1.5, 1.0, 5000.0) == (-math.inf, -math.inf)
        assert _q_dq(2.5, 1.0, 5000.0) == (math.inf, math.inf)
        assert _q_dq(1.5, 0.3, 5000.0) == (math.inf, math.inf)

    def test_exact_cancellation_at_p_plus_one(self):
        assert _q_dq(2.0, 1.0, 5000.0) == (1.0, math.inf)
        assert _q_dq(3.0, 2.0, 1000.0)[0] == 2.0

    def test_vanishing_slope_past_overflow(self):
        # q + 1 a power of two makes lam(q+1) - (p+1)q exactly 0 at
        # lam = 3 while 3^(q-1) overflows: Q' is 0, not nan
        q = 1023.0
        p = 3.0 * (q + 1.0) / q - 1.0
        assert _q_dq(3.0, p, q) == (-math.inf, 0.0)

    def test_derivative_where_only_lam_to_q_overflows(self):
        # t = 702 overflows lam^q, but lam^(q-1) = e^679 does not
        lam, p, q = 1e10, 1.0, 30.5
        value, deriv = _q_dq(lam, p, q)
        assert value == math.inf
        expected = math.exp((q - 1.0) * math.log(lam)) * (lam * (q + 1.0) - 2.0 * q)
        assert deriv == pytest.approx(expected, rel=1e-12)

    def test_derivative_where_lam_to_q_underflows(self):
        # 1e-300^1.5 underflows to 0, yet Q' = lam^0.5 * slope ~ -3e-150
        slope = 1e-300 * 2.5 - 3.0
        assert dq_value(1e-300, 1.0, 1.5) == pytest.approx(1e-150 * slope, rel=1e-12)
        assert _q_dq(1e-300, 1.0, 1.5) == (1.0, dq_value(1e-300, 1.0, 1.5))

    def test_no_nan_where_lam_to_q_minus_one_overflows(self):
        # subnormal lam at the minimum locus of a subnormal order: the slope
        # is exactly 0 while 1/lam overflows
        lam = lambda_min(1.0, 1e-310)
        assert _q_dq(lam, 1.0, 1e-310) == (-1.0, 0.0)

    def test_no_nan_where_lam_to_q_minus_one_underflows_against_an_infinite_slope(self):
        # lam^(q-1) underflows to 0 while (p+1)*q overflows: 0 * -inf was nan
        value = dq_value(1.2e-203, 7.9e286, 2.6e214)
        assert value == 0.0 and math.copysign(1.0, value) == -1.0

    def test_sign_where_both_products_of_the_slope_overflow(self):
        # lam*(q+1) and (p+1)*q are both inf, and inf - inf is a nan whose
        # sign bit is not the slope's: about +9e319 here, and -1e420 below
        assert dq_value(1e200, 1e199, 1e120) == math.inf
        assert dq_value(1e200, 1e300, 1e120) == -math.inf


class TestFactoredForm:
    """Q(lam; p, n) = (lam - 1) * P(lam; p, n) at integer order n."""

    def test_unit_factor(self):
        assert (1.0 - 1.0) * eval_P(1.0, 0.7, 4) == 0.0

    def test_matches_eval_q_examples(self):
        # the values of q_value(2, 1, 2) and q_value(3, 2, 1)
        assert (2.0 - 1.0) * eval_P(2.0, 1.0, 2) == pytest.approx(1.0, abs=1e-15)
        assert (3.0 - 1.0) * eval_P(3.0, 2.0, 1) == pytest.approx(2.0, abs=1e-15)

    def test_agreement_grid_at_integer_order(self):
        for p in (0.3, 1.0, 2.5):
            for n in range(1, 9):
                for i in range(1, 41):
                    lam = (p + 2.0) * i / 40.0
                    direct = q_value(lam, p, float(n))
                    factored = (lam - 1.0) * eval_P(lam, p, n)
                    assert abs(direct - factored) <= 1e-12 * (1.0 + abs(direct))


class TestDerivative:
    def test_zero_at_minimum_locus(self):
        assert dq_value(4.0 / 3.0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_critical_point_value(self):
        assert dq_value(1.0, 1.0, 1.0) == 0.0

    def test_direct_substitution(self):
        assert dq_value(2.0, 1.0, 2.0) == pytest.approx(4.0, rel=1e-14)

    def test_sign_pattern_around_minimum(self):
        p, q = 1.3, 2.7
        lmin = lambda_min(p, q)
        assert dq_value(0.8 * lmin, p, q) < 0
        assert dq_value(1.2 * lmin, p, q) > 0

    def test_matches_finite_difference(self):
        h = 1e-7
        for lam in (0.6, 1.4, 2.2):
            for p in (0.5, 2.0):
                for q in (0.8, 3.3):
                    fd = (q_value(lam + h, p, q) - q_value(lam - h, p, q)) / (2 * h)
                    assert dq_value(lam, p, q) == pytest.approx(fd, rel=1e-6)


class TestLambdaMin:
    def test_known_values(self):
        assert lambda_min(1.0, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-16)
        assert lambda_min(1.0, 1.0) == 1.0
        assert lambda_min(2.0, 5.0) == pytest.approx(2.5, rel=1e-16)

    def test_exact_for_fractions(self):
        assert lambda_min(Fraction(1, 3), 3) == 1
        assert lambda_min(Fraction(2), Fraction(5)) == Fraction(5, 2)

    def test_exact_branch_matches_the_fraction_formula(self):
        # lambda_min(10**400, 1) used to raise a raw OverflowError
        values = [1, 2, 7, 10**400, Fraction(1, 3), Fraction(22, 7), Fraction(3, 10**400),
                  Fraction(10**400, 3)]
        for p in values:
            for q in values:
                got = lambda_min(p, q)
                assert type(got) is Fraction, (p, q)
                assert got == (Fraction(p) + 1) * q / (q + 1), (p, q)

    def test_float_and_mixed_pairs_take_the_generic_formula(self):
        pairs = [(1.3, 2.7), (0.1, 9.5), (1e-300, 1e300), (2, 0.75), (0.3, 5),
                 (Fraction(1, 3), 2.5), (1.5, Fraction(7, 3)), (True, 0.5)]
        for p, q in pairs:
            got = lambda_min(p, q)
            assert type(got) is float, (p, q)
            assert got == (p + 1) * q / (q + 1), (p, q)

    def test_mixed_pair_past_the_doubles_is_exact(self):
        # 10**400 times a float raised a raw OverflowError
        assert lambda_min(10**400, 1.0) == Fraction(10**400 + 1, 2)
        with pytest.raises(InputOutOfRange, match="basic bound"):
            lower_bound_basic(10**400, 1.0)
        # the bound of a huge weight at a tiny order is in range
        assert lower_bound_basic(10**400, 5e-324) == float(
            (10**400 + 1) * Fraction(5e-324) / (Fraction(5e-324) + 1)
        )

    def test_mixed_pair_below_the_doubles_is_exact(self):
        # a tiny Fraction order rounded the bound to 0.0, which is no bound
        tiny = Fraction(1, 10**400)
        assert lambda_min(0.5, tiny) == Fraction(3, 2) * tiny / (tiny + 1)
        with pytest.raises(InputOutOfRange, match="^basic bound .* lies outside"):
            lower_bound_basic(0.5, tiny)

    def test_float_pair_whose_product_overflows(self):
        # (p+1)*q overflowed to inf, although the bound is below p+1
        assert lambda_min(1e308, 1e308) == 1e308 * (1e308 / (1e308 + 1.0))
        assert lower_bound_basic(1e308, 1e308) == 1e308
        assert lambda_min(1.7e308, 2.0) == 1.7e308 * (2.0 / 3.0)

    @given(p=positive, q=positive)
    @settings(max_examples=200, deadline=None)
    def test_unit_iff_critical(self, p, q):
        # lambda_min - 1 = (p*q - 1)/(q + 1), to the four roundings of
        # lambda_min, which can hide its sign where p*q rounds onto 1
        at_min = lambda_min(p, q)
        shift = (Fraction(p) * Fraction(q) - 1) / (Fraction(q) + 1)
        assert abs(Fraction(at_min) - 1 - shift) <= 4 * Fraction(math.ulp(at_min))
        assert (shift == 0) == (classify(p, q) is RegionClass.CRITICAL)


class TestClassify:
    def test_examples(self):
        assert classify(1, 1) is RegionClass.CRITICAL
        assert classify(1.0, 2.0) is RegionClass.SUPER
        assert classify(0.25, 2.0) is RegionClass.SUB

    def test_float_tolerance_band(self):
        # no band: a float pair off the hyperbola by any amount is off it
        assert classify(1.0, 1.0 + 1e-13) is RegionClass.SUPER
        assert classify(1.0, 1.0 + 1e-9) is RegionClass.SUPER
        assert classify(1.0 - 2.0**-53, 1.0) is RegionClass.SUB
        # the products round onto 1, but the exact ones are not 1
        third = 1.0 / 3.0
        assert third * 3.0 == 1.0 and classify(third, 3.0) is RegionClass.SUB
        assert classify(math.nextafter(third, 1.0), 3.0) is RegionClass.SUPER
        assert classify(0.5, 2.0) is RegionClass.CRITICAL

    def test_exact_within_one_part_in_ten_to_the_thirty(self):
        eps = Fraction(1, 10**30)
        assert classify(1 + eps, 1) is RegionClass.SUPER
        assert classify(1 - eps, 1) is RegionClass.SUB
        assert classify(Fraction(7, 3) * (1 + eps), Fraction(3, 7)) is RegionClass.SUPER
        assert classify(Fraction(3, 7), Fraction(7, 3) * (1 - eps)) is RegionClass.SUB
        assert classify(Fraction(10**30, 3), Fraction(3, 10**30)) is RegionClass.CRITICAL
        assert classify(True, 1) is RegionClass.CRITICAL

    def test_exact_beyond_the_double_range(self):
        huge, tiny = 10**400, Fraction(1, 10**400)
        assert classify(huge, tiny) is RegionClass.CRITICAL
        assert classify(huge + 1, tiny) is RegionClass.SUPER
        assert classify(tiny, huge - 1) is RegionClass.SUB
        assert classify(huge, 1) is RegionClass.SUPER
        assert classify(tiny, 3) is RegionClass.SUB

    def test_exact_side_of_a_float_pair_beyond_the_double_range(self):
        # the exact side saturates to inf or 0 on the tolerance path; float(10**400)
        # used to raise OverflowError
        huge, tiny = 10**400, Fraction(1, 10**400)
        assert classify(0.5, huge) is RegionClass.SUPER
        assert classify(huge, 1e-300) is RegionClass.SUPER
        assert classify(tiny, 2.0) is RegionClass.SUB

    def test_a_saturated_exact_side_is_read_exactly(self):
        # p*q is about 4.9e-14; the saturated double made it inf * 5e-324 = inf
        assert classify(10**310, 5e-324) is RegionClass.SUB
        assert classify(5e-324, 10**310) is RegionClass.SUB

    def test_numpy_integers_do_not_wrap(self):
        # 2**32 * 2**32 wraps to 0 in int64 arithmetic
        big = np.int64(2**32)
        assert classify(big, big) is RegionClass.SUPER
        assert solve_lambda(big, big) == solve_lambda(2**32, 2**32)

    def test_a_float_in_the_pair_takes_the_tolerance_path(self):
        # the float path, no longer a tolerance, reads the exact side as its
        # double: p*q - 1 = 1e-15, and the double of p is above 1 too
        p = Fraction(10**15 + 1, 10**15)
        assert classify(p, 1) is RegionClass.SUPER
        assert classify(p, 1.0) is RegionClass.SUPER
        assert classify(1.0, p) is RegionClass.SUPER
        # the exact pair is on the hyperbola, its doubles are below it
        assert classify(Fraction(1, 3), 3) is RegionClass.CRITICAL
        assert classify(Fraction(1, 3), 3.0) is RegionClass.SUB

    @given(p=positive, q=positive)
    @settings(max_examples=300, deadline=None)
    def test_exactly_one_region(self, p, q):
        assert classify(p, q) in (RegionClass.SUPER, RegionClass.CRITICAL, RegionClass.SUB)


class TestSignPattern:
    """Q < 0 exactly between 1 and the second zero, on the correct side."""

    @pytest.mark.parametrize("p,q", [(1.0, 2.0), (2.0, 3.0), (0.8, 7.0)])
    def test_super_regime_trough(self, p, q):
        root = solve_lambda(p, q).value
        for i in range(1, 200):
            lam = (p + 2.0) * i / 200.0
            value = q_value(lam, p, q)
            if 1.0 < lam < root:
                assert value < 0
            elif lam != 1.0 and abs(lam - root) > 1e-9:
                assert value > 0

    @pytest.mark.parametrize("p,q", [(0.25, 2.0), (0.1, 4.0), (1.5, 0.3)])
    def test_sub_regime_trough(self, p, q):
        root = solve_lambda(p, q).value
        for i in range(1, 200):
            lam = (p + 2.0) * i / 200.0
            value = q_value(lam, p, q)
            if root < lam < 1.0:
                assert value < 0
            elif lam != 1.0 and abs(lam - root) > 1e-9:
                assert value > 0

    def test_critical_regime_positive_off_one(self):
        for i in range(1, 120):
            lam = 3.0 * i / 120.0
            if lam != 1.0:
                assert q_value(lam, 2.0, 0.5) > 0
