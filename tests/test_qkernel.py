import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anacci.errors import NonPositiveInput
from anacci.qkernel import (
    RegionClass,
    classify,
    dq_value,
    eval_P,
    lambda_min,
    q_value,
)
from anacci.solver import solve_lambda

from oracles import q_naive

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

    @given(p=positive, q=positive)
    @settings(max_examples=200, deadline=None)
    def test_unit_iff_critical(self, p, q):
        at_min = lambda_min(p, q)
        if classify(p, q) is RegionClass.CRITICAL:
            assert abs(at_min - 1.0) < 1e-11
        else:
            assert (at_min - 1.0) * (p * q - 1.0) > 0


class TestClassify:
    def test_examples(self):
        assert classify(1, 1, 0.0) is RegionClass.CRITICAL
        assert classify(1.0, 2.0, 1e-12) is RegionClass.SUPER
        assert classify(0.25, 2.0, 1e-12) is RegionClass.SUB

    def test_exact_rational_ignores_tol(self):
        assert classify(Fraction(1, 3), 3, tol=1.0) is RegionClass.CRITICAL
        assert classify(Fraction(1, 3), 4, tol=1.0) is RegionClass.SUPER
        assert classify(Fraction(1, 3), 2, tol=1.0) is RegionClass.SUB

    def test_float_tolerance_band(self):
        assert classify(1.0, 1.0 + 1e-13) is RegionClass.CRITICAL
        assert classify(1.0, 1.0 + 1e-9) is RegionClass.SUPER

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
