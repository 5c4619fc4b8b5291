import math
import random
from fractions import Fraction

import pytest

from anacci.errors import CriticalRegime, NonPositiveInput
from anacci.figures import DEFAULT_GRIDS
from anacci.qkernel import RegionClass
from anacci.solver import (
    bound_crossover,
    dlambda_dp,
    dlambda_dq,
    inverse_p,
    inverse_p_integer,
    lower_bound_basic,
    lower_bound_refined,
    solve_lambda,
)

from oracles import bisect_lambda, central_difference, mp_root, ulp_distance

PHI = (1.0 + math.sqrt(5.0)) / 2.0
# frozen from the pure-bisection oracle in oracles.py
TRIBONACCI = 1.8392867552141612
LAM_1_4 = 1.927561975482925
LAM_3_3 = 3.951373035591441


def _mpmath_panel():
    """Solver stress points: anchors, both sides of the hyperbola, fig3's
    q = 0.1 column, a tiny sub-critical zero (about 1.65e-6) and saturated
    points where lambda_min rounds onto p+1."""
    points = [(1, 2), (5, 40), (0.3, 1.5), (1 + 1e-9, 1), (1, 1e6)]
    for p in (0.2, 1.0, 5.0):
        for d in (1e-11, 1e-6, 1e-3):
            points += [(p, (1.0 + d) / p), (p, (1.0 - d) / p)]
    fig3 = DEFAULT_GRIDS["fig3"]
    q_column = fig3.q_values()[1]
    points += [(p, q_column) for p in fig3.p_values() if p in (0.35, 1.85)]
    points += [(0.3938, 0.09495), (1, 1e16), (10, 1e17)]
    return points


class TestSolveLambda:
    def test_golden_ratio(self):
        assert solve_lambda(1, 2).value == pytest.approx(PHI, abs=1e-14)

    def test_one_plus_sqrt3(self):
        assert solve_lambda(2, 2).value == pytest.approx(
            1.0 + math.sqrt(3.0), abs=1e-14
        )

    def test_tribonacci(self):
        assert solve_lambda(1, 3).value == pytest.approx(TRIBONACCI, abs=1e-13)
        assert bisect_lambda(1, 3) == pytest.approx(TRIBONACCI, abs=1e-14)

    def test_order_one_root_is_weight(self):
        assert solve_lambda(3, 1).value == pytest.approx(3.0, abs=1e-13)

    def test_critical_is_exactly_one(self):
        result = solve_lambda(1, 1)
        assert result.value == 1.0
        assert result.residual == 0.0
        assert result.iterations == 0
        assert result.regime is RegionClass.CRITICAL

    def test_critical_rational_points(self):
        for a in range(1, 11):
            for b in range(1, 11):
                assert solve_lambda(Fraction(a, b), Fraction(b, a)).value == 1.0

    def test_matches_oracle_on_grid(self):
        for p in (0.2, 0.7, 1.0, 2.4, 4.0):
            for q in (0.3, 0.9, 1.0, 2.0, 5.5, 17.0):
                if abs(p * q - 1.0) < 1e-9:
                    continue
                assert solve_lambda(p, q).value == pytest.approx(
                    bisect_lambda(p, q), rel=1e-12
                )

    def test_bracket_encloses_value(self):
        for p, q in ((1, 2), (0.25, 2), (3, 40), (0.1, 0.4)):
            r = solve_lambda(p, q)
            assert r.bracket_lo <= r.value <= r.bracket_hi

    def test_residual_within_tolerance(self):
        r = solve_lambda(1.7, 3.1)
        assert abs(r.residual) <= 1e-14 * (1.0 + 1.7) or (
            r.bracket_hi - r.bracket_lo
        ) <= 1e-14 * r.value

    def test_sub_regime(self):
        r = solve_lambda(0.25, 2)
        assert 0.0 < r.value < lower_bound_basic(0.25, 2) < 1.0

    def test_super_regime_chain(self):
        r = solve_lambda(1.5, 3)
        assert 1.0 < lower_bound_basic(1.5, 3) < r.value < 2.5

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveInput):
            solve_lambda(0, 2)
        with pytest.raises(NonPositiveInput):
            solve_lambda(1, -3)
        for p, q in ((math.inf, 2), (2, math.inf), (math.nan, 2), (1, math.nan)):
            with pytest.raises(NonPositiveInput, match="finite"):
                solve_lambda(p, q)

    @pytest.mark.parametrize("p,q", _mpmath_panel())
    def test_matches_mpmath_panel(self, p, q):
        root = mp_root(p, q)
        r = solve_lambda(p, q)
        assert ulp_distance(r.value, root) <= 16.0
        if not r.bracket_lo <= root <= r.bracket_hi:
            edge = r.bracket_lo if root < r.bracket_lo else r.bracket_hi
            assert ulp_distance(edge, root) <= 16.0

    def test_saturated_points_reach_weight_plus_one(self):
        assert solve_lambda(1, 1e16).value == 2.0
        assert ulp_distance(solve_lambda(1, 1e6).value, mp_root(1, 1e6)) <= 1.0

    def test_large_q_approaches_weight_plus_one(self):
        for p in (0.5, 1.0, 2.0, 3.0):
            gap = p + 1.0 - solve_lambda(p, 500).value
            assert 0.0 <= gap < 0.05

    def test_gap_shrinks_with_q(self):
        for p in (0.5, 1.0, 2.0, 3.0):
            gaps = [p + 1.0 - solve_lambda(p, q).value for q in (10, 50, 100, 500)]
            eps = 4e-16 * (p + 1.0)
            assert all(b <= a + eps for a, b in zip(gaps, gaps[1:]))

    def test_limits_toward_zero_edges(self):
        # fixed weight, order -> 0: the zero collapses toward 0
        assert solve_lambda(20.0, 1e-4).value < 1e-100
        # weight -> 0 at fixed order
        assert solve_lambda(1e-4, 1.0).value == pytest.approx(1e-4, rel=1e-10)
        assert solve_lambda(1e-4, 2.0).value < 0.05

    def test_weight_below_value_for_order_past_one(self):
        for p in (0.3, 1.0, 2.5):
            for q in (1.0, 1.5, 4.0, 20.0):
                assert p <= solve_lambda(p, q).value + 1e-12

    def test_monotone_along_lines(self):
        for alpha in (0.0, math.pi / 6, math.pi / 4, math.pi / 2):
            dp, dq = math.cos(alpha), math.sin(alpha)
            previous = None
            for step in range(8):
                t = 0.35 * step
                value = solve_lambda(0.4 + dp * t, 0.7 + dq * t).value
                if previous is not None:
                    assert value > previous
                previous = value

    def test_midpoint_concavity_in_super_region(self):
        pairs = (((1.0, 1.5), (3.0, 2.0)), ((0.8, 2.0), (2.5, 4.0)), ((1.5, 1.0), (1.5, 6.0)))
        for (p1, q1), (p2, q2) in pairs:
            mid = solve_lambda(0.5 * (p1 + p2), 0.5 * (q1 + q2)).value
            avg = 0.5 * (solve_lambda(p1, q1).value + solve_lambda(p2, q2).value)
            assert mid >= avg - 1e-12

    def test_integer_values_only_at_order_one(self):
        # Exact characterization: the zero at (m, n) equals the integer k
        # iff the weight recovering k is exactly m.  A plain closeness
        # test cannot work here: the true zero at (6, 12) sits within
        # 4.3e-10 of 7 without being 7.
        for m in range(1, 13):
            for n in range(1, 13):
                value = solve_lambda(m, n).value
                k = round(value)
                integral = k >= 1 and inverse_p_integer(k, n) == m
                assert integral == (n == 1), (m, n, value)
                if n == 1:
                    assert value == pytest.approx(m, abs=1e-12 * m)


class TestInverseP:
    def test_unit_value_is_reciprocal_order(self):
        assert inverse_p(1.0, 4.0) == 0.25

    def test_closed_form(self):
        assert inverse_p(2.0, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_round_trip_at_golden_ratio(self):
        assert inverse_p(solve_lambda(1, 2).value, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_stable_near_one(self):
        # approaches 1/q smoothly from both sides
        for eps in (1e-9, -1e-9, 1e-12, -1e-12):
            assert inverse_p(1.0 + eps, 3.0) == pytest.approx(1.0 / 3.0, rel=1e-6)

    def test_round_trip_random_points(self):
        rng = random.Random(7)
        for _ in range(2000):
            p = rng.uniform(0.05, 5.0)
            q = rng.uniform(0.05, 40.0)
            if abs(p * q - 1.0) < 1e-6:
                continue
            recovered = inverse_p(solve_lambda(p, q).value, q)
            assert abs(recovered - p) <= 1e-9 * (1.0 + p)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveInput):
            inverse_p(-1.0, 2.0)


class TestInversePInteger:
    def test_rational_result(self):
        assert inverse_p_integer(2, 2) == Fraction(4, 3)
        assert inverse_p_integer(3, 3) == Fraction(27, 13)

    def test_order_one_is_identity(self):
        for m in (1, 2, 7):
            assert inverse_p_integer(m, 1) == m

    def test_integral_targets_land_between_integers(self):
        # a ratio limit equal to integer m needs a weight strictly inside
        # (m-1, m) once the order exceeds 1
        for m in range(1, 9):
            for n in range(2, 9):
                p = inverse_p_integer(m, n)
                assert isinstance(p, Fraction)
                assert m - 1 < p < m

    def test_float_mode_matches_exact(self):
        exact = inverse_p_integer(Fraction(3, 2), 4)
        approx = inverse_p_integer(1.5, 4)
        assert approx == pytest.approx(float(exact), rel=1e-15)

    def test_agrees_with_general_inverse(self):
        assert float(inverse_p_integer(2, 2)) == pytest.approx(
            inverse_p(2.0, 2.0), rel=1e-15
        )


class TestDerivatives:
    def test_dp_at_golden_point(self):
        # closed form from implicit differentiation of lam^2 = p*(lam+1):
        # (1 + 3/sqrt(5)) / 2
        expected = (1.0 + 3.0 / math.sqrt(5.0)) / 2.0
        assert dlambda_dp(1.0, 2.0) == pytest.approx(expected, rel=1e-9)

    def test_dp_is_one_along_order_one(self):
        for p in (0.5, 2.0, 3.7):
            assert dlambda_dp(p, 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_dp_matches_finite_difference(self):
        fd = central_difference(lambda p: solve_lambda(p, 2.0).value, 1.0)
        assert dlambda_dp(1.0, 2.0) == pytest.approx(fd, rel=1e-5)

    def test_dq_at_golden_point(self):
        expected = math.log(PHI) / (3.0 - PHI)
        assert dlambda_dq(1.0, 2.0) == pytest.approx(expected, rel=1e-9)

    def test_dq_matches_finite_difference(self):
        fd = central_difference(lambda q: solve_lambda(1.0, q).value, 2.0)
        assert dlambda_dq(1.0, 2.0) == pytest.approx(fd, rel=1e-5)

    def test_dq_finite_at_order_one(self):
        value = dlambda_dq(2.0, 1.0)
        assert math.isfinite(value) and value > 0

    def test_positive_in_sub_regime(self):
        assert dlambda_dp(0.25, 2.0) > 0
        assert dlambda_dq(0.25, 2.0) > 0

    def test_dq_positive_after_saturation(self):
        # lam(5, 21) rounds onto 6 in doubles; the gap p+1-lam must come
        # from the identity p*lam^(-q), not from the subtraction
        value = dlambda_dq(5.0, 21.0)
        assert 0.0 < value < 1e-10
        expected = 5.0 * math.exp(-21.0 * math.log(6.0))  # gap, to leading order
        assert value == pytest.approx(
            expected * 6.0 * math.log(6.0) / 6.0, rel=1e-3
        )

    def test_critical_regime_raises(self):
        with pytest.raises(CriticalRegime):
            dlambda_dp(1.0, 1.0)
        with pytest.raises(CriticalRegime):
            dlambda_dq(0.5, 2.0)

    def test_random_points_match_finite_differences(self):
        # q capped where h=1e-6 central differences still resolve the
        # derivative: past q ~ 8 the q-derivative decays like (p+1)^-q and
        # drowns in the ulp noise of the two solves
        rng = random.Random(11)
        checked = 0
        while checked < 200:
            p = rng.uniform(0.1, 4.0)
            q = rng.uniform(0.3, 6.0)
            if abs(p * q - 1.0) <= 0.1:
                continue
            checked += 1
            fd_p = central_difference(lambda x: solve_lambda(x, q).value, p)
            fd_q = central_difference(lambda x: solve_lambda(p, x).value, q)
            dp = dlambda_dp(p, q)
            dq = dlambda_dq(p, q)
            assert dp > 0 and dq > 0
            assert dp == pytest.approx(fd_p, rel=1e-5)
            assert dq == pytest.approx(fd_q, rel=1e-5)


class TestBounds:
    def test_basic_bound_examples(self):
        assert lower_bound_basic(1.0, 2.0) == pytest.approx(4.0 / 3.0)
        assert lower_bound_basic(1.0, 2.0) < PHI
        assert lower_bound_basic(1.0, 1.0) == 1.0
        assert lower_bound_basic(2.0, 3.0) == pytest.approx(9.0 / 4.0)

    def test_refined_bound_examples(self):
        assert lower_bound_refined(1.0) == 1.5
        assert 1.5 < solve_lambda(1, 2).value
        assert lower_bound_refined(2.0) == pytest.approx(8.0 / 3.0)

    def test_refined_bound_validity_region(self):
        inv_phi = 1.0 / PHI
        for p in (inv_phi + 1e-3, 1.0, 2.0, 4.5):
            for q in (2.0, 3.0, 10.0):
                assert lower_bound_refined(p) < solve_lambda(p, q).value

    def test_crossover_examples(self):
        assert bound_crossover(1.0) == 3.0
        assert bound_crossover(0.0) == 0.0
        assert bound_crossover(2.0) == 8.0

    def test_crossover_characterizes_bound_order(self):
        for i in range(1, 17):
            for j in range(1, 33):
                p = Fraction(i, 4)
                q = Fraction(j, 4)
                basic = (p + 1) * q / (q + 1)
                refined = p + 1 - Fraction(1, p + 1)
                assert (basic <= refined) == (q <= (p + 1) ** 2 - 1)
