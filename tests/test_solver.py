import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from anacci import qkernel, solver
from anacci.errors import (
    AnacciError,
    CriticalRegime,
    InputOutOfRange,
    NonPositiveInput,
    WeightOverflow,
    WeightUnderflow,
    ZeroUnderflow,
)
from anacci.figures import DEFAULT_GRIDS
from anacci.qkernel import RegionClass, classify
from anacci.solver import (
    AnacciConstant,
    bound_crossover,
    dlambda_dp,
    dlambda_dq,
    inverse_p,
    inverse_p_integer,
    lower_bound_basic,
    lower_bound_refined,
    solve_lambda,
)

from oracles import (
    bisect_lambda,
    bracket_miss_ulp,
    central_difference,
    mp_digits,
    mp_dlambda,
    mp_root,
    relative_units,
    ulp_distance,
)

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


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _regime_draws(regime, count=25, seed=5):
    """(p, q) draws by the laws of the benchmark's regime_draw, in the same
    order of random calls, so seed 5 gives its first draws."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        if regime == "super":
            p, q = _log_uniform(rng, 0.1, 10.0), _log_uniform(rng, 0.5, 50.0)
            if p * q <= 1.001:
                continue
        elif regime == "sub":
            p = _log_uniform(rng, 1e-3, 1.0)
            q = rng.uniform(1e-2, 0.999) / p
            if math.log(p / (p + 1.0)) / q < -300.0 * math.log(10.0):
                continue
        elif regime == "near":
            offset = _log_uniform(rng, 1e-11, 1e-3) * rng.choice((-1.0, 1.0))
            p = _log_uniform(rng, 0.2, 5.0)
            q = (1.0 + offset) / p
        else:  # saturated
            p, q = _log_uniform(rng, 0.1, 10.0), _log_uniform(rng, 1e2, 1e17)
        draws.append((p, q))
    return draws


def _full_range_pairs(count=300, seed=3):
    """(p, q) with each side 2^e * (1 + U), e uniform over the positive
    doubles, subnormals included."""
    rng = random.Random(seed)

    def draw():
        return math.ldexp(1.0 + rng.random(), rng.randint(-1074, 1023))

    return [(draw(), draw()) for _ in range(count)]


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
        # Q = (lam-1)(lam-p) at q = 1: the zero p comes back exactly, unsolved
        assert tuple(solve_lambda(3, 1)) == (3.0, 1.0, 3.0, 3.0, 3.0, 0.0, 0, RegionClass.SUPER)
        assert tuple(solve_lambda(0.3, 1.0)) == (0.3, 1.0, 0.3, 0.3, 0.3, 0.0, 0, RegionClass.SUB)

    def test_order_one_root_is_weight_on_random_draws(self):
        rng = random.Random(4)
        lo, hi = math.log(1e-6), math.log(1e6)
        for _ in range(5000):
            p = math.exp(rng.uniform(lo, hi))
            result = solve_lambda(p, 1.0)
            if result.regime is not RegionClass.CRITICAL:
                assert result.value == p, p

    def test_order_one_keeps_the_regime_rule(self):
        # p = 1 stays critical, a p off 1 by any amount is not, and an exact
        # p with no equal double is solved
        assert solve_lambda(1, 1.0).value == 1.0
        assert solve_lambda(1.0 + 1e-13, 1.0).regime is RegionClass.SUPER
        p = Fraction(10**15 + 1, 10**15)
        assert solve_lambda(p, 1).iterations > 0

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

    def test_exact_inputs_beyond_the_double_range(self):
        # positive and finite as given, but 0 or inf as doubles
        huge, tiny = 10**400, Fraction(1, 10**400)
        for p, q, name in (
            (huge, 1, "p"),
            (tiny, 1, "p"),
            (1, huge, "q"),
            (2, tiny, "q"),
            (huge, 1.0, "p"),
            (tiny, 2.0, "p"),
            (huge, tiny, "p"),
        ):
            with pytest.raises(InputOutOfRange, match=f"^{name} lies outside"):
                solve_lambda(p, q)

    def test_zero_below_the_double_range(self):
        # (p/(p+1))^(1/q) = exp(-1151): the bracket's lower end underflows
        with pytest.raises(ZeroUnderflow, match="below the representable range"):
            solve_lambda(1e-5, 0.01)
        with pytest.raises(ZeroUnderflow, match="below the representable range"):
            dlambda_dp(1e-5, 0.01)

    @pytest.mark.parametrize("p,q", _mpmath_panel())
    def test_matches_mpmath_panel(self, p, q):
        root = mp_root(p, q)
        r = solve_lambda(p, q)
        assert ulp_distance(r.value, root) <= 16.0
        if not r.bracket_lo <= root <= r.bracket_hi:
            edge = r.bracket_lo if root < r.bracket_lo else r.bracket_hi
            assert ulp_distance(edge, root) <= 16.0

    @pytest.mark.parametrize("p,q", [(1e20, 1e-19), (3.18e302, 1.48e-220)])
    def test_super_start_that_rounds_out_of_the_bracket(self, p, q):
        # exp(-q*log1p(p)) rounds to 1, so the series start (p+1) - u - ...
        # came out at or below 0 and raised a raw ValueError in its log;
        # 50 digits cannot resolve p+1-lam here
        r = solve_lambda(p, q)
        root = mp_root(p, q, mp_digits(p, q))
        assert ulp_distance(r.value, root) <= 0.5
        assert r.bracket_lo <= root <= r.bracket_hi

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


def _work_mix(seed=6, count=2000):
    """Seeded (p, q) draws: anywhere, near the hyperbola, saturated and on
    the integer lattice, in turn."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    draws = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            draws.append((log_uniform(1e-2, 1e2), log_uniform(0.1, 316.0)))
        elif kind == 1:
            p = log_uniform(0.2, 5.0)
            offset = rng.choice((-1, 1)) * log_uniform(1e-11, 1e-3)
            draws.append((p, (1.0 + offset) / p))
        elif kind == 2:
            draws.append((log_uniform(0.1, 10.0), log_uniform(1e2, 1e17)))
        else:
            draws.append((rng.randint(1, 50), rng.randint(1, 200)))
    return draws


class TestSolverWork:
    """Deterministic counts of the work one solve does."""

    def test_inputs_checked_once_and_no_public_kernel_calls(self, monkeypatch):
        calls = {"check": 0, "public": 0}
        read = qkernel._real

        def counted_read(value, name, *args, **kwargs):
            calls["check"] += 1
            return read(value, name, *args, **kwargs)

        def public(func):
            def counted(*args):
                calls["public"] += 1
                return func(*args)

            return counted

        monkeypatch.setattr(solver, "_real", counted_read)
        monkeypatch.setattr(qkernel, "_real", counted_read)
        for module in (qkernel, solver):
            for name in ("q_value", "dq_value"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, public(getattr(module, name)))
        points = [(1, 2), (0.25, 2.0), (1, 1), (5, 40), (1.7, 3.1), (1, 1e6)]
        points.append((Fraction(10**15 + 1, 10**15), 1))
        for p, q in points:
            calls.update(check=0, public=0)
            solve_lambda(p, q)
            assert calls == {"check": 2, "public": 0}, (p, q)  # p and q once each

    def test_out_of_range_input_checked_once(self, monkeypatch):
        # p raises as it is read, before q is
        calls = []
        read = qkernel._real
        monkeypatch.setattr(
            solver, "_real", lambda value, name: calls.append(name) or read(value, name)
        )
        for p, q in ((10**400, 1), (Fraction(1, 10**400), 1)):
            calls.clear()
            with pytest.raises(InputOutOfRange):
                solve_lambda(p, q)
            assert calls == ["p"], (p, q)

    def test_no_fraction_built_for_an_integer_pair(self, monkeypatch):
        built = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        assert Fraction(1, 2) == 0.5 and built  # the hook sees construction
        built.clear()
        assert solve_lambda(5, 40).regime is RegionClass.SUPER
        assert built == []

    def test_iteration_total_is_pinned(self):
        # every draw solves; a change to the solver loop or to the kernel's
        # rounding that alters the work done shows here as a changed total
        assert sum(solve_lambda(p, q).iterations for p, q in _work_mix()) == 3883


def _stream_mix(seed=11, count=600):
    """Seeded draws of three regimes, ``count`` each: super-critical with
    p*q > 1.001, sub-critical with a zero of at least 1e-300, and
    |p*q - 1| in [1e-11, 1e-3], as in the benchmark's solve stream."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    draws = {"super": [], "sub": [], "near": []}
    while len(draws["super"]) < count:
        p, q = log_uniform(0.1, 10.0), log_uniform(0.5, 50.0)
        if p * q > 1.001:
            draws["super"].append((p, q))
    while len(draws["sub"]) < count:
        p = log_uniform(1e-3, 1.0)
        q = rng.uniform(1e-2, 0.999) / p
        if math.log(p / (p + 1.0)) / q >= -300.0 * math.log(10.0):
            draws["sub"].append((p, q))
    for _ in range(count):
        p = log_uniform(0.2, 5.0)
        draws["near"].append((p, (1.0 + rng.choice((-1, 1)) * log_uniform(1e-11, 1e-3)) / p))
    return draws


def _initial_bracket(p, q, regime):
    """The bracket a solve starts from: [lambda_min, p+1] above the
    hyperbola, [(p/(p+1))^(1/q), lambda_min] below it."""
    p, q = float(p), float(q)
    lmin = (p + 1.0) * q / (q + 1.0)
    if regime is RegionClass.SUPER:
        return min(lmin, p + 1.0), p + 1.0
    return (p / (p + 1.0)) ** (1.0 / q), lmin


class TestSeriesStarts:
    """The starts from the paper's series and from Q's Taylor model at 1."""

    # mean evaluations of Q per solve, per regime
    CEILINGS = {"near": 2.5, "sub": 6.0, "super": 3.2}

    def _check_means(self, draws):
        for regime, points in draws.items():
            mean = sum(solve_lambda(p, q).iterations for p, q in points) / len(points)
            assert mean <= self.CEILINGS[regime], (regime, mean)

    def test_evaluations_per_regime_on_the_work_mix(self):
        draws = {"near": [], "sub": [], "super": []}
        for i, (p, q) in enumerate(_work_mix()):
            if i % 4 == 1:
                draws["near"].append((p, q))
            elif i % 4 == 0:
                draws["super" if p * q > 1.0 else "sub"].append((p, q))
        self._check_means(draws)

    def test_evaluations_per_regime_on_a_stream_mix(self):
        self._check_means(_stream_mix())

    @pytest.mark.parametrize("p,q", [
        (3.369865157708169e191, 3.3498480181401048e-192),
        (4.3171924246304695e226, 2.970844466482842e-227),
    ])
    def test_taylor_start_after_the_series_start_left_its_bracket(self, p, q):
        # p*q - 1 is 0.13 and 0.28, inside the Taylor band, and the series
        # start falls out of the bracket, so the Taylor start must follow
        # the bracket guard
        r = solve_lambda(p, q)
        assert r.iterations <= 6
        assert ulp_distance(r.value, mp_root(p, q, mp_digits(p, q))) <= 2.0

    def test_start_lies_strictly_inside_the_bracket(self, monkeypatch):
        points = [(Fraction(10**15 + 1, 10**15), 1)]
        for p in (0.2, 1.0, 4.0):
            # both sides of the band |p*q - 1| = 0.5 around the Taylor start
            for edge in (1.5, 0.5):
                points += [(p, (edge + d) / p) for d in (-1e-3, -1e-9, 1e-9, 1e-3)]
        # the doubles next to 1/q, whose products round onto 1 where they are
        # not 1; q = 1.0 returns its zero p unsolved, the next double keeps a
        # start
        for q in (1.0, math.nextafter(1.0, 2.0), 2.0, 0.5, 3.0, 0.1):
            points += [(p, q) for p in _steps(1.0 / q, 4)]
        assert sum(p * q == 1.0 != Fraction(p) * Fraction(q) for p, q in points) >= 4
        starts = []
        kernel = solver._q_dq

        def recorded(x, *args):
            starts.append(x)
            return kernel(x, *args)

        monkeypatch.setattr(solver, "_q_dq", recorded)
        solved = 0
        for p, q in points:
            starts.clear()
            result = solve_lambda(p, q)
            if result.regime is RegionClass.CRITICAL or q == 1 and p == result.p:
                assert starts == []
                continue
            lo, hi = _initial_bracket(p, q, result.regime)
            assert lo < starts[0] < hi, (p, q, lo, starts[0], hi)
            solved += 1
        assert solved >= 40


def _critical_band_draws(seed=7, count=300):
    """p log-uniform in [0.2, 5] and |p*q - 1| log-uniform in [1e-16, 1e-12]
    with a random sign: the band a tolerance on p*q - 1 once called
    critical."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        p = _log_uniform(rng, 0.2, 5.0)
        offset = _log_uniform(rng, 1e-16, 1e-12)
        draws.append((p, (1.0 + rng.choice((-1.0, 1.0)) * offset) / p))
    return draws


class TestNearCriticalAccuracy:
    def _check(self, draws):
        for p, q in draws:
            result = solve_lambda(p, q)
            assert result.regime is not RegionClass.CRITICAL, (p, q)
            root = mp_root(p, q)
            assert ulp_distance(result.value, root) <= 4.0, (p, q)
            assert bracket_miss_ulp(result.bracket_lo, result.bracket_hi, root) <= 1.0, (p, q)
            assert result.iterations <= 40, (p, q)

    def test_band_against_mpmath(self):
        # |p*q - 1| log-uniform in [1e-16, 0.6], alternating in sign
        rng = random.Random(20261018)
        draws = []
        for i in range(20):
            p = _log_uniform(rng, 0.2, 5.0)
            offset = _log_uniform(rng, 1e-16, 0.6)
            draws.append((p, (1.0 + (offset if i % 2 else -offset)) / p))
        self._check(draws)

    def test_critical_band_against_mpmath(self):
        draws = _critical_band_draws()
        # four products round onto 1, so their excess is taken exactly
        assert sum(p * q - 1.0 == 0.0 for p, q in draws) == 4
        self._check(draws)


class TestRegime:
    def test_regime_is_the_one_solved(self):
        # p*q - 1 = 1e-15 exactly: super-critical, although the float
        # product sits inside the critical tolerance band
        result = solve_lambda(Fraction(10**15 + 1, 10**15), 1)
        assert result.regime is RegionClass.SUPER
        assert result.value > 1.0
        assert result.iterations > 0

    def test_regime_per_region(self):
        assert solve_lambda(1, 2).regime is RegionClass.SUPER
        assert solve_lambda(0.25, 2).regime is RegionClass.SUB
        assert solve_lambda(Fraction(1, 3), 3).regime is RegionClass.CRITICAL
        assert solve_lambda(1.0, 1.0 + 1e-13).regime is RegionClass.SUPER
        assert solve_lambda(1.0 + 1e-13, 1.0).regime is RegionClass.SUPER

    def test_derivatives_follow_the_stored_regime(self):
        with pytest.raises(CriticalRegime):
            dlambda_dp(1.0, 1.0 + 1e-13)
        assert dlambda_dp(Fraction(10**15 + 1, 10**15), 1) > 0


def _steps(x, count):
    """x and its ``count`` neighbouring doubles on either side."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


class TestFloatRegimeRule:
    """solve_lambda decides a float pair's regime itself, with no classify
    call; it must agree with classify everywhere, and both must give the
    sign of p*q - 1 for the exact doubles."""

    def test_float_pairs_at_the_band_edges(self):
        # the edges are where p*q rounds onto 1; no tolerance widens them
        points = []
        for q in (1.0, 2.0, 0.5, 3.0, 1e-3, 0.1, 7.0, math.nextafter(1.0, 2.0)):
            # at q = 1 and its powers of 2 the product p*q is exact; the
            # other q round the products of some doubles p next to 1/q onto 1
            points += [(p, q) for p in _steps(1.0 / q, 4)]
        rounded = 0
        regimes = set()
        for p, q in points:
            regime = solve_lambda(p, q).regime
            assert regime is classify(p, q), (p, q)
            excess = Fraction(p) * Fraction(q) - 1
            expected = RegionClass.SUPER if excess > 0 else (
                RegionClass.SUB if excess < 0 else RegionClass.CRITICAL)
            assert regime is expected, (p, q)
            rounded += p * q == 1.0 and excess != 0
            regimes.add(regime)
        assert regimes == set(RegionClass)
        assert rounded >= 6, rounded

    def test_exact_and_mixed_pairs(self):
        pairs = [(2, 3), (1, 1), (Fraction(1, 3), 3), (Fraction(10**15 + 1, 10**15), 1),
                 (Fraction(1, 4), 2), (True, True), (True, 2), (Fraction(1, 4), True),
                 (1, 1.0 + 1e-13), (Fraction(1, 3), 3.0), (2, 0.25)]
        for p, q in pairs:
            assert solve_lambda(p, q).regime is classify(p, q), (p, q)


class TestIntPairRule:
    """solve_lambda decides an int pair's regime by p*q > 1 in integers; it
    must give the record of the generic exact path."""

    def test_int_pair_matches_the_fraction_pair(self):
        for m in range(1, 51):
            for n in range(1, 201):
                assert repr(tuple(solve_lambda(m, n))) == repr(
                    tuple(solve_lambda(Fraction(m), Fraction(n)))
                ), (m, n)

    def test_unit_pair_is_critical(self):
        assert solve_lambda(1, 1).regime is RegionClass.CRITICAL

    def test_int_beyond_the_double_range(self):
        for p, q in ((10**400, 1), (1, 10**400)):
            with pytest.raises(InputOutOfRange):
                solve_lambda(p, q)


class TestPinnedResults:
    """Whole result tuples, recorded before the solver's fixed-cost cuts
    (the regime written out, _ln inlined, tuple.__new__) and re-recorded
    where the series starts moved them; any change to a field's bits shows
    here."""

    PANEL = {
        (1, 2): "(1.0, 2.0, 1.618033988749895, 1.6180339887498947, 1.618033988749895, "
                "2.220446049250313e-16, 6, <RegionClass.SUPER: 'super'>)",
        (5, 40): "(5.0, 40.0, 6.0, 5.853658536585366, 6.0, 0.0, 1, "
                 "<RegionClass.SUPER: 'super'>)",
        (0.3, 1.5): "(0.3, 1.5, 0.5364343536942501, 0.4803289530622864, "
                    "0.5364343536971906, 0.0, 5, <RegionClass.SUB: 'sub'>)",
        (1 + 1e-9, 1): "(1.000000001, 1.0, 1.000000001, 1.000000001, 1.000000001, "
                       "0.0, 0, <RegionClass.SUPER: 'super'>)",
        (1, 1e6): "(1.0, 1000000.0, 2.0, 1.999998000002, 2.0, 1.0, 1, "
                  "<RegionClass.SUPER: 'super'>)",
        (2, 3): "(2.0, 3.0, 2.919639565839418, 2.25, 2.9196395742946963, 0.0, 3, "
                "<RegionClass.SUPER: 'super'>)",
        (Fraction(10**15 + 1, 10**15), 1): "(1.000000000000001, 1.0, 1.000000000000001, "
                                            "1.0000000000000004, 2.000000000000001, 0.0, 1, "
                                            "<RegionClass.SUPER: 'super'>)",
    }

    def test_panel(self):
        for (p, q), expected in self.PANEL.items():
            result = solve_lambda(p, q)
            assert type(result) is AnacciConstant
            assert repr(tuple(result)) == expected, (p, q)

    def test_critical_result(self):
        result = solve_lambda(0.5, 2.0)
        assert type(result) is AnacciConstant
        assert tuple(result) == (0.5, 2.0, 1.0, 1.0, 1.0, 0.0, 0, RegionClass.CRITICAL)


class TestResultRecord:
    FIELDS = (
        "p", "q", "value", "bracket_lo", "bracket_hi", "residual", "iterations", "regime"
    )

    def test_fields_in_order(self):
        assert AnacciConstant._fields == self.FIELDS
        r = solve_lambda(1, 2)
        assert tuple(r) == tuple(getattr(r, name) for name in self.FIELDS)
        assert r.value == PHI and r.regime is RegionClass.SUPER

    def test_immutable(self):
        r = solve_lambda(1, 2)
        for name in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(r, name, 0.0)
        with pytest.raises(TypeError):
            r[2] = 0.0
        assert r.value == PHI

    def test_hashable(self):
        a, b = solve_lambda(1, 2), solve_lambda(1.0, 2.0)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, solve_lambda(0.25, 2)}) == 2

    def test_asdict_and_equality_with_a_constructed_record(self):
        r = solve_lambda(1, 2)
        assert r == AnacciConstant(*r) and hash(r) == hash(AnacciConstant(*r))
        assert r._asdict() == dict(zip(self.FIELDS, r))
        assert r._replace(iterations=0).iterations == 0


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

    def test_underflowed_weight_raises(self):
        # the true weight, about 1e-400, is below the double range
        with pytest.raises(WeightUnderflow, match="below the smallest positive double"):
            inverse_p(1e-200, 2.0)

    def test_overflowed_weight_raises(self):
        # (lam - 1) / (1 - lam^(-q)) passes the largest double
        with pytest.raises(WeightOverflow, match="above the largest finite double"):
            inverse_p(1.7e308, 0.001)
        # 1/q at lam = 1
        with pytest.raises(WeightOverflow, match="q=5e-324"):
            inverse_p(1.0, 5e-324)
        assert inverse_p(1.7e308, 1.0) == pytest.approx(1.7e308, rel=1e-15)

    def test_subnormal_weight_is_returned(self):
        p = inverse_p(1e-160, 2.0)
        assert 0.0 < p < 2.3e-308
        assert p == pytest.approx(1e-320, rel=1e-3)


class TestInversePInteger:
    def test_rational_result(self):
        assert inverse_p_integer(2, 2) == Fraction(4, 3)
        assert inverse_p_integer(3, 3) == Fraction(27, 13)

    def test_order_one_is_identity(self):
        for m in (1, 2, 7):
            assert inverse_p_integer(m, 1) == m
        # floats come back exactly, not through 1/fsum(lam**-1)
        rng = random.Random(3)
        for lam in [1.7e308, 0.3, 5e-324] + [rng.uniform(1.0, 100.0) for _ in range(2000)]:
            assert inverse_p_integer(lam, 1) == lam

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

    @pytest.mark.parametrize(
        "lam, n",
        [(2.0, 2000), (10.0, 400), (1.0000001, 5000), (0.5, 60), (0.999, 300)],
    )
    def test_float_mode_high_order(self, lam, n):
        # lam^n overflows for the first two; the answer is the exact value
        # N^n / (D * (N^n - D^n)/(N - D)), lam = N/D, rounded once by the
        # correctly rounded int / int
        num, den = lam.as_integer_ratio()
        exact = num**n / (den * ((num**n - den**n) // (num - den)))
        assert inverse_p_integer(lam, n) == exact

    def test_float_mode_rounds_the_exact_weight_once(self):
        rng = random.Random(5)
        mismatches = []
        for _ in range(300):
            lam = math.exp(rng.uniform(math.log(1e-2), math.log(1e3)))
            n = rng.randint(1, 60)
            exact = Fraction(lam) ** n / sum(Fraction(lam) ** k for k in range(n))
            if inverse_p_integer(lam, n) != float(exact):
                mismatches.append((lam, n))
        assert not mismatches

    def test_numpy_and_bool_targets_stay_exact(self):
        # numpy integers are Rationals whose own powers wrap past 2^63
        assert inverse_p_integer(np.int64(2), 2) == Fraction(4, 3)
        p = inverse_p_integer(np.int64(3), 50)
        assert type(p) is Fraction and p == Fraction(2 * 3**50, 3**50 - 1)
        p = inverse_p_integer(True, 3)
        assert type(p) is Fraction and p == Fraction(1, 3)
        assert type(inverse_p_integer(np.float64(1.5), 4)) is float

    @pytest.mark.parametrize("big", [Decimal("1e400"), Decimal("1e-400")])
    def test_non_double_target_outside_the_double_range(self, big):
        # float() reads these as inf, which raised a raw OverflowError, and as 0
        with pytest.raises(InputOutOfRange, match="^m_lambda lies outside"):
            inverse_p_integer(big, 3)

    def test_underflowed_weight_raises(self):
        with pytest.raises(WeightUnderflow, match="n=2"):
            inverse_p_integer(1e-200, 2)
        # exact mode has no underflow
        assert inverse_p_integer(Fraction(1, 10**200), 2) > 0

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

    # worst relative error against mp_dlambda on _regime_draws, in units of
    # 2^-52, (dp, dq); measured 2, 137, 646, 499, 15, 29 and 3.3e10 twice.
    # Near the hyperbola the double lam holds lam-1 only to ulp(1), and
    # lam-1 is as small as 1e-11.
    PANEL_BOUNDS = {
        "saturated": (16.0, 160.0),
        "sub": (700.0, 550.0),
        "super": (16.0, 32.0),
        "near": (4e10, 4e10),
    }

    @pytest.mark.parametrize("regime", sorted(PANEL_BOUNDS))
    def test_matches_mpmath_panel(self, regime):
        for p, q in _regime_draws(regime):
            exact = mp_dlambda(p, q)
            for value, want, bound in zip(
                (dlambda_dp(p, q), dlambda_dq(p, q)), exact, self.PANEL_BOUNDS[regime]
            ):
                assert value >= 0.0
                assert relative_units(value, want) <= bound, (p, q)

    def test_full_range_gives_a_value_or_a_named_error(self):
        values = 0
        for p, q in _full_range_pairs():
            for derivative in (dlambda_dp, dlambda_dq):
                try:
                    value = derivative(p, q)
                except AnacciError:
                    continue
                assert 0.0 <= value < math.inf, (derivative.__name__, p, q, value)
                values += 1
        assert values > 200

    def test_saturated_zero_with_an_unresolved_gap(self):
        # lam*(q+1) - (p+1)*q cancelled to 0, a raw ZeroDivisionError
        p, q = 0.16587, 8.51e16
        dp, dq = mp_dlambda(p, q)
        assert relative_units(dlambda_dp(p, q), dp) <= 16.0
        assert dlambda_dq(p, q) == 0.0 and relative_units(0.0, dq) <= 1.0

    def test_zero_within_rounding_of_one(self):
        # at (1e-43, 1e223) p+1 rounds to 1 and so does the zero, which holds
        # no digit of lam-1.  The other zeros lie within 2^-42 of 1, where,
        # unguarded, the formulas give 0.8 for 1.333 at the first point and
        # are 1.75x and 8e-4 off at the others
        points = [(1e-43, 1e223), (0.5, 2.0000000000000004), (1.035e-96, 1.47e15),
                  (8.874e-16, 1.308e162)]
        for p, q in points:
            assert abs(solve_lambda(p, q).value - 1.0) < 2.0**-42
            for derivative in (dlambda_dp, dlambda_dq):
                with pytest.raises(CriticalRegime, match="within rounding of 1"):
                    derivative(p, q)

    def test_critical_band_gives_a_close_value_or_a_named_error(self):
        # a zero within 2^-42 of 1 keeps too few digits of lam - 1 for either
        # derivative; the rest of the band answers to 1e-3 relative
        raised = 0
        for p, q in _critical_band_draws(count=100):
            exact = mp_dlambda(p, q)
            for derivative, want in zip((dlambda_dp, dlambda_dq), exact):
                try:
                    value = derivative(p, q)
                except CriticalRegime:
                    raised += 1
                    continue
                assert abs(value - want) <= 1e-3 * abs(want), (derivative.__name__, p, q)
        assert 0 < raised < 200

    def test_order_one_answers_next_to_one(self):
        # at q = 1 the zero p is exact, and so are the formulas
        assert dlambda_dp(Fraction(10**15 + 1, 10**15), 1) == 1.0
        assert dlambda_dp(1.0 + 2.0**-52, 1.0) == 1.0

    def test_overflowing_terms_of_the_old_denominator(self):
        # lam*(q+1) and (p+1)*q both overflowed, and their difference was nan;
        # lam^(-q) underflows, so the gap is 0 and dp = (lam-1)/p
        assert dlambda_dp(1.58e92, 3.45e237) == pytest.approx(1.0, rel=1e-15)
        assert dlambda_dq(1.58e92, 3.45e237) == 0.0

    def test_dq_above_the_largest_double(self):
        # mpmath puts dlam/dq at 7.5e309
        with pytest.raises(InputOutOfRange, match="dlambda_dq lies above"):
            dlambda_dq(1.1643088451801888e307, 4.824694963117825e-30)
        assert 0.0 < dlambda_dp(1.1643088451801888e307, 4.824694963117825e-30) < 1e-26

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

    @pytest.mark.parametrize("p", [1e200, 1.35e154, 10**400, Fraction(10**400, 3)],
                             ids=["1e200", "1.35e154", "10**400", "10**400/3"])
    def test_crossover_past_the_doubles_is_named(self, p):
        # (p + 1.0) ** 2 raised a raw OverflowError; an exact p past the
        # doubles has no double to square
        match = "crossover" if isinstance(p, float) else "^p lies outside"
        with pytest.raises(InputOutOfRange, match=match):
            bound_crossover(p)

    def test_crossover_just_below_the_largest_double(self):
        assert bound_crossover(1.3e154) == (1.3e154 + 1.0) ** 2 - 1.0

    @pytest.mark.parametrize("p, q", [(10**400, 1), (Fraction(10**400, 7), 10**400),
                                      (Fraction(1, 10**400), Fraction(1, 10**400))],
                             ids=["10**400-1", "10**400/7-10**400", "10**-400-10**-400"])
    def test_basic_bound_past_the_doubles_is_named(self, p, q):
        # an int pair divided to a float and raised a raw OverflowError
        with pytest.raises(InputOutOfRange, match="basic bound"):
            lower_bound_basic(p, q)

    def test_basic_bound_rounds_the_exact_bound_once(self):
        for m in range(1, 30):
            for n in range(1, 30):
                assert lower_bound_basic(m, n) == (m + 1) * n / (n + 1)
        # exact inputs beyond the doubles whose bound is in range
        assert lower_bound_basic(1, Fraction(10**400, 7)) == 2.0
        p, q = Fraction(10**400, 3), Fraction(3, 10**400)
        assert lower_bound_basic(p, q) == float((p + 1) * q / (q + 1))

    @pytest.mark.parametrize("p", [math.nan, math.inf, -1.0])
    def test_crossover_rejects_a_weight_that_is_not_finite_and_non_negative(self, p):
        # nan and inf used to come back as the crossover itself
        with pytest.raises(NonPositiveInput, match="p must be finite and >= 0"):
            bound_crossover(p)

    def test_crossover_characterizes_bound_order(self):
        for i in range(1, 17):
            for j in range(1, 33):
                p = Fraction(i, 4)
                q = Fraction(j, 4)
                basic = (p + 1) * q / (q + 1)
                refined = p + 1 - Fraction(1, p + 1)
                assert (basic <= refined) == (q <= (p + 1) ** 2 - 1)
