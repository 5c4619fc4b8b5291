import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from anacci import lattice
from anacci.errors import InputOutOfRange, OrderOne
from anacci.lattice import (
    _gap,
    anacci,
    clear_cache,
    scaled_seq_A,
    scaled_seq_B,
    seq_diagonal,
    seq_fixed_m,
    seq_fixed_n,
)
from anacci.qkernel import eval_P
from anacci.solver import lower_bound_refined
from oracles import mp_gap, relative_units

PHI = (1.0 + math.sqrt(5.0)) / 2.0


class TestAnacci:
    def test_corner_values(self):
        assert anacci((1, 1)) == 1.0
        assert anacci((1, 2)) == pytest.approx(PHI, abs=1e-14)
        assert anacci((2, 2)) == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-14)

    def test_order_one_is_the_weight(self):
        # phi(m, 1) = m: the characteristic polynomial is lam - m
        assert [anacci((m, 1)) for m in range(1, 1001)] == list(range(1, 1001))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            anacci((0, 1))
        with pytest.raises(ValueError):
            anacci((1, -2))

    def test_memo_matches_fresh_solve_bitwise(self):
        clear_cache()
        first = anacci((3, 4))
        assert anacci((3, 4)) == first
        clear_cache()
        assert first == 4 - _gap(3, 4)  # a fresh gap, the memo dropped
        assert anacci((3, 4)) == first

    def test_weight_past_the_doubles(self):
        with pytest.raises(InputOutOfRange):
            anacci((10**400, 2))


# the lattice points on which every value is proven correctly rounded
CERTIFIED = sorted(
    {(m, n) for m in range(1, 51) for n in range(2, 61)}
    | {(m, n) for m in range(1, 201) for n in range(2, 11)}
)


class TestGap:
    def test_certified_correctly_rounded(self):
        # P(x) = x^n - m(x^(n-1) + ... + 1) has one positive root, and P < 0
        # below it: P < 0 < P at the two half-ulp midpoints around the value,
        # in exact rationals, puts the root between them
        assert len(CERTIFIED) == 4300
        wrong = []
        for m, n in CERTIFIED:
            value = Fraction(anacci((m, n)))
            below = (value + Fraction(math.nextafter(value, 0.0))) / 2
            above = (value + Fraction(math.nextafter(value, math.inf))) / 2
            if not eval_P(below, m, n) < 0 < eval_P(above, m, n):
                wrong.append((m, n))
        assert wrong == []

    def test_tetranacci_constant(self):
        # 1.92756197548292530426..., 1.0e-16 from this double
        assert anacci((1, 4)) == 1.9275619754829254

    def test_within_two_units_of_mpmath(self):
        # (22, 6) is the worst point seen; the last gaps reach the subnormals
        points = [(m, n) for m in range(1, 201, 7)
                  for n in (2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 45, 60)]
        points += [(1, 500), (1, 1000), (1, 1070), (2, 600), (1000, 100)]
        worst = max((relative_units(_gap(m, n), mp_gap(m, n)), (m, n)) for m, n in points)
        assert worst[0] <= 2.0, worst

    def test_gap_is_zero_only_below_the_doubles(self):
        # the gap is positive exactly where its first factor m/(m+1)^n has
        # a double, and the value is its ceiling m+1 beyond that
        for m, n_max in ((1, 1200), (2, 800), (7, 500), (50, 250), (1000, 150),
                         (10**6, 100), (2**600, 3)):
            for n in range(2, n_max):
                gap = _gap(m, n)
                assert (gap > 0.0) == (m / (m + 1) ** n > 0.0), (m, n)
                if gap == 0.0:
                    assert anacci((m, n)) == m + 1, (m, n)
        assert anacci((1, 10**5)) == 2.0

    def test_lattice_runs_without_the_solver(self):
        script = (
            "import sys\n"
            "from anacci.lattice import anacci\n"
            "anacci((3, 4))\n"
            "print(sorted(m for m in sys.modules if m.startswith('anacci.')))\n"
        )
        source = str(Path(lattice.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": source}).stdout
        assert out.strip() == "['anacci.errors', 'anacci.lattice']"


class TestBounds37:
    # eq. (37): m + 1 - 1/(m + 1) < phi(m, n) < m + 1 for n > 1
    def test_golden_enclosure(self):
        lower, upper = lower_bound_refined(1), 1 + 1.0
        assert (lower, upper) == (1.5, 2.0)
        assert lower < anacci((1, 2)) < upper

    def test_values(self):
        assert lower_bound_refined(2) == pytest.approx(8.0 / 3.0)
        assert lower_bound_refined(2) < anacci((2, 3)) < 3.0

    def test_holds_over_lattice(self):
        for m in range(1, 51):
            for n in range(2, 11):
                value = anacci((m, n))
                assert lower_bound_refined(m) < value
                assert value <= m + 1  # equality only at double resolution


class TestSequences:
    def test_fixed_m_values(self):
        seq = seq_fixed_m(1, 4)
        assert seq[0] == 1.0
        assert seq[1] == pytest.approx(PHI, abs=1e-13)
        assert seq[2] == pytest.approx(1.8392867552141612, abs=1e-12)
        assert seq[3] == pytest.approx(1.927561975482925, abs=1e-12)

    def test_fixed_m_singleton(self):
        assert seq_fixed_m(4, 1) == [pytest.approx(4.0, abs=1e-12)]

    def test_fixed_m_strictly_increasing_toward_limit(self):
        # the true sequence is strictly increasing; its correctly rounded
        # values never fall, though deep in n they tie on the ceiling m+1
        for m in (1, 2, 7, 50, 200, 1000):
            seq = seq_fixed_m(m, 400)
            assert all(b >= a for a, b in zip(seq, seq[1:])), m
            assert seq[-1] <= m + 1.0

    def test_fixed_n_strictly_increasing(self):
        for n in (1, 2, 3, 10):
            seq = seq_fixed_n(n, 50)
            assert all(b > a for a, b in zip(seq, seq[1:]))

    def test_diagonal_kn(self):
        seq = seq_diagonal(1, 3, "kn")
        assert seq[0] == 1.0
        assert seq[1] == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-13)
        assert seq[2] == pytest.approx(3.951373035591441, abs=1e-12)

    def test_diagonal_km(self):
        seq = seq_diagonal(2, 2, "km")
        assert seq == [anacci((1, 2)), anacci((2, 4))]

    def test_diagonals_strictly_increasing(self):
        for k in (1, 2, 3):
            for which in ("kn", "km"):
                seq = seq_diagonal(k, 12, which)
                assert all(b > a for a, b in zip(seq, seq[1:])), (k, which)

    def test_diagonal_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            seq_diagonal(1, 3, "nk")


class TestScaledSequences:
    def test_order_one_collapses_to_integers(self):
        seq = scaled_seq_A(1, 3)
        assert seq == [pytest.approx(v, abs=1e-12) for v in (2.0, 3.0, 4.0)]

    def test_scaled_A_example(self):
        seq = scaled_seq_A(2, 2)
        assert seq[0] == pytest.approx(2.0 * PHI, abs=1e-12)
        assert seq[1] == pytest.approx(1.5 * (1.0 + math.sqrt(3.0)), abs=1e-12)
        assert seq[0] < seq[1]

    def test_scaled_A_strictly_increasing(self):
        for n in (1, 2, 5, 10):
            seq = scaled_seq_A(n, 50)
            assert all(b > a for a, b in zip(seq, seq[1:]))

    def test_scaled_B_example(self):
        seq = scaled_seq_B(2, 2)
        assert seq[0] == pytest.approx(PHI, abs=1e-13)
        assert seq[1] == pytest.approx((1.0 + math.sqrt(3.0)) / 2.0, abs=1e-13)
        assert seq[0] > seq[1]

    def test_scaled_B_rejects_order_one(self):
        with pytest.raises(OrderOne):
            scaled_seq_B(1, 5)

    def test_scaled_B_decreasing_to_one(self):
        for n in (2, 3, 5):
            seq = scaled_seq_B(n, 50)
            assert all(a > b for a, b in zip(seq, seq[1:]))
            assert 1.0 < seq[-1] < 1.0 + 1.0 / 50 + 1e-9

    def test_scaled_B_tail_inside_sandwich(self):
        value = scaled_seq_B(3, 50)[-1]
        assert 1.0 < value < 1.02 + 1e-9


class TestAppendixChains:
    def test_chain_a_links(self):
        for n in (2, 3, 7):
            for m in range(1, 50):
                lhs = (m + 1) / m * anacci((m, n))
                mid1 = (m + 1) ** 2 / m
                mid2 = (m + 2) / (m + 1) * (m + 2 - 1 / (m + 2))
                rhs = (m + 2) / (m + 1) * anacci((m + 1, n))
                assert lhs < mid1
                assert mid1 <= mid2 + 1e-12
                assert mid2 < rhs

    def test_chain_b_links(self):
        for n in (2, 3, 7):
            for m in range(1, 50):
                here = anacci((m, n)) / m
                nxt = anacci((m + 1, n)) / (m + 1)
                lower_tail = (m + 2) / (m + 1) - 1.0 / ((m + 2) * (m + 1))
                assert lower_tail < nxt
                assert nxt < here
                assert here < 1.0 + 1.0 / m + 1e-12
