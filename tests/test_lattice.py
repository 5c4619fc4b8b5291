import math

import pytest

from anacci.errors import OrderOne
from anacci.lattice import (
    anacci,
    clear_cache,
    scaled_seq_A,
    scaled_seq_B,
    seq_diagonal,
    seq_fixed_m,
    seq_fixed_n,
)
from anacci.solver import lower_bound_refined, solve_lambda

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
        assert first == solve_lambda(3, 4).value
        assert anacci((3, 4)) == first
        clear_cache()
        assert anacci((3, 4)) == first


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
        # the true sequence is strictly increasing, but deep in n it sits
        # inside the solver's ~1e-14 relative noise band around the
        # asymptote m+1, where consecutive solved values may wobble
        for m in (1, 2, 7, 50):
            seq = seq_fixed_m(m, 50)
            ceiling = m + 1.0
            for a, b in zip(seq, seq[1:]):
                if ceiling - a > 1e-12 * ceiling:
                    assert b > a
                else:
                    assert b >= a - 2.5e-14 * ceiling
            assert seq[-1] <= ceiling

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
