"""The integer lattice of anacci constants and its monotone structure.

phi(m, n) denotes the ratio limit of the order-n recurrence with integer
weight m — the classical golden ratio at (1, 2), the tribonacci constant
at (1, 3), and so on.  A lattice point is an (m, n) pair of integers.

A value is formed from its gap g = m+1 - phi(m, n) below the ceiling m+1.
Q(phi) = 0 divided by phi^n reads g = m/phi^n, so g is the fixed point of
g = m/(m+1)^n * (1 - g/(m+1))^(-n).  The gap keeps its full relative
precision where phi rounds onto m+1, as it does for most of the deep
lattice, and (m+1) - g is the correctly rounded phi at every point checked
(m <= 50 with n <= 60, and m <= 200 with n <= 10).  Gaps are memoized per
(m, n) since the geometry, figure and verify layers revisit the same
lattice points heavily.
"""

from __future__ import annotations

import math
from functools import cache

from .errors import OrderOne, _check_positive_int, _real

# (m+1)^(n-1) past 2^1100 puts the gap, about m/(m+1)^n, below the doubles
_GAP_BITS = 1100
# Newton steps on the gap; 5 were the most seen
_GAP_STEPS = 16


@cache
def _gap(m: int, n: int) -> float:
    """m+1 - phi(m, n) as a double, for a checked lattice point.

    g0 = m/(m+1)^n comes from int division, rounded once.  Newton steps on
    h(g) = g - g0*F(g), F = (1 - g/(m+1))^(-n) = exp(-n*log1p(-g/(m+1))),
    with h'(g) = 1 - n*g0*F/(m+1-g), start at g0.  h is concave and rises
    through its root, so the steps climb onto it from below; they stop at a
    step of at most 2^-53 * g.  At n = 1 the gap is 1, as phi(m, 1) = m.
    Raises InputOutOfRange for an m past the doubles.
    """
    _real(m, "m")
    if n == 1:
        return 1.0
    if (n - 1) * math.log2(m + 1) > _GAP_BITS:
        return 0.0
    g0 = m / (m + 1) ** n
    ceiling = float(m + 1)
    g = g0
    for _ in range(_GAP_STEPS):
        f = g0 * math.exp(-n * math.log1p(-g / ceiling))
        step = (g - f) / (1.0 - n * f / (ceiling - g))
        g -= step
        if abs(step) <= 2.0**-53 * g:
            break
    return g


def anacci(idx) -> float:
    """phi(m, n), memoized, at the lattice point idx = (m, n): integer weight
    m >= 1 and integer order n >= 1."""
    m, n = idx
    _check_positive_int(m, "m")
    _check_positive_int(n, "n")
    return (m + 1) - _gap(m, n)


def clear_cache() -> None:
    """Drop all memoized values (mainly for tests of cache transparency)."""
    _gap.cache_clear()


def seq_fixed_m(m: int, n_max: int) -> list[float]:
    """(phi(m, n))_{n=1..n_max}: strictly increasing toward m+1."""
    return [anacci((m, n)) for n in range(1, n_max + 1)]


def seq_fixed_n(n: int, m_max: int) -> list[float]:
    """(phi(m, n))_{m=1..m_max}: strictly increasing in the weight."""
    return [anacci((m, n)) for m in range(1, m_max + 1)]


def seq_diagonal(k: int, count: int, which: str) -> list[float]:
    """Diagonal sequences through the lattice, strictly increasing.

    which="kn": (phi(k*n, n))_{n=1..count} — weight grows with the order.
    which="km": (phi(m, k*m))_{m=1..count} — order grows with the weight.
    """
    _check_positive_int(k, "k")
    if which == "kn":
        return [anacci((k * n, n)) for n in range(1, count + 1)]
    if which == "km":
        return [anacci((m, k * m)) for m in range(1, count + 1)]
    raise ValueError(f"which must be 'kn' or 'km', got {which!r}")


def scaled_seq_A(n: int, m_max: int) -> list[float]:
    """((m+1)/m * phi(m, n))_{m=1..m_max}: strictly increasing for every n."""
    return [(m + 1) / m * anacci((m, n)) for m in range(1, m_max + 1)]


def scaled_seq_B(n: int, m_max: int) -> list[float]:
    """(phi(m, n)/m)_{m=1..m_max}: strictly decreasing toward 1 for n > 1.

    At n = 1 the sequence is identically 1 and OrderOne is raised.
    """
    if n == 1:
        raise OrderOne("phi(m, 1)/m = 1 for every m; sequence is constant")
    return [anacci((m, n)) / m for m in range(1, m_max + 1)]
