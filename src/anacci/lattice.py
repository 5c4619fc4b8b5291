"""The integer lattice of anacci constants and its monotone structure.

phi(m, n) denotes the ratio limit of the order-n recurrence with integer
weight m — the classical golden ratio at (1, 2), the tribonacci constant
at (1, 3), and so on.  A lattice point is an (m, n) pair of integers.
Solved values are memoized per (m, n) since the geometry and figure layers
revisit the same lattice points heavily.
"""

from __future__ import annotations

from functools import cache

from .errors import OrderOne, _check_positive_int
from .solver import solve_lambda


@cache
def _phi(m: int, n: int) -> float:
    return solve_lambda(m, n).value


def anacci(idx) -> float:
    """phi(m, n), memoized, at the lattice point idx = (m, n): integer weight
    m >= 1 and integer order n >= 1."""
    m, n = idx
    _check_positive_int(m, "m")
    _check_positive_int(n, "n")
    return _phi(m, n)


def clear_cache() -> None:
    """Drop all memoized values (mainly for tests of cache transparency)."""
    _phi.cache_clear()


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
