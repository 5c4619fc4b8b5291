"""Weighted n-step Fibonacci-type sequences and their ratio limits.

A spec (weight p, order n, initial terms a_0..a_{n-1}) generates

    F_k = p * (F_{k-1} + ... + F_{k-n})        for k >= n.

With rational p and initial terms the arithmetic is exact (Python
ints/Fractions).  Otherwise each term is p times the math.fsum of the n
terms before it: no running sum carries the rounding error of earlier,
larger terms into a decaying sequence, and a term beyond the double
range raises TermOverflow.  The ratio F_{k+1}/F_k converges to the
dominant characteristic root; ratio estimation skips indices at or
before the last zero term and detects convergence from a run of
consecutive small ratio deltas.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

from .errors import AllZeroInit, NoConvergence, TermOverflow
from .errors import _check_positive_int, _real, _to_double, _weight
from .errors import _validated_make

# steps between renormalizations of the window during ratio estimation
_RESYNC_EVERY = 64


class _SpecFields(NamedTuple):
    p: float | int | Fraction
    n: int
    init: tuple


def _finite(term) -> bool:
    """Whether an initial term is finite: a nan of any type is not, nor is an
    infinity; a Decimal signaling NaN raises even from ``==``."""
    try:
        return term == term and abs(term) != math.inf
    except ArithmeticError:
        return False


class RecurrenceSpec(_SpecFields):
    """Weight, order, and initial terms of one recurrence.

    ``p`` must be finite and > 0; a Rational p is kept as given, any other
    is read as a double.  ``init`` must hold exactly ``n`` entries, not all
    zero, and finite: no nan or infinity of any type.  ``init`` is stored as
    a tuple, whatever iterable it was given as.
    """

    __slots__ = ()

    def __new__(cls, p: float | int | Fraction, n: int, init):
        _check_positive_int(n, "order n")
        p = _real(p, "weight p", exact=Rational)
        init = tuple(init)
        if len(init) != n:
            raise ValueError(f"init must have exactly n={n} entries, got {len(init)}")
        if not all(map(_finite, init)):
            raise ValueError(f"init terms must be finite, got {init!r}")
        if all(term == 0 for term in init):
            raise AllZeroInit("initial terms must not all be zero")
        return tuple.__new__(cls, (p, n, init))

    _make = classmethod(_validated_make)

    @property
    def exact(self) -> bool:
        """True when every input is rational, enabling exact arithmetic."""
        return isinstance(self.p, Rational) and all(
            isinstance(term, Rational) for term in self.init
        )


class RatioEstimate(NamedTuple):
    """Result of estimating the ratio limit of a sequence.

    ``k0`` is the largest index at which a zero term was seen (-1 if none);
    ratios are only formed past it.  ``k_used`` is the term index of the
    final ratio.
    """

    value: float
    k_used: int
    k0: int


def canonical_init(n: int) -> tuple:
    """The delta start (0, ..., 0, 1) whose ratio limit always exists."""
    _check_positive_int(n, "order n")
    return (0,) * (n - 1) + (1,)


def _overflow(k: int) -> TermOverflow:
    return TermOverflow(f"term {k} of the recurrence lies beyond the double range")


def _float_term(p: float, window, k: int) -> float:
    """Term k by the float rule: p times the correctly rounded window sum."""
    try:
        term = p * math.fsum(window)
    except OverflowError:  # fsum's own report of a sum beyond the doubles
        term = math.inf
    if -math.inf < term < math.inf:
        return term
    raise _overflow(k)


def _float_start(spec: RecurrenceSpec) -> tuple[float, list[float]]:
    """The weight and the initial terms of ``spec`` as doubles, checked."""
    init = [_to_double(t) for t in spec.init]
    for k, term in enumerate(init):
        if not -math.inf < term < math.inf:
            raise _overflow(k)
    return _weight(spec.p, "the order-%r recurrence", spec.n), init


def generate(spec: RecurrenceSpec, count: int) -> list:
    """First ``count`` terms of the sequence (count >= n).

    Exact inputs stay exact: all-int specs yield ints, rational specs yield
    Fractions; other specs yield floats by the module's float rule and
    raise TermOverflow at the first term beyond the double range, or
    WeightUnderflow/WeightOverflow for a weight with no positive double.
    """
    if count < spec.n:
        raise ValueError(f"count must be >= n = {spec.n}, got {count}")
    n = spec.n
    if spec.exact:
        p = spec.p if isinstance(spec.p, int) else Fraction(spec.p)
        terms = [t if isinstance(t, int) else Fraction(t) for t in spec.init]
        window_sum = sum(terms)
        for _ in range(count - n):
            new = p * window_sum
            terms.append(new)
            window_sum += new - terms[-n - 1]
        return terms

    p, terms = _float_start(spec)
    for k in range(n, count):
        terms.append(_float_term(p, terms[-n:], k))
    return terms


def ratio_limit(
    spec: RecurrenceSpec, tol: float = 1e-12, max_terms: int = 500
) -> RatioEstimate:
    """Estimate lim F_{k+1}/F_k by iterating until the ratios settle.

    Converged means the last max(3, n) consecutive ratio deltas are <= tol:
    these ratio sequences oscillate around their limit, so a single small
    delta can be a coincidence, and the first terms after an n-step seed
    can produce up to n-2 exactly equal ratios (a delta start yields a
    plain doubling run) that a fixed-length detector would mistake for
    convergence.  A zero term resets the detector and advances k0.  Terms
    follow the float rule of ``generate`` and are renormalized every 64
    steps, so long runs cannot overflow; a term that overflows between
    renormalizations raises TermOverflow.

    Raises NoConvergence when max_terms is exhausted: either the budget is
    too small or the initial condition has no component along the dominant
    direction — reported, not guessed.  A weight with no positive double
    raises WeightUnderflow or WeightOverflow, as in ``generate``.
    """
    tol = _real(tol, "tol", ValueError, "finite and >= 0")
    if max_terms < 2 * spec.n:
        raise ValueError(f"max_terms must be >= 2n = {2 * spec.n}, got {max_terms}")
    n = spec.n
    p, init = _float_start(spec)
    window = deque(init, maxlen=n)

    k0 = -1
    for i, term in enumerate(window):
        if term == 0.0:
            k0 = i

    needed = max(3, n)
    last_ratio = None
    small_deltas = 0
    for k in range(n, max_terms):
        new = _float_term(p, window, k)
        prev = window[-1]
        if new == 0.0:
            k0 = k
            last_ratio = None
            small_deltas = 0
        elif prev != 0.0 and k - 1 > k0:
            ratio = new / prev
            if last_ratio is not None:
                if abs(ratio - last_ratio) <= tol:
                    small_deltas += 1
                    if small_deltas >= needed:
                        return RatioEstimate(ratio, k, k0)
                else:
                    small_deltas = 0
            last_ratio = ratio
        window.append(new)  # drops the oldest term
        if (k - n + 1) % _RESYNC_EVERY == 0:
            scale = abs(new)
            if scale > 0.0:
                window = deque((t / scale for t in window), maxlen=n)
    raise NoConvergence(
        f"ratios did not settle within {max_terms} terms (tol={tol}); "
        "either raise the budget or check the initial condition"
    )
