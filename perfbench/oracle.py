"""Independent references for the benchmark's accuracy checks.

``root`` finds the non-unit positive zero of
Q(lam; p, q) = lam^(q+1) - (p+1)*lam^q + p with mpmath at 50 significant
digits, by plain bisection on the scaled form Q/lam^q, so it shares no
code or numerical method with ``anacci.solver``.  ``shell_centroid`` is the
lever formula in exact rational arithmetic.  Both are compared with a
double through ``ulp_error``.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

DIGITS = 50


def root(p: float, q: float) -> str:
    """The zero lam(p, q) of Q other than 1, as a 50-digit decimal string.

    p and q are taken as the exact values of the given doubles.  On the
    hyperbola p*q = 1 the zero merges with 1.
    """
    import mpmath

    with mpmath.workdps(DIGITS + 20):
        p, q = mpmath.mpf(p), mpmath.mpf(q)

        def scaled(lam):
            return lam - (p + 1) + p * lam ** (-q)

        product = p * q
        if product == 1:
            return "1"
        lam_min = (p + 1) * q / (q + 1)
        if product > 1:
            lo, hi = lam_min, p + 1  # scaled(lo) < 0 < scaled(hi)
        else:
            hi, lo = lam_min, lam_min / 2  # scaled(0+) = +inf
            while scaled(lo) <= 0:
                lo /= 2
        neg_low = scaled(lo) < 0
        width = mpmath.mpf(10) ** (-(DIGITS + 8))
        while hi - lo > width * hi:
            mid = mpmath.sqrt(lo * hi) if hi > 4 * lo else (lo + hi) / 2
            if (scaled(mid) < 0) == neg_low:
                lo = mid
            else:
                hi = mid
        return mpmath.nstr((lo + hi) / 2, DIGITS, strip_zeros=False)


def ulp_error(value: float, reference) -> float:
    """|value - reference| in units of the double spacing between them.

    The spacing is taken at the smaller of the two magnitudes, so a value
    just below a power of two counts the doubles actually between it and
    the reference.  ``reference`` is a decimal string or an exact Fraction.
    """
    if isinstance(reference, str):
        reference = Fraction(Decimal(reference))
    spacing = math.ulp(min(abs(value), abs(float(reference))))
    return float(abs(Fraction(value) - reference) / Fraction(spacing))


def bracket_miss_ulp(lo: float, hi: float, reference: str) -> float:
    """How far the reference root lies outside [lo, hi], in ulp (0 inside)."""
    exact = Fraction(Decimal(reference))
    if Fraction(lo) <= exact <= Fraction(hi):
        return 0.0
    return ulp_error(lo if exact < lo else hi, exact)


def body_centroid(kind: str, n: int, size: float, axis_offset: float) -> Fraction:
    """Exact first coordinate of the centroid: ball center, cube mid-side,
    cone/pyramid at n/(n+1) of the height from the apex."""
    offset, size = Fraction(axis_offset), Fraction(size)
    if kind == "ball":
        return offset
    if kind == "cube":
        return offset + size / 2
    return offset + size * n / (n + 1)


def shell_centroid(kind: str, n: int, size: float, axis_offset: float,
                   center: float, lam: float) -> Fraction:
    """Exact lever solution B = (lam^n L(A) - A) / (lam^n - 1)."""
    a = body_centroid(kind, n, size, axis_offset)
    lam, center = Fraction(lam), Fraction(center)
    image = center + lam * (a - center)
    ratio = lam**n
    return (ratio * image - a) / (ratio - 1)
