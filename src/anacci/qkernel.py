"""Evaluation kernel for the characteristic polynomials of equal-weight
linear recurrences and their two-parameter interpolation.

The recurrence of order n with weight p has characteristic polynomial

    P(lam; p, n) = lam^n - p*(lam^(n-1) + ... + lam + 1)

and multiplying by (lam - 1) telescopes it into the three-term form

    Q(lam; p, n) = lam^(n+1) - (p+1)*lam^n + p,

which stays meaningful for any real exponent q > 0.  Everything here is a
pure function of (lam, p, q); the zero structure of Q is what the solver
module exploits, so the one hard requirement is that the *sign* of Q comes
out right even where lam^q overflows a double.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from numbers import Rational

from .errors import _check_positive_int, _real, _to_double

# exp() overflows a double just above 709.78
_EXP_OVERFLOW = 700.0

# input types whose regime is decided exactly; other Rational types, such as
# numpy integers whose products wrap, take the double path
_EXACT = (int, Fraction)


class RegionClass(Enum):
    """Sign regime of a parameter pair, split by the hyperbola p*q = 1."""

    SUPER = "super"        # p*q > 1: second zero of Q above 1
    CRITICAL = "critical"  # p*q = 1: both zeros merged at 1
    SUB = "sub"            # p*q < 1: second zero of Q below 1


# the members as plain names: a RegionClass.X lookup runs the enum's member
# descriptor (about 0.15 us on Python 3.11), and every solve tests its regime
_SUPER, _CRITICAL, _SUB = RegionClass.SUPER, RegionClass.CRITICAL, RegionClass.SUB


def _ln(lam: float) -> float:
    """log(lam), via log1p near 1 where the direct log loses digits."""
    if 0.5 < lam < 2.0:
        return math.log1p(lam - 1.0)
    return math.log(lam)


def _q_dq(lam: float, p: float, q: float) -> tuple[float, float]:
    """(Q, dQ/dlam) at lam, unchecked: one log, one exp and one expm1.

    Q' = lam^(q-1) * slope shares its power with Q and is formed as
    lam^q / lam * slope.  Where lam^q overflows, Q reports as +-inf by the
    scaled identity ``Q/lam^q = lam - (p+1) + p*lam^(-q)``; where lam^q
    leaves the normal range or lam^(q-1) overflows, Q' takes lam^(q-1) from
    its own exponent t - ln(lam), and reports as +-inf by the sign of the
    slope once that overflows too, read from lam/(p+1) - q/(q+1) where both
    of the slope's products overflow.
    """
    slope = lam * (q + 1.0) - (p + 1.0) * q
    if lam == 1.0:
        return 0.0, slope
    # _ln written out: a call frame costs every evaluation
    if 0.5 < lam < 2.0:
        ln = math.log1p(lam - 1.0)
    else:
        ln = math.log(lam)
    t = q * ln
    if t > _EXP_OVERFLOW:
        if lam == p + 1.0:
            value = p  # exact cancellation of the overflowing terms
        else:
            value = math.copysign(math.inf, lam - (p + 1.0))
    else:
        e = math.exp(t)
        value = (lam - 1.0) * e - p * math.expm1(t)
        if t >= -_EXP_OVERFLOW and t - ln <= _EXP_OVERFLOW:
            return value, e / lam * slope
    t_minus = t - ln  # the exponent of lam^(q-1)
    if t_minus > _EXP_OVERFLOW:
        if slope != slope:  # inf - inf: take the sign of slope/((p+1)(q+1))
            slope = lam / (p + 1.0) - q / (q + 1.0)
        return value, math.copysign(math.inf, slope) if slope else 0.0
    power = math.exp(t_minus)  # once 0, a zero signed like the slope: 0 * inf is nan
    return value, power * slope if power else math.copysign(0.0, slope)


def q_value(lam: float, p: float, q: float) -> float:
    """Q(lam; p, q) = lam^(q+1) - (p+1)*lam^q + p.

    Evaluated in the cancellation-free arrangement
    ``(lam-1)*lam^q - p*(lam^q - 1)`` with expm1/log1p, so the sign is
    reliable arbitrarily close to the double zero at lam = 1.  When lam^q
    overflows, the sign is decided by the scaled identity
    ``Q/lam^q = lam - (p+1) + p*lam^(-q)`` and +-inf is returned.  Where
    lam^q does not overflow but both products of that arrangement do, Q is
    formed as ``(lam - p - 1)*lam^q + p``, which is +-inf, signed as the
    scaled identity, once it leaves the doubles.
    """
    lam, p, q = _real(lam, "lam"), _real(p, "p"), _real(q, "q")
    value = _q_dq(lam, p, q)[0]
    # inf - inf: both products overflowed.  Tested here, off the common
    # return of _q_dq, which every solver step takes
    if value != value:
        value = ((lam - p) - 1.0) * math.exp(q * _ln(lam)) + p
    return value


def dq_value(lam: float, p: float, q: float) -> float:
    """dQ/dlam = lam^(q-1) * (lam*(q+1) - (p+1)*q).

    Negative below the minimum locus, zero on it, positive above.
    """
    return _q_dq(_real(lam, "lam"), _real(p, "p"), _real(q, "q"))[1]


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of a read Rational or double, as Python ints."""
    if type(x) is float:
        return x.as_integer_ratio()
    return int(x.numerator), int(x.denominator)  # numpy's own powers wrap


def _power_sum(lam, n: int) -> tuple[int, int, int]:
    """(a^n, b*G, b^n) for lam = a/b: lam^n and lam^(n-1) + ... + 1 over b^n,
    with G = (a^n - b^n)/(a - b), or n*a^(n-1) where a = b."""
    a, b = _ratio(lam)
    power, base = a**n, b**n
    total = n * base if a == b else b * ((power - base) // (a - b))
    return power, total, base


def eval_P(lam, p, n: int):
    """Characteristic polynomial lam^n - p*(lam^(n-1) + ... + 1), exactly.

    In Python integers from lam = a/b, p = c/d (a float is the dyadic
    rational it holds): the Fraction for two Rationals, else the correctly
    rounded double, +-inf by the sign of P past the double range.  Costs
    about 1 ms at n = 10^3 and 0.5 s at n = 71 200 for a float lam.
    Raises InputOutOfRange for an input that is neither float nor Rational
    and has no positive double, such as Decimal('1e400').
    """
    lam = _real(lam, "lam", exact=Rational)
    p = _real(p, "p", exact=Rational)
    _check_positive_int(n, "order n")
    power, total, base = _power_sum(lam, n)
    c, d = _ratio(p)
    num, den = power * d - c * total, base * d
    if isinstance(lam, Rational) and isinstance(p, Rational):
        return Fraction(num, den)
    try:
        return num / den
    except OverflowError:  # int / int rounds correctly or raises
        return math.inf if num > 0 else -math.inf


def _exact_pair(p, q) -> bool:
    """Whether p and q are both int or Fraction, and so read in integers; a
    float in the pair answers before the slow ABC check of Fraction runs."""
    return not (isinstance(p, float) or isinstance(q, float)) and (
        isinstance(p, _EXACT) and isinstance(q, _EXACT)
    )


def lambda_min(p, q):
    """Location (p+1)*q/(q+1) of the unique minimum of Q in lam.

    Equals 1 exactly when p*q = 1.  An int/Fraction pair returns the exact
    Fraction (a+b)c / (b(c+d)) for p = a/b, q = c/d, built in integers and
    free of the double range; any other pair takes the generic formula,
    with a side that is neither int nor Fraction read as a double.  A pair
    with an exact side whose double overflows, or rounds the bound to 0,
    returns the exact Fraction of its values, and where (p+1)*q overflows
    a float pair divides q by q+1 first, since the bound is below p+1.
    """
    p = _real(p, "p", exact=_EXACT)
    q = _real(q, "q", exact=_EXACT)
    if _exact_pair(p, q):
        a, b = p.numerator, p.denominator
        c, d = q.numerator, q.denominator
        return Fraction((a + b) * c, b * (c + d))
    try:
        bound = (p + 1) * q / (q + 1)
    except OverflowError:  # an int or Fraction side has no double
        bound = 0.0
    if bound == 0.0:  # only an exact side rounds a float pair's bound to 0
        return (Fraction(p) + 1) * Fraction(q) / (Fraction(q) + 1)
    if bound == math.inf:  # (p+1)*q overflowed
        return (p + 1) * (q / (q + 1))
    return bound


def classify(p, q) -> RegionClass:
    """Regime of (p, q) relative to the hyperbola p*q = 1.

    Exact for the numbers read: an int/Fraction pair compares its own
    product with 1, any other pair the exact product of its doubles, so
    CRITICAL means p*q = 1 exactly and a product that merely rounds onto 1
    is SUPER or SUB.
    """
    p = _real(p, "p", exact=_EXACT)
    q = _real(q, "q", exact=_EXACT)
    return _classify(p, q)


def _classify(p, q) -> RegionClass:
    """classify without its input checks.

    An int/Fraction pair compares num(p)*num(q) with den(p)*den(q) in
    integers, with no Fraction built.  A pair of doubles takes the sign of
    dp*dq - 1.0, which rounding cannot flip, as it is monotone; only where
    the product rounds onto 1 is p*q - 1 taken exactly, from Fractions.
    """
    if _exact_pair(p, q):
        num = p.numerator * q.numerator
        den = p.denominator * q.denominator
        if num > den:
            return _SUPER
        if num < den:
            return _SUB
        return _CRITICAL
    dp, dq = _to_double(p), _to_double(q)
    if dp in (0.0, math.inf) or dq in (0.0, math.inf):
        # an exact side past the doubles saturated: take p*q - 1 exactly
        excess = Fraction(p) * Fraction(q) - 1
    else:
        excess = dp * dq - 1.0
        if excess == 0.0:  # the product rounded onto 1
            excess = Fraction(dp) * Fraction(dq) - 1
    if excess > 0:
        return _SUPER
    if excess < 0:
        return _SUB
    return _CRITICAL
