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

from .errors import NonPositiveInput

# |p*q - 1| at or below this counts as the merged-double-root regime for
# floating inputs; the two zero branches of Q are then within ~1e-6 of 1.
CRITICAL_TOL = 1e-12

# exp() overflows a double just above 709.78
_EXP_OVERFLOW = 700.0


def _check_positive(**named):
    for name, value in named.items():
        if not 0 < value < math.inf:
            raise NonPositiveInput(f"{name} must be finite and > 0, got {value!r}")


class RegionClass(Enum):
    """Sign regime of a parameter pair, split by the hyperbola p*q = 1."""

    SUPER = "super"        # p*q > 1: second zero of Q above 1
    CRITICAL = "critical"  # p*q = 1: both zeros merged at 1
    SUB = "sub"            # p*q < 1: second zero of Q below 1


def _ln(lam: float) -> float:
    """log(lam), via log1p near 1 where the direct log loses digits."""
    if 0.5 < lam < 2.0:
        return math.log1p(lam - 1.0)
    return math.log(lam)


def q_value(lam: float, p: float, q: float) -> float:
    """Q(lam; p, q) = lam^(q+1) - (p+1)*lam^q + p.

    Evaluated in the cancellation-free arrangement
    ``(lam-1)*lam^q - p*(lam^q - 1)`` with expm1/log1p, so the sign is
    reliable arbitrarily close to the double zero at lam = 1.  When lam^q
    overflows, the sign is decided by the scaled identity
    ``Q/lam^q = lam - (p+1) + p*lam^(-q)`` and +-inf is returned.
    """
    _check_positive(lam=lam, p=p, q=q)
    if lam == 1.0:
        return 0.0
    t = q * _ln(lam)
    if t > _EXP_OVERFLOW:
        if lam == p + 1.0:
            return p  # exact cancellation of the overflowing terms
        return math.copysign(math.inf, lam - (p + 1.0))
    return (lam - 1.0) * math.exp(t) - p * math.expm1(t)


def dq_value(lam: float, p: float, q: float) -> float:
    """dQ/dlam = lam^(q-1) * (lam*(q+1) - (p+1)*q).

    Negative below the minimum locus, zero on it, positive above.
    """
    _check_positive(lam=lam, p=p, q=q)
    slope = lam * (q + 1.0) - (p + 1.0) * q
    if lam == 1.0:
        return slope
    t = (q - 1.0) * _ln(lam)
    if t > _EXP_OVERFLOW:
        if slope == 0.0:
            return 0.0
        return math.copysign(math.inf, slope)
    return math.exp(t) * slope


def eval_P(lam: float, p: float, n: int) -> float:
    """Characteristic polynomial lam^n - p*(lam^(n-1) + ... + 1).

    The geometric part is accumulated with compensated summation.
    """
    _check_positive(lam=lam, p=p)
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"order n must be a positive integer, got {n!r}")
    geometric = math.fsum(lam**k for k in range(n))
    return lam**n - p * geometric


def lambda_min(p, q):
    """Location (p+1)*q/(q+1) of the unique minimum of Q in lam.

    Equals 1 exactly when p*q = 1.  Exact for Fraction/int inputs.
    """
    _check_positive(p=p, q=q)
    return (p + 1) * q / (q + 1)


def classify(p, q, tol: float = CRITICAL_TOL) -> RegionClass:
    """Regime of (p, q) relative to the hyperbola p*q = 1.

    With exact rational inputs (int/Fraction) the comparison is exact and
    tol is ignored; otherwise SUPER needs p*q - 1 > tol and SUB needs
    1 - p*q > tol, everything between is CRITICAL.
    """
    _check_positive(p=p, q=q)
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    if isinstance(p, Rational) and isinstance(q, Rational):
        product = Fraction(p) * Fraction(q)
        if product > 1:
            return RegionClass.SUPER
        if product < 1:
            return RegionClass.SUB
        return RegionClass.CRITICAL
    excess = float(p) * float(q) - 1.0
    if excess > tol:
        return RegionClass.SUPER
    if -excess > tol:
        return RegionClass.SUB
    return RegionClass.CRITICAL
