"""Root solver for the ratio-limit function lam(p, q) and its calculus.

For every (p, q) with p*q != 1 the kernel function Q has exactly one
positive zero besides 1; that zero is the ratio limit of the order-q,
weight-p recurrence family (the dominant characteristic root at integer q).
This module locates it to machine resolution with one bracket-guarded
Newton loop, started on the convex side of Q, and provides the inverse map
p(lam, q), both implicit partial derivatives, and the closed-form bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational

from .errors import CriticalRegime, NoConvergence, NonPositiveInput
from .qkernel import (
    RegionClass,
    _check_positive,
    _ln,
    classify,
    dq_value,
    lambda_min,
    q_value,
)

MAX_ITERATIONS = 200
# a Newton step this many ulp long or shorter ends the solve
_ULP_STOP = 4.0
# smallest accepted lower end (p/(p+1))^(1/q) of a sub-critical bracket; the
# zero sits just above that end, so below it the zero is out of range
_LAMBDA_FLOOR = 1e-300


@dataclass(frozen=True)
class AnacciConstant:
    """A solved zero lam(p, q) with its certifying bracket.

    ``bracket_lo <= value <= bracket_hi`` always holds; ``residual`` is the
    signed Q(value, p, q).  In the critical regime (p*q = 1) the value is
    exactly 1 with zero residual and a collapsed bracket.
    """

    p: float
    q: float
    value: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    iterations: int

    @property
    def regime(self) -> RegionClass:
        return classify(self.p, self.q)


class BoundSource(Enum):
    BASIC = "basic"      # (p+1)q/(q+1), valid for all q > 0
    REFINED = "refined"  # p+1-1/(p+1), valid for q >= 2 and p > 1/phi


@dataclass(frozen=True)
class BoundPair:
    """A lower/upper enclosure for a ratio limit."""

    lower: float
    upper: float
    source: BoundSource


def _midpoint(lo: float, hi: float) -> float:
    """Arithmetic midpoint, or geometric when the bracket spans orders of
    magnitude (sub-critical zeros can sit hundreds of decades below 1)."""
    if hi > 4.0 * lo:
        return math.sqrt(lo) * math.sqrt(hi)
    return 0.5 * (lo + hi)


def solve_lambda(p, q) -> AnacciConstant:
    """Locate the unique positive zero of Q(., p, q) other than 1.

    One safeguarded Newton loop in the style of ``rtsafe`` (Numerical
    Recipes 9.4).  Each regime has a bracket whose end signs follow from
    the shape of Q, and starts next to its zero on the side where Q is
    convex:

    * p*q > 1: the zero lies in [lambda_min, p+1], with Q < 0 at the lower
      end and Q(p+1) = p.  The start is the first Newton step from p+1,
      p+1 - p*(p+1)^(-q), formed without the overflowing power; once
      lambda_min rounds onto p+1 it is already the answer.
    * p*q < 1: the zero lies in [(p/(p+1))^(1/q), lambda_min], with
      Q = p*lam/(p+1) > 0 at the lower end and Q < 0 at the upper one; the
      start is the lower end.

    The steps are Newton steps on P = Q/(lam-1), the characteristic
    polynomial at integer q, computed from Q and Q' as
    Q*(lam-1) / (Q'*(lam-1) - Q).  With the zero at 1 divided out they stay
    quadratic next to the hyperbola, where Newton on Q only halves its
    distance to the merged pair of zeros.  Every evaluation narrows the
    bracket; a step that leaves it, or fails to halve the step before the
    previous one, is replaced by the bracket midpoint.  The loop runs to
    machine resolution, with no tolerance.  It stops after a step of at
    most a few ulp, and undoes that step if it did not lower |Q|, since it
    was then rounding noise.  It also stops when a step rounds to nothing,
    when the midpoint can no longer split the bracket, and when the start's
    computed sign contradicts its end of the bracket (the start then lies
    within rounding of the zero).  ``iterations`` counts the evaluations of
    Q.  On the hyperbola p*q = 1 the zero branches merge and exactly 1.0 is
    returned with zero residual.

    Raises NonPositiveInput unless p and q are finite and > 0, and
    NoConvergence when a sub-critical zero lies below the positive double
    range (or, never seen, after 200 evaluations).
    """
    _check_positive(p=p, q=q)
    regime = classify(p, q)
    pf, qf = float(p), float(q)
    if regime is RegionClass.CRITICAL:
        return AnacciConstant(pf, qf, 1.0, 1.0, 1.0, 0.0, 0)

    if regime is RegionClass.SUPER:
        hi = pf + 1.0
        lo = min(float(lambda_min(pf, qf)), hi)  # may round past p+1
        x = hi - pf * math.exp(-qf * math.log1p(pf))
        neg_low = True
    else:
        lo, hi = math.exp(-math.log1p(1.0 / pf) / qf), float(lambda_min(pf, qf))
        if lo < _LAMBDA_FLOOR:
            raise NoConvergence(
                f"zero of Q below the representable range for p={pf}, q={qf}"
            )
        x = lo
        neg_low = False

    step = older = hi - lo
    newton = False
    fx = q_value(x, pf, qf)
    for iterations in range(1, MAX_ITERATIONS + 1):
        if fx == 0.0:
            break
        # fold x into the bracket; only a start point can sit on an end
        if (fx < 0.0) == neg_low:
            if x == hi:
                break
            lo = x
        else:
            if x == lo:
                break
            hi = x
        if newton and abs(step) <= _ULP_STOP * math.ulp(x):
            if abs(fx) >= abs(fprev):  # the step was rounding noise: undo it
                x, fx = xprev, fprev
                lo, hi = min(lo, x), max(hi, x)
            break
        dfx = dq_value(x, pf, qf)
        # Newton on P = Q/(lam-1); an overflowed Q gives nan, which fails
        # the bracket test below
        denom = dfx * (x - 1.0) - fx
        cand = x - fx * (x - 1.0) / denom if denom != 0.0 else math.nan
        if cand == x:
            break  # the Newton step rounds to nothing
        newton = lo < cand < hi and 2.0 * abs(cand - x) <= abs(older)
        if not newton:
            cand = _midpoint(lo, hi)
            if not lo < cand < hi:
                break  # bracket at machine resolution
        older, step = step, cand - x
        xprev, fprev = x, fx
        x = cand
        fx = q_value(x, pf, qf)
    else:
        raise NoConvergence(
            f"no convergence after {MAX_ITERATIONS} iterations (p={pf}, q={qf})"
        )
    return AnacciConstant(pf, qf, x, lo, hi, fx, iterations)


def inverse_p(lam: float, q: float) -> float:
    """Weight p(lam, q) whose ratio limit at order q equals lam.

    Closed form lam^q (lam-1) / (lam^q - 1) for lam != 1, rearranged as
    (lam-1) / (1 - lam^(-q)) via expm1/log1p so it is stable both near
    lam = 1 (where the limit is 1/q, returned exactly at lam = 1) and for
    exponents where lam^q itself would overflow or underflow.
    """
    _check_positive(lam=lam, q=q)
    if lam == 1.0:
        return 1.0 / q
    t = q * _ln(lam)
    if -t > 700.0:
        # lam^q underflows: p ~ lam^q * (1 - lam)
        return math.exp(t) * (1.0 - lam)
    return (lam - 1.0) / (-math.expm1(-t))


def inverse_p_integer(m_lambda, n: int):
    """p(lam, n) = lam^n / (lam^(n-1) + ... + 1) at integer order n.

    With a rational lam (int/Fraction) the arithmetic is exact and a
    Fraction is returned; integral targets lam = m then land strictly
    between m-1 and m whenever n > 1.
    """
    _check_positive(m_lambda=m_lambda)
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"order n must be a positive integer, got {n!r}")
    if isinstance(m_lambda, Rational):
        lam = Fraction(m_lambda)
        return lam**n / sum(lam**k for k in range(n))
    lam = float(m_lambda)
    return lam**n / math.fsum(lam**k for k in range(n))


def _derivative_parts(p: float, q: float) -> tuple[float, float]:
    """Solve for lam and return (lam, the shared denominator).

    Raises CriticalRegime on the hyperbola, where dQ/dlam vanishes at the
    merged root and the implicit-function derivatives degenerate.
    """
    if classify(p, q) is RegionClass.CRITICAL:
        raise CriticalRegime(
            f"derivatives undefined on p*q = 1 (p={p!r}, q={q!r})"
        )
    lam = solve_lambda(p, q).value
    return lam, lam * (q + 1.0) - (p + 1.0) * q


def dlambda_dp(p: float, q: float) -> float:
    """Partial derivative of lam(p, q) in p, by the implicit function theorem.

    Equals (lam^q - 1) / (lam^(q-1) * [lam(q+1) - (p+1)q]); evaluated in the
    overflow-free arrangement lam*(1 - lam^(-q)) / [...].  Strictly positive
    off the hyperbola: numerator and denominator share their sign in both
    regimes.
    """
    lam, denom = _derivative_parts(p, q)
    t = q * _ln(lam)
    if -t > 700.0:
        numer = -lam * math.exp(-t)  # 1 - lam^(-q) ~ -lam^(-q)
    else:
        numer = lam * (-math.expm1(-t))
    return numer / denom


def dlambda_dq(p: float, q: float) -> float:
    """Partial derivative of lam(p, q) in q, by the implicit function theorem.

    Equals [p+1-lam] * lam^q * ln(lam) / (lam^(q-1) * [lam(q+1) - (p+1)q]),
    i.e. (p+1-lam) * lam * ln(lam) / [...] after cancelling the powers.
    The leading gap is evaluated through the identity p+1-lam = p*lam^(-q)
    (exact at the zero), which stays positive long after the solved lam has
    saturated onto p+1 in doubles and direct subtraction would return 0.
    Strictly positive off the hyperbola, down to subnormal underflow.
    """
    lam, denom = _derivative_parts(p, q)
    t = q * _ln(lam)
    if t > -700.0:
        gap = p * math.exp(-t)
    else:
        gap = p + 1.0 - lam  # lam far below 1: the subtraction is benign
    return gap * lam * _ln(lam) / denom


def lower_bound_basic(p: float, q: float) -> float:
    """(p+1)q/(q+1): strict lower bound on lam(p, q) when p*q > 1, strict
    upper bound when p*q < 1 (it is the minimum locus of Q)."""
    return float(lambda_min(p, q))


def lower_bound_refined(p: float) -> float:
    """p+1-1/(p+1): sharper lower bound, valid for q >= 2 and p > 1/phi.

    The caller checks applicability; the value alone is defined for any
    positive p.
    """
    _check_positive(p=p)
    return p + 1.0 - 1.0 / (p + 1.0)


def bound_crossover(p: float) -> float:
    """(p+1)^2 - 1: the q at and below which the basic bound does not exceed
    the refined bound."""
    if p < 0:
        raise NonPositiveInput(f"p must be >= 0, got {p!r}")
    return (p + 1.0) ** 2 - 1.0
