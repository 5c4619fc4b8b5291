"""Root solver for the ratio-limit function lam(p, q) and its calculus.

For every (p, q) with p*q != 1 the kernel function Q has exactly one
positive zero besides 1; that zero is the ratio limit of the order-q,
weight-p recurrence family (the dominant characteristic root at integer q).
This module locates it to machine resolution with one bracket-guarded
Newton loop, started from the leading terms of the paper's series for the
zero, and provides the inverse map p(lam, q), both implicit partial
derivatives, and the closed-form bounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

from .errors import CriticalRegime, InputOutOfRange, NoConvergence, NonPositiveInput, ZeroUnderflow
from .errors import _check_positive_int, _real, _weight
from .qkernel import RegionClass, _ln, _power_sum, _q_dq, _read_pair
from .qkernel import lambda_min
from .qkernel import _CRITICAL, _EXP_OVERFLOW, _SUB, _SUPER
from .qkernel import q_value  # noqa: F401  # perfbench's tracer self-test reads solver.q_value

MAX_ITERATIONS = 200
# a Newton step this many ulp long or shorter ends the solve
_ULP_STOP = 4.0
# smallest accepted lower end (p/(p+1))^(1/q) of a sub-critical bracket; the
# zero sits just above that end, so below it the zero is out of range
_LAMBDA_FLOOR = 1e-300
# below this z = p/(p+1)^(q+1) the super-critical start keeps only the
# first series term; the second is q*z^2 relative to p+1, and q*z < 1, so
# it is then below 1e-8 relative, which the first Newton step removes
_SERIES_SKIP = 1e-8
# |p*q - 1| below this tries the start from Q's Taylor model at 1; on the
# band its denominator stays above q/4
_NEAR_BAND = 0.5


class AnacciConstant(NamedTuple):
    """A solved zero lam(p, q) with its certifying bracket.

    ``bracket_lo <= value <= bracket_hi`` always holds; ``residual`` is the
    signed Q(value, p, q).  ``regime`` is the one the solve ran in, the
    sign of p*q - 1 taken exactly for the numbers read: an int/Fraction
    pair as given, any other pair as its doubles.  It is critical only
    where that product is exactly 1, and then the value is exactly 1 with
    zero residual and a collapsed bracket; a pair whose double product
    merely rounds onto 1 is solved.  An immutable named tuple: the solver
    builds it with ``tuple.__new__`` on the field tuple, one allocation and
    none of the generated ``__new__``'s argument binding.
    """

    p: float
    q: float
    value: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    iterations: int
    regime: RegionClass


# _new(AnacciConstant, fields) builds a result without the argument binding
# of the generated __new__, which costs every solve
_new = tuple.__new__


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
    the shape of Q, and starts next to its zero from the leading terms of
    the paper's analytic representation:

    * p*q > 1: the zero lies in [lambda_min, p+1], with Q < 0 at the lower
      end and Q(p+1) = p.  The start is three terms of the Lagrange series
      lam = (p+1)*(1 - z - q*z^2 - q(3q+1)/2*z^3 - ...) with
      z = p/(p+1)^(q+1), formed from one exp without the overflowing power.
      Every term is positive, so the start lies above the zero.  Below
      z = 1e-8 only the first term is kept, and where that rounds away the
      start is p+1, which is then within rounding of the zero.  A start
      outside the bracket, as where (p+1)*z rounds onto p+1, is p+1 too.
    * p*q < 1: the zero lies in [c, lambda_min] with c = (p/(p+1))^(1/q),
      Q = p*lam/(p+1) > 0 at c and Q < 0 at the upper end.  The start is
      three terms of the dual series, c*(1 + w/q + (3/q+1)/(2q)*w^2) with
      w = c/(p+1), which lie below the zero; it is c where they leave the
      bracket.
    * |p*q - 1| < 0.5: both series converge slowly next to the hyperbola,
      where their ratio tends to 1.  The start there is
      1 + (p*q-1) / (q*(1 - p(q-1)/2)), the zero other than 1 of Q's
      quadratic Taylor model at 1, wherever it lies strictly inside the
      bracket and nearer 1 than the series start.  p*q - 1 is taken from
      the doubles, also for an exact pair, exactly (from Fractions) where
      their product rounds onto 1, and a sign that disagrees with the
      exact regime skips this start.

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
    returned with zero residual; a product that is 1 only to rounding is
    off the hyperbola and is solved.  At q = 1 off it, Q = (lam-1)(lam-p),
    and a p that is a double is returned as the zero, with a collapsed
    bracket and no evaluation.

    p and q are read as doubles by qkernel._read_pair, the reader classify
    calls too, so the regime, the sign of p*q - 1 exact for the doubles or
    for an int/Fraction pair as given, is classify(p, q).  Raises
    NonPositiveInput unless p and q are finite and > 0, InputOutOfRange for
    one that rounds to 0 or past the largest double, ZeroUnderflow when a
    sub-critical zero lies below the positive double range, and
    NoConvergence (never seen) after 200 evaluations.
    """
    pf, qf, regime, excess = _read_pair(p, q)
    if regime is _CRITICAL:
        return _new(AnacciConstant, (pf, qf, 1.0, 1.0, 1.0, 0.0, 0, regime))
    if qf == 1.0 and q == 1 and p == pf:
        # order one: Q = (lam-1)(lam-p), and its zero p is a double
        return _new(AnacciConstant, (pf, qf, pf, pf, pf, 0.0, 0, regime))

    lmin = (pf + 1.0) * qf / (qf + 1.0)  # lambda_min
    if regime is _SUPER:
        hi = pf + 1.0
        lo = hi if hi < lmin else lmin  # lambda_min may round past p+1
        u = pf * math.exp(-qf * math.log1p(pf))  # (p+1)*z, z = p/(p+1)^(q+1)
        x = hi - u
        if x != hi:
            z = u / hi
            if z > _SERIES_SKIP:
                x -= u * qf * z * (1.0 + 0.5 * (3.0 * qf + 1.0) * z)
        if not lo < x <= hi:
            x = hi  # u rounded onto p+1: the start left the bracket
    else:
        lo, hi = math.exp(-math.log1p(1.0 / pf) / qf), lmin
        if lo < _LAMBDA_FLOOR:
            raise ZeroUnderflow(
                f"zero of Q below the representable range for p={pf}, q={qf}"
            )
        w = lo / (pf + 1.0)
        x = lo * (1.0 + w / qf * (1.0 + 0.5 * (3.0 / qf + 1.0) * w))
        if not lo < x < hi:
            x = lo
    neg_low = regime is _SUPER
    if 0.0 < (excess if neg_low else -excess) < _NEAR_BAND:
        # the zero other than 1 of Q's quadratic Taylor model at 1, which is
        # one Newton step on P from 1
        near = 1.0 + excess / (qf * (1.0 - 0.5 * pf * (qf - 1.0)))
        if lo < near < hi and abs(near - 1.0) < abs(x - 1.0):
            x = near

    step = older = hi - lo
    newton = False
    fx, dfx = _q_dq(x, pf, qf)
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
        fx, dfx = _q_dq(x, pf, qf)
    else:
        raise NoConvergence(
            f"no convergence after {MAX_ITERATIONS} iterations (p={pf}, q={qf})"
        )
    return _new(AnacciConstant, (pf, qf, x, lo, hi, fx, iterations, regime))


def inverse_p(lam: float, q: float) -> float:
    """Weight p(lam, q) whose ratio limit at order q equals lam.

    Closed form lam^q (lam-1) / (lam^q - 1) for lam != 1, rearranged as
    (lam-1) / (1 - lam^(-q)) via expm1/log1p so it is stable both near
    lam = 1 (where the limit is 1/q, returned exactly at lam = 1) and for
    exponents where lam^q itself would overflow or underflow.

    Raises WeightUnderflow when the weight lies below the smallest positive
    double and WeightOverflow when it lies above the largest finite one.
    """
    lam = _real(lam, "lam")
    q = _real(q, "q")
    if lam == 1.0:
        return _weight(1.0 / q, "lam=%s, q=%r", lam, q)
    t = q * _ln(lam)
    if -t > _EXP_OVERFLOW:
        # lam^q underflows: p ~ lam^q * (1 - lam)
        return _weight(math.exp(t) * (1.0 - lam), "lam=%s, q=%r", lam, q)
    # 1 - lam^(-q) < 1 for lam > 1, so the quotient can pass the largest double
    return _weight((lam - 1.0) / (-math.expm1(-t)), "lam=%s, q=%r", lam, q)


def inverse_p_integer(m_lambda, n: int):
    """p(lam, n) = lam^n / (lam^(n-1) + ... + 1) at integer order n, exactly.

    a^n / (b*G) in Python integers, as in qkernel.eval_P.  A Rational lam
    returns the Fraction, so integral targets lam = m land strictly between
    m-1 and m for n > 1; any other lam the correctly rounded double, which
    cannot overflow as p <= lam, or WeightUnderflow where it is 0.  Costs
    about 0.5 ms at n = 10^3 and 0.5 s at n = 71 200 for a float lam.
    Raises InputOutOfRange for a lam that is neither float nor Rational and
    has no positive double, such as Decimal('1e400').
    """
    m_lambda = _real(m_lambda, "m_lambda", exact=Rational)
    _check_positive_int(n, "order n")
    power, total, _ = _power_sum(m_lambda, n)
    if isinstance(m_lambda, Rational):
        return Fraction(power, total)
    return _weight(power / total, "lam=%s, n=%r", m_lambda, n)


def _derivative_parts(p: float, q: float) -> tuple[float, float, float, float]:
    """Solve for lam and return (lam, p, gap, D) for both derivatives, with
    p the double the solve read.

    gap is p+1-lam through the identity p+1-lam = p*lam^(-q) at the zero,
    which stays positive after lam saturates onto p+1 in doubles, and is
    formed as exp(log(p) - t), t = q*ln(lam), where lam^(-q) leaves the
    normal range; where lam^q underflows, the benign subtraction.
    D = lam - q*gap equals lam(q+1) - (p+1)q without its cancellation;
    D > 0 above the hyperbola and D < 0 below.  Raises CriticalRegime on
    the hyperbola, and where the zero is within rounding of 1: lam - 1 then
    keeps only the few digits of it that the double lam holds, and D no
    more, so their quotient can be wrong in its leading digit.  That is
    taken to be |lam - 1| < 2^-42, or 1024 ulp of 1, and wherever the sign
    of D contradicts the regime.  At q = 1 the zero p is exact, and so are
    both formulas, so only the sign test applies there.
    """
    result = solve_lambda(p, q)
    if result.regime is _CRITICAL:
        raise CriticalRegime(f"derivatives undefined on p*q = 1 (p={p!r}, q={q!r})")
    lam, p, q = result.value, result.p, result.q
    t = q * _ln(lam)
    if -t > _EXP_OVERFLOW:
        gap = p + 1.0 - lam
    else:  # past t = 708 exp(-t) is subnormal or 0, where p*lam^(-q) need not be
        gap = p * math.exp(-t) if t < _EXP_OVERFLOW else math.exp(math.log(p) - t)
    denom = lam - q * gap
    if (abs(lam - 1.0) < 2.0**-42 and q != 1.0
            or not (denom > 0.0 if result.regime is _SUPER else denom < 0.0)):
        raise CriticalRegime(f"no derivatives: zero within rounding of 1 (p={p!r}, q={q!r})")
    return lam, p, gap, denom


def dlambda_dp(p: float, q: float) -> float:
    """Partial derivative of lam(p, q) in p, by the implicit function theorem.

    Equals (lam^q - 1) / (lam^(q-1) * D), D = lam(q+1) - (p+1)q, and at the
    zero 1 - lam^(-q) = (lam-1)/p, so it is lam/p * ((lam-1)/D).  Strictly
    positive off the hyperbola.  Raises CriticalRegime on the hyperbola and
    where the zero is within rounding of 1.
    """
    lam, p, _, denom = _derivative_parts(p, q)
    return lam / p * ((lam - 1.0) / denom)


def dlambda_dq(p: float, q: float) -> float:
    """Partial derivative of lam(p, q) in q, by the implicit function theorem.

    Equals (p+1-lam) * lam^q * ln(lam) / (lam^(q-1) * D), evaluated as
    gap * ln(lam) * (lam/D), a grouping whose intermediates stay finite
    wherever the value is.  Positive off the hyperbola, down to subnormal
    underflow.  Raises CriticalRegime as dlambda_dp does, and
    InputOutOfRange where the value lies above the largest double.
    """
    lam, _, gap, denom = _derivative_parts(p, q)
    value = gap * _ln(lam) * (lam / denom)
    if value == math.inf:
        raise InputOutOfRange(f"dlambda_dq lies above the largest double (p={p!r}, q={q!r})")
    return value


def lower_bound_basic(p: float, q: float) -> float:
    """(p+1)q/(q+1): strict lower bound on lam(p, q) when p*q > 1, strict
    upper bound when p*q < 1 (it is the minimum locus of Q).

    An int/Fraction pair is rounded once from the exact bound.  Raises
    InputOutOfRange when the bound has no positive finite double.
    """
    return _real(lambda_min(p, q), "basic bound (p+1)q/(q+1)", InputOutOfRange)


def lower_bound_refined(p: float) -> float:
    """p+1-1/(p+1): sharper lower bound, valid for q >= 2 and p > 1/phi.

    At an integer weight p = m and order n >= 2 it is the lower end of the
    lattice enclosure m+1-1/(m+1) < phi(m, n) < m+1 (eq. 37).  The caller
    checks applicability; the value alone is defined for any positive p.
    """
    p = _real(p, "p")
    return p + 1.0 - 1.0 / (p + 1.0)


def bound_crossover(p: float) -> float:
    """(p+1)^2 - 1: the q at and below which the basic bound does not exceed
    the refined bound.

    Raises InputOutOfRange when p or the crossover lies above the largest
    double.
    """
    p = _real(p, "p", NonPositiveInput, "finite and >= 0")
    try:
        return (p + 1.0) ** 2 - 1.0
    except OverflowError:
        raise InputOutOfRange("bound crossover (p+1)^2-1 lies above the largest double") from None
