"""Independent oracles for the test suite.

Deliberately naive implementations that share no code path with the
package: plain power arithmetic, pure bisection, and bisection in
mpmath arithmetic, at 50 digits or at more where the inputs need them.
Expected values frozen in the tests were produced by these.
"""

import math
from fractions import Fraction


def P_exact(lam, p, n):
    """P(lam; p, n) = lam^n - p*(lam^(n-1) + ... + 1) as a Fraction: a plain
    sum of powers of the exact values of lam and p."""
    lam, p = Fraction(lam), Fraction(p)
    return lam**n - p * sum(lam**k for k in range(n))


def rounded(exact):
    """The double nearest a Fraction, or +-inf past the double range."""
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def q_naive(lam, p, q):
    """Q via direct powers; overflows rather than tracking magnitude."""
    return lam ** (q + 1) - (p + 1) * lam**q + p


def bisect_lambda(p, q, iters=200):
    """The non-unit zero of Q located by pure bisection on q_naive."""
    if p * q == 1:
        return 1.0
    lmin = (p + 1) * q / (q + 1)
    if p * q > 1:
        lo, hi = lmin, p + 1
    else:
        hi = lmin
        lo = 0.5 * hi
        while q_naive(lo, p, q) <= 0:
            lo *= 0.5
    flo = q_naive(lo, p, q)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = q_naive(mid, p, q)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mp_root(p, q, digits=50):
    """The non-unit zero of Q to ``digits`` significant digits, as an mpf.

    Plain bisection in mpmath on the scaled form Q/lam^q =
    lam - (p+1) + p*lam^(-q), which has the zero's sign pattern and never
    overflows.  p and q are taken as the exact values of the given doubles.
    """
    import mpmath

    with mpmath.workdps(digits + 20):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        if p * q == 1:
            return mpmath.mpf(1)

        def scaled(lam):
            return lam - (p + 1) + p * lam ** (-q)

        lmin = (p + 1) * q / (q + 1)
        if p * q > 1:
            lo, hi = lmin, p + 1
        else:
            hi, lo = lmin, lmin / 2
            while scaled(lo) <= 0:
                lo /= 2
        neg_low = scaled(lo) < 0
        width = mpmath.mpf(10) ** (-(digits + 8))
        while hi - lo > width * hi:
            mid = mpmath.sqrt(lo * hi) if hi > 4 * lo else (lo + hi) / 2
            if (scaled(mid) < 0) == neg_low:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def mp_digits(p, q):
    """Digits that resolve p+1-lam and lam^(-q) at (p, q): 60 plus the
    decades of p and q."""
    return 60 + math.ceil(abs(math.log10(p)) + abs(math.log10(q)))


def mp_dlambda(p, q):
    """(dlam/dp, dlam/dq) as mpfs, by the implicit function theorem on the
    identity p+1-lam = p*lam^(-q) that holds at the zero:
    gap = p*lam^(-q), D = lam - q*gap, dlam/dp = lam*(lam-1)/(p*D) and
    dlam/dq = gap*ln(lam)*lam/D, at lam = mp_root(p, q, mp_digits(p, q)).
    A fixed 50 digits cannot resolve the gap of a saturated zero."""
    import mpmath

    digits = mp_digits(p, q)
    lam = mp_root(p, q, digits)
    with mpmath.workdps(digits + 20):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        gap = p * lam ** (-q)
        denom = lam - q * gap
        return lam * (lam - 1) / (p * denom), gap * mpmath.log(lam) * lam / denom


def mp_q_dq(lam, p, q, digits=40):
    """(Q, dQ/dlam) from the plain power forms in ``digits``-digit mpmath,
    with lam, p and q taken as the exact values of the given doubles."""
    import mpmath

    with mpmath.workdps(digits):
        lam, p, q = mpmath.mpf(lam), mpmath.mpf(p), mpmath.mpf(q)
        power = lam**q
        return (
            lam * power - (p + 1) * power + p,
            power / lam * (lam * (q + 1) - (p + 1) * q),
        )


def ulp_distance(value, exact):
    """|value - exact| in units of the double spacing at the smaller of the
    two magnitudes; ``exact`` is an mpf."""
    import mpmath

    with mpmath.workdps(80):
        spacing = math.ulp(min(abs(value), abs(float(exact))))
        return float(abs(mpmath.mpf(value) - exact) / spacing)


def relative_units(value, exact):
    """|value - exact| in units of 2^-52 * |exact|, ``exact`` an mpf; below
    the normal range the unit is the subnormal spacing 2^-1074, so a value
    that underflows to 0 with the exact one counts as 0 or 1 units."""
    import mpmath

    with mpmath.workdps(40):
        unit = max(abs(exact) * mpmath.mpf(2) ** -52, mpmath.mpf(2) ** -1074)
        return float(abs(mpmath.mpf(value) - exact) / unit)


def bracket_miss_ulp(lo, hi, exact):
    """How far ``exact`` (an mpf) lies outside [lo, hi], in units of the
    double spacing at the nearer end; 0 inside."""
    import mpmath

    if lo <= exact <= hi:
        return 0.0
    end = lo if exact < lo else hi
    with mpmath.workdps(80):
        return float(abs(mpmath.mpf(end) - exact) / math.ulp(end))


def central_difference(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def cone_centroid_quadrature(n, height, apex, panels=20000):
    """Axis centroid of a cone/pyramid by midpoint quadrature of the
    cross-section weight t^(n-1)."""
    total = moment = 0.0
    for i in range(panels):
        t = (i + 0.5) / panels
        w = t ** (n - 1)
        total += w
        moment += (apex + height * t) * w
    return moment / total


def mp_gap(m, n, digits=80):
    """m+1 - phi(m, n) as an mpf: the fixed point of
    g = m/(m+1)^n * (1 - g/(m+1))^(-n), iterated from m/(m+1)^n in
    ``digits``-digit mpmath until a step moves it by less than that
    precision.  The map contracts, by n*g/phi < 1 at its fixed point,
    since phi lies above the basic bound (m+1)*n/(n+1)."""
    import mpmath

    with mpmath.workdps(digits + 10):
        ceiling = mpmath.mpf(m + 1)
        g0 = mpmath.mpf(m) / ceiling**n
        g = g0
        while True:
            nxt = g0 * (1 - g / ceiling) ** (-n)
            if abs(nxt - g) <= mpmath.mpf(10) ** (-(digits + 5)) * nxt:
                return nxt
            g = nxt
