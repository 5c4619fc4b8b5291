"""Independent oracles for the test suite.

Deliberately naive implementations that share no code path with the
package: plain power arithmetic, pure bisection, and bisection in
50-digit mpmath arithmetic.  Expected values frozen in the tests were
produced by these.
"""

import math


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


def ulp_distance(value, exact):
    """|value - exact| in units of the double spacing at the smaller of the
    two magnitudes; ``exact`` is an mpf."""
    import mpmath

    with mpmath.workdps(80):
        spacing = math.ulp(min(abs(value), abs(float(exact))))
        return float(abs(mpmath.mpf(value) - exact) / spacing)


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
