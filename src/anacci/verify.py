"""Re-runnable verification suites behind the ``verify`` CLI command.

Each check walks one inequality family and reports its worst margin — the
smallest slack by which the family held (negative means a violation).
Checks with exact boolean content report a count instead of a margin.

``FAMILIES`` lists every family once, by suite, in report order.  A suite
body yields ``(family, margin)`` pairs, and ``_report`` folds them into one
``CheckResult`` per family of the table.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from typing import NamedTuple

from .geometry import (
    BodyKind,
    DilationScene,
    axis_interval,
    ball,
    b_one,
    center_ordering,
    centroid,
    cone,
    cube,
    lambda_from_p,
    mc_centroid,
    representation,
    scene_points,
    shell_centroid,
)
from .lattice import _gap, anacci, scaled_seq_A, scaled_seq_B, seq_diagonal, seq_fixed_n
from .qkernel import _CRITICAL, _SUPER, lambda_min
from .solver import solve_lambda

_INV_PHI = 2.0 / (1.0 + math.sqrt(5.0))  # 1/phi = phi - 1

# suite -> {family: note}, in report order; a note may name the suite's sizes
FAMILIES = {
    "bounds": {
        "sandwich_lattice": "m+1-1/(m+1) < phi < m+1",
        "basic_lattice": "1 < (p+1)q/(q+1) < phi < p+1",
        "random_regimes": "regime-ordered chains on random (p, q)",
        "refined": "p+1-1/(p+1) < lam for q >= 2, p > 1/phi",
        "crossover_equivalence": "basic <= refined iff q <= (p+1)^2-1, exact rationals",
    },
    "monotone": {
        "fixed_m": "m+1 - phi falls in n",
        "fixed_n": "",
        "diagonals": "",
        "scaled_A_increasing": "",
        "scaled_B_limit": "final value in (1, 1+1/{m_max}]",
        "line_restrictions": "strictly increasing along lines with angle in [0, pi/2]",
        "midpoint_concavity": "lam(midpoint) >= mean of endpoint values where p*q >= 1",
    },
    "appendices": {
        "A_chain": "(m+1)/m phi(m) < (m+1)^2/m; (m+2)/(m+1) (m+2-1/(m+2)) < (m+2)/(m+1) phi(m+1)",
        "B_chain": "phi(m+1)/(m+1) < phi(m)/m < 1 + 1/m with the stated lower tail",
        "C_nesting": "cone height intervals: left ends decrease, right ends increase",
    },
    "geometry": {
        "lever_identity": "d(L(A),B)*lam^n = d(A,B), over max(1, lam^n), to 1e-12*(1+d)",
        "distance_ratio_roundtrip": "p -> lam -> scene recovers p in both orientations",
        "b_one_limit": "shell centroid at lam = 1 +- 1e-5",
        "center_orderings": "the five orderings of O, A, B(1), L(A), B by dilation factor",
        "ball_representation": "2*phi(m, n) in (2m, 2m+2) for n >= 2",
        "cube_representation": "image far face phi(m, n) in (m, m+1) for n >= 2",
        "cone_representation": "image centroid in [1/2, 1), shell centroid at 1",
        "apex_centroid_ratio": "apex dilation limit hits the base-face centroid, split n:1",
        "mc_cross_check": "shell centroid within 4*stderr of the Monte Carlo estimate",
    },
}


def _resolution(x: float) -> float:
    """Slack of a few ulp for strict bounds whose true gap can shrink below
    double resolution (e.g. lam(p, q) -> p+1 for large q)."""
    return 8.0 * 2.220446049250313e-16 * abs(x)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    worst_margin: float
    count: int
    note: str = ""


def _report(suite: str, pairs, **sizes) -> list[CheckResult]:
    """One CheckResult per family of ``suite``, in table order.

    A float margin holds when it is positive, and the family reports its
    smallest; a nan margin fails the family, which reports nan.  A bool
    margin is an exact check, reported without a margin.  A family that
    made no check fails, since it has shown nothing.
    """
    margins = {family: [] for family in FAMILIES[suite]}
    for family, margin in pairs:
        margins[family].append(margin)
    results = []
    for family, note in FAMILIES[suite].items():
        values = margins[family]
        if values and isinstance(values[0], bool):
            passed, worst = all(values), math.nan
        else:
            worst = min(values, default=math.inf)
            # min passes over a nan after the first margin, but a sum keeps
            # it; otherwise the sum is nan only for +inf next to -inf, and
            # then min is -inf
            if worst > -math.inf and math.isnan(sum(values)):
                worst = math.nan
            passed = bool(values) and worst > 0.0
        name = f"{suite}.{family}"
        results.append(CheckResult(name, passed, worst, len(values), note.format(**sizes)))
    return results


def _rises(family: str, seq):
    """(family, b - a) for each consecutive pair: positive while seq increases."""
    return ((family, b - a) for a, b in zip(seq, seq[1:]))


# ---------------------------------------------------------------------------
# bounds


def _bounds(m_max: int, n_max: int, seed: int):
    # one pass over the lattice feeds both lattice families; the sandwich
    # starts at n = 2 and the basic bound skips (1, 1), where it equals 1;
    # phi < m+1 reads the gap m+1 - phi, where it has a double (not 0.0)
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            if m * n == 1:
                continue
            value, gap = anacci((m, n)), _gap(m, n)
            if n > 1:
                yield "sandwich_lattice", value - (m + 1 - 1 / (m + 1))
                if gap:
                    yield "sandwich_lattice", gap
            lmin = (m + 1) * n / (n + 1)  # lower_bound_basic(m, n): int division rounds once
            yield "basic_lattice", lmin - 1.0
            yield "basic_lattice", value - lmin
            if gap:
                yield "basic_lattice", gap

    # one pass over the random solves feeds both random families; each
    # point is random.uniform's lo + (hi - lo) * random(), inlined
    draw = random.Random(seed).random
    for _ in range(10_000):
        p = 0.05 + (5.0 - 0.05) * draw()
        q = 0.05 + (40.0 - 0.05) * draw()
        _, _, value, _, _, _, _, regime = solve_lambda(p, q)
        if regime is _CRITICAL:
            continue
        # the bounds of lower_bound_basic and lower_bound_refined, on the
        # point solve_lambda has already checked
        lmin = (p + 1) * q / (q + 1)
        yield "random_regimes", (p + 1) - value + _resolution(p + 1)
        if regime is _SUPER:
            yield "random_regimes", lmin - 1.0
            yield "random_regimes", value - lmin
        else:
            yield "random_regimes", value
            yield "random_regimes", lmin - value
            yield "random_regimes", 1.0 - lmin
        if q >= 2.0 and p > _INV_PHI:
            yield "refined", value - (p + 1.0 - 1.0 / (p + 1.0))

    # the library's lambda_min on every grid point; the rest is built once.
    # Each side compares two rationals a/b <= c/d with b, d > 0 as
    # a*d <= c*b, in integers
    qs = [Fraction(j, 4) for j in range(1, 4 * 16 + 1)]
    for i in range(1, 4 * 5 + 1):
        p = Fraction(i, 4)
        rn, rd = (p + 1 - Fraction(1, p + 1)).as_integer_ratio()  # the refined bound
        cn, cd = ((p + 1) ** 2 - 1).as_integer_ratio()  # the crossover q
        for q in qs:
            basic = lambda_min(p, q)
            yield "crossover_equivalence", (
                (basic.numerator * rd <= rn * basic.denominator)
                == (q.numerator * cd <= cn * q.denominator)
            )


def suite_bounds(*, m_max: int, n_max: int, seed: int, **_) -> list[CheckResult]:
    return _report("bounds", _bounds(m_max, n_max, seed))


# ---------------------------------------------------------------------------
# monotone structure

# segments whose endpoints and midpoint all have p*q >= 1, where lam is concave
_CONCAVITY_SEGMENTS = (
    ((1.0, 1.5), (3.0, 2.0)),
    ((0.8, 2.0), (2.5, 4.0)),
    ((1.5, 1.0), (1.5, 6.0)),
    ((1.0, 2.0), (4.0, 2.0)),
    ((2.0, 0.6), (3.0, 5.0)),
)


def _monotone(m_max: int, n_max: int):
    # phi = m+1 - gap rises in n as its gap falls, where it has a double
    for m in range(1, m_max + 1):
        gaps = [_gap(m, n) for n in range(1, n_max + 1)]
        yield from (("fixed_m", a - b) for a, b in zip(gaps, gaps[1:]) if b)

    for n in range(1, n_max + 1):
        yield from _rises("fixed_n", seq_fixed_n(n, m_max))

    # at k = 1 both diagonals are phi(i, i), so that one is walked once
    for k, which in ((1, "kn"), (2, "kn"), (2, "km"), (3, "kn"), (3, "km")):
        count = max(2, min(10, m_max // k))
        yield from _rises("diagonals", seq_diagonal(k, count, which))

    for n in range(1, n_max + 1):
        yield from _rises("scaled_A_increasing", scaled_seq_A(n, m_max))

    for n in (2, 3, 5):
        if n > n_max:
            continue
        yield "scaled_B_limit", scaled_seq_B(n, m_max)[-1] - 1.0
        # phi/m < 1 + 1/m is the gap m+1 - phi > 0, at m = m_max
        if gap := _gap(m_max, n):
            yield "scaled_B_limit", gap

    bases = ((0.3, 0.6), (1.2, 0.8), (0.6, 2.5), (2.0, 1.5))
    for alpha in (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
        dp, dq = math.cos(alpha), math.sin(alpha)
        for p0, q0 in bases:
            values = []
            for step in range(9):
                t = 0.3 * step
                p, q = p0 + dp * t, q0 + dq * t
                result = solve_lambda(p, q)
                if result.regime is not _CRITICAL:
                    values.append(result.value)
            yield from _rises("line_restrictions", values)

    for (p1, q1), (p2, q2) in _CONCAVITY_SEGMENTS:
        pm, qm = 0.5 * (p1 + p2), 0.5 * (q1 + q2)
        mid = solve_lambda(pm, qm).value
        avg = 0.5 * (solve_lambda(p1, q1).value + solve_lambda(p2, q2).value)
        yield "midpoint_concavity", mid - avg


def suite_monotone(*, m_max: int, n_max: int, **_) -> list[CheckResult]:
    return _report("monotone", _monotone(m_max, n_max), m_max=m_max)


# ---------------------------------------------------------------------------
# appendices


def _appendices(m_max: int, n_max: int):
    # rhs = (m+2)/(m+1) phi(m+1); here, nxt = phi(m)/m, phi(m+1)/(m+1); the
    # upper links (m+1)/m phi(m) < (m+1)^2/m and here < 1 + 1/m scale the gap
    for n in range(2, n_max + 1):
        seq_b = scaled_seq_B(n, m_max)
        for m, rhs, here, nxt in zip(range(1, m_max), scaled_seq_A(n, m_max)[1:], seq_b, seq_b[1:]):
            if gap := _gap(m, n):
                yield "A_chain", gap
                yield "B_chain", gap
            yield "A_chain", rhs - (m + 2) / (m + 1) * (m + 2 - 1 / (m + 2))
            yield "B_chain", here - nxt
            yield "B_chain", nxt - ((m + 2) / (m + 1) - 1.0 / ((m + 2) * (m + 1)))

    # the dilated unit cones of representation, m = 1..m_max at each n: the
    # left ends fall, then the right ends rise
    for n in range(1, n_max + 1):
        reps = [representation(BodyKind.CONE, m, n) for m in range(1, m_max + 1)]
        lefts, rights = zip(*(rep.image_interval for rep in reps))
        yield from (("C_nesting", a - b) for a, b in zip(lefts, lefts[1:]))
        yield from _rises("C_nesting", rights)


def suite_appendices(*, m_max: int, n_max: int, **_) -> list[CheckResult]:
    return _report("appendices", _appendices(m_max, n_max))


# ---------------------------------------------------------------------------
# geometry


# center_ordering's chain labels -> scene_points keys
_POINT_KEYS = {"O": "O", "A": "A", "L(A)": "LA", "B(1)": "B1", "B": "B"}


def _geometry(n_max: int, seed: int, samples: int):
    for n in range(1, n_max + 1):
        for lam in (0.3, 0.8, 1.2, 2.0, 3.0):
            for scene in (
                DilationScene(ball(n, 1.0, center=1.0), 0.25, lam),
                DilationScene(cube(n, 1.0, near_face=0.0), 0.2, lam),
                DilationScene(cone(n, 1.0, apex=0.0), 0.3, lam),
            ):
                pts = scene_points(scene)
                d_ab, d_lab = abs(pts["B"] - pts["A"]), abs(pts["B"] - pts["LA"])
                # both sides over max(1, lam^n), so that no power overflows
                residual = abs(d_lab - d_ab * lam**-n) if lam > 1.0 else abs(d_lab * lam**n - d_ab)
                yield "lever_identity", 1e-12 * (1.0 + d_ab) - residual

    for n in range(1, n_max + 1):
        for p in (0.6, 1.0, 2.0, 3.5):
            if not p * n > 1:
                continue
            lam = lambda_from_p(n, p)
            scene = DilationScene(ball(n, 1.0, center=1.0), 0.0, lam)
            pts = scene_points(scene)
            ratio = abs(pts["B"] - pts["A"]) / abs(pts["A"] - pts["O"])
            yield "distance_ratio_roundtrip", 1e-10 - abs(ratio - p)
            mirror = DilationScene(ball(n, 1.0, center=1.0), 0.0, 1.0 / lam)
            mpts = scene_points(mirror)
            ratio2 = abs(mpts["B"] - mpts["LA"]) / abs(mpts["LA"] - mpts["O"])
            yield "distance_ratio_roundtrip", 1e-10 - abs(ratio2 - p)

    for n in range(1, n_max + 1):
        for body, O in (
            (ball(n, 1.0, center=1.0), 0.3),
            (cone(n, 1.0, apex=0.0), 0.0),
        ):
            limit = b_one(body, O)
            for lam in (1.0 + 1e-5, 1.0 - 1e-5):
                b = shell_centroid(DilationScene(body, O, lam))
                yield "b_one_limit", 1e-4 - abs(b - limit)

    # each link of the chain center_ordering names: "<" needs a positive
    # gap in distance from O, "=" a gap within 1e-12
    for n in (1, 2, 5):
        if n > n_max:
            continue
        body = ball(n, 1.0, center=1.0)
        threshold = 1.0 + 1.0 / n
        for lam in (threshold + 0.4, threshold, 0.5 * (1.0 + threshold), 1.0, 0.7):
            scene = DilationScene(body, 0.0, lam)
            pts = scene_points(scene)
            chain = re.split("([<=])", center_ordering(scene).value)
            d = [abs(pts[_POINT_KEYS[label]] - scene.O) for label in chain[::2]]
            for near, link, far in zip(d, chain[1::2], d[1:]):
                gap = far - near
                yield "center_orderings", gap if link == "<" else 1e-12 - abs(gap)

    # the image's far end: 2*phi for the ball, phi for the cube, at fig5's
    # sizes from n = 2, where both edges are strict; at n = 1 it is the
    # left edge itself, as phi(m, 1) = m
    for family, kind, scale in (("ball_representation", BodyKind.BALL, 2),
                                ("cube_representation", BodyKind.CUBE, 1)):
        for m in range(1, 4):
            for n in range(2, 6):
                far = representation(kind, m, n).image_interval[1]
                yield family, far - scale * m
                yield family, scale * (m + 1) - far

    for m in range(1, 13):
        for n in range(1, 13):
            # the left edge of [1/2, 1) is attained only at the (1, 1)
            # corner, the lam = 1 limit, which it skips as _bounds does;
            # elsewhere both edges hold in doubles with no slack up to
            # m = 12.  The shell centroid is formed to within an ulp of m+1.
            # A pyramid's representation reads the same doubles.
            rep = representation(BodyKind.CONE, m, n)
            if m * n != 1:
                yield "cone_representation", rep.image_centroid - 0.5
            yield "cone_representation", 1.0 - rep.image_centroid
            yield "cone_representation", 2 * math.ulp(m + 1.0) - abs(rep.shell_b - 1.0)

    # a unit cone dilated about its apex: B(1) is the base-face centroid,
    # and the centroid A splits O to B(1) as n:1.  b_one_limit reads the
    # shell centroid near lam = 1 on these cones, and a pyramid gives the
    # same readings.
    for body in [cone(n) for n in range(1, n_max + 1)]:
        a, limit = centroid(body), b_one(body, 0.0)
        yield "apex_centroid_ratio", (
            abs(limit - axis_interval(body)[1]) <= 1e-12
            and abs(a / (limit - a) - body.n) <= 1e-6
        )

    for scene in (
        DilationScene(ball(2, 1.0, center=1.0), 0.0, 2.0),
        DilationScene(cube(3, 1.0, near_face=0.0), 0.0, 1.5),
        DilationScene(ball(2, 1.0, center=1.0), 0.0, 0.5),
    ):
        estimate, stderr = mc_centroid(scene, seed, samples)
        yield "mc_cross_check", 4.0 * stderr - abs(estimate - shell_centroid(scene))


def suite_geometry(*, n_max: int, seed: int, samples: int, **_) -> list[CheckResult]:
    return _report("geometry", _geometry(n_max, seed, samples))


# Each suite takes the keywords of run_suite and ignores those it does not use.
SUITES = {
    "bounds": suite_bounds,
    "monotone": suite_monotone,
    "appendices": suite_appendices,
    "geometry": suite_geometry,
}


def run_suite(
    suite: str,
    m_max: int = 50,
    n_max: int = 10,
    seed: int = 42,
    samples: int = 200_000,
) -> list[CheckResult]:
    """Run one suite (or "all") with shared size parameters.

    The sizes are defaulted here only; each suite takes them as required
    keywords.  Both sizes must be at least 2, where every family has a
    check to make.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    for label, size in (("m_max", m_max), ("n_max", n_max)):
        if size < 2:
            raise ValueError(f"{label} must be >= 2, got {size}")
    results = []
    for name in list(SUITES) if suite == "all" else [suite]:
        results.extend(SUITES[name](m_max=m_max, n_max=n_max, seed=seed, samples=samples))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        margin = "n/a" if math.isnan(r.worst_margin) else format(r.worst_margin, ".3e")
        line = f"{status}  {r.name:36s} worst_margin={margin:>10s}  checks={r.count}"
        if r.note:
            line += f"  ({r.note})"
        lines.append(line)
    failed = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - failed}/{len(results)} families passed"
        + (f", {failed} FAILED" if failed else "")
    )
    return "\n".join(lines)
