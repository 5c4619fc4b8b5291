"""Re-runnable verification suites behind the ``verify`` CLI command.

Each check walks one inequality family and reports its worst margin — the
smallest slack by which the family held (negative means a violation).
Checks with exact boolean content report a count instead of a margin.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateShell
from .geometry import (
    BodyKind,
    DilationScene,
    ball,
    ball_representation,
    b_one,
    centroid_ratio_theorem_check,
    cone,
    cone_representation,
    cube,
    height_interval_nesting,
    lambda_from_p,
    mc_centroid,
    pyramid,
    scene_points,
    shell_centroid,
)
from .lattice import anacci, scaled_seq_A, scaled_seq_B, seq_diagonal, seq_fixed_m, seq_fixed_n
from .qkernel import RegionClass, classify, lambda_min
from .solver import lower_bound_basic, lower_bound_refined, solve_lambda

_INV_PHI = 2.0 / (1.0 + math.sqrt(5.0))  # 1/phi = phi - 1


def _resolution(x: float) -> float:
    """Slack of a few ulp for strict bounds whose true gap can shrink below
    double resolution (e.g. lam(p, q) -> p+1 for large q)."""
    return 8.0 * 2.220446049250313e-16 * abs(x)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_margin: float
    count: int
    note: str = ""


def _margin_check(name: str, margins, note: str = "") -> CheckResult:
    margins = list(margins)
    worst = min(margins) if margins else math.inf
    return CheckResult(name, worst > 0.0, worst, len(margins), note)


def _strict_increase(name: str, seq, note: str = "") -> CheckResult:
    return _margin_check(name, (b - a for a, b in zip(seq, seq[1:])), note)


# ---------------------------------------------------------------------------
# bounds


def suite_bounds(
    m_max: int = 50,
    n_max: int = 10,
    random_points: int = 10_000,
    seed: int = 20240801,
) -> list[CheckResult]:
    results = []

    sandwich = []
    for m in range(1, m_max + 1):
        for n in range(2, n_max + 1):
            value = anacci((m, n))
            sandwich.append(value - (m + 1 - 1 / (m + 1)))
            sandwich.append((m + 1) - value + _resolution(m + 1))
    results.append(
        _margin_check("bounds.sandwich_lattice", sandwich, "m+1-1/(m+1) < phi < m+1")
    )

    lattice = []
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            if m * n == 1:
                continue
            value = anacci((m, n))
            lmin = lower_bound_basic(m, n)
            lattice.append(lmin - 1.0)
            lattice.append(value - lmin)
            lattice.append((m + 1) - value + _resolution(m + 1))
    results.append(
        _margin_check("bounds.basic_lattice", lattice, "1 < (p+1)q/(q+1) < phi < p+1")
    )

    rng = random.Random(seed)
    rand_margins = []
    refined_margins = []
    for _ in range(random_points):
        p = rng.uniform(0.05, 5.0)
        q = rng.uniform(0.05, 40.0)
        regime = classify(p, q)
        if regime is RegionClass.CRITICAL:
            continue
        value = solve_lambda(p, q).value
        lmin = lower_bound_basic(p, q)
        rand_margins.append((p + 1) - value + _resolution(p + 1))
        if regime is RegionClass.SUPER:
            rand_margins.append(lmin - 1.0)
            rand_margins.append(value - lmin)
        else:
            rand_margins.append(value)
            rand_margins.append(lmin - value)
            rand_margins.append(1.0 - lmin)
        if q >= 2.0 and p > _INV_PHI:
            refined_margins.append(value - lower_bound_refined(p))
    results.append(
        _margin_check(
            "bounds.random_regimes",
            rand_margins,
            "regime-ordered chains on random (p, q)",
        )
    )
    results.append(
        _margin_check(
            "bounds.refined",
            refined_margins,
            "p+1-1/(p+1) < lam for q >= 2, p > 1/phi",
        )
    )

    mismatches = 0
    checked = 0
    for i in range(1, 4 * 5 + 1):
        for j in range(1, 4 * 16 + 1):
            p = Fraction(i, 4)
            q = Fraction(j, 4)
            basic = lambda_min(p, q)
            refined = p + 1 - Fraction(1, p + 1)
            crossover = (p + 1) ** 2 - 1
            checked += 1
            if (basic <= refined) != (q <= crossover):
                mismatches += 1
    results.append(
        CheckResult(
            "bounds.crossover_equivalence",
            mismatches == 0,
            math.nan,
            checked,
            "basic <= refined iff q <= (p+1)^2-1, exact rationals",
        )
    )
    return results


# ---------------------------------------------------------------------------
# monotone structure


def suite_monotone(m_max: int = 50, n_max: int = 10) -> list[CheckResult]:
    results = []

    margins = []
    for m in range(1, m_max + 1):
        seq = seq_fixed_m(m, n_max)
        ceiling = m + 1.0
        for a, b in zip(seq, seq[1:]):
            if ceiling - a > 1e-12 * ceiling:
                margins.append(b - a)
            else:  # solver noise band around the asymptote
                margins.append(b - a + _resolution(ceiling))
    results.append(_margin_check("monotone.fixed_m", margins))

    margins = []
    for n in range(1, n_max + 1):
        seq = seq_fixed_n(n, m_max)
        margins.extend(b - a for a, b in zip(seq, seq[1:]))
    results.append(_margin_check("monotone.fixed_n", margins))

    margins = []
    for k in (1, 2, 3):
        count = max(2, min(10, m_max // k))
        for which in ("kn", "km"):
            seq = seq_diagonal(k, count, which)
            margins.extend(b - a for a, b in zip(seq, seq[1:]))
    results.append(_margin_check("monotone.diagonals", margins))

    margins = []
    for n in range(1, n_max + 1):
        seq = scaled_seq_A(n, m_max)
        margins.extend(b - a for a, b in zip(seq, seq[1:]))
    results.append(_margin_check("monotone.scaled_A_increasing", margins))

    margins = []
    for n in range(2, n_max + 1):
        seq = scaled_seq_B(n, m_max)
        margins.extend(a - b for a, b in zip(seq, seq[1:]))
    results.append(_margin_check("monotone.scaled_B_decreasing", margins))

    margins = []
    for n in (2, 3, 5):
        if n > n_max:
            continue
        last = scaled_seq_B(n, m_max)[-1]
        margins.append(last - 1.0)
        margins.append(1.0 + 1.0 / m_max + 1e-9 - last)
    results.append(
        _margin_check(
            "monotone.scaled_B_limit", margins, f"final value in (1, 1+1/{m_max}]"
        )
    )

    margins = []
    bases = ((0.3, 0.6), (1.2, 0.8), (0.6, 2.5), (2.0, 1.5))
    for alpha in (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
        dp, dq = math.cos(alpha), math.sin(alpha)
        for p0, q0 in bases:
            values = []
            for step in range(9):
                t = 0.3 * step
                p, q = p0 + dp * t, q0 + dq * t
                if classify(p, q) is RegionClass.CRITICAL:
                    continue
                values.append(solve_lambda(p, q).value)
            margins.extend(b - a for a, b in zip(values, values[1:]))
    results.append(
        _margin_check(
            "monotone.line_restrictions",
            margins,
            "strictly increasing along lines with angle in [0, pi/2]",
        )
    )

    margins = []
    segments = (
        ((1.0, 1.5), (3.0, 2.0)),
        ((0.8, 2.0), (2.5, 4.0)),
        ((1.5, 1.0), (1.5, 6.0)),
        ((1.0, 2.0), (4.0, 2.0)),
        ((2.0, 0.6), (3.0, 5.0)),
    )
    for (p1, q1), (p2, q2) in segments:
        pm, qm = 0.5 * (p1 + p2), 0.5 * (q1 + q2)
        assert p1 * q1 >= 1 and p2 * q2 >= 1 and pm * qm >= 1
        mid = solve_lambda(pm, qm).value
        avg = 0.5 * (solve_lambda(p1, q1).value + solve_lambda(p2, q2).value)
        margins.append(mid - avg + 1e-12)
    results.append(
        _margin_check(
            "monotone.midpoint_concavity",
            margins,
            "lam(midpoint) >= mean of endpoint values where p*q >= 1",
        )
    )
    return results


# ---------------------------------------------------------------------------
# appendices


def suite_appendices(m_max: int = 50, n_max: int = 10) -> list[CheckResult]:
    results = []

    chain_a = []
    for n in range(2, n_max + 1):
        for m in range(1, m_max):
            lhs = (m + 1) / m * anacci((m, n))
            mid1 = (m + 1) ** 2 / m
            mid2 = (m + 2) / (m + 1) * (m + 2 - 1 / (m + 2))
            rhs = (m + 2) / (m + 1) * anacci((m + 1, n))
            chain_a.append(mid1 - lhs + _resolution(mid1))
            chain_a.append(mid2 - mid1 + _resolution(mid2))  # non-strict link
            chain_a.append(rhs - mid2)
    results.append(
        _margin_check(
            "appendices.A_chain",
            chain_a,
            "(m+1)/m phi(m) < (m+1)^2/m <= ... < (m+2)/(m+1) phi(m+1)",
        )
    )

    chain_b = []
    for n in range(2, n_max + 1):
        for m in range(1, m_max):
            here = anacci((m, n)) / m
            nxt = anacci((m + 1, n)) / (m + 1)
            chain_b.append(here - nxt)
            chain_b.append(1.0 + 1.0 / m - here + _resolution(1.0 + 1.0 / m))
            chain_b.append(nxt - ((m + 2) / (m + 1) - 1.0 / ((m + 2) * (m + 1))))
    results.append(
        _margin_check(
            "appendices.B_chain",
            chain_b,
            "phi(m+1)/(m+1) < phi(m)/m < 1 + 1/m with the stated lower tail",
        )
    )

    nesting = []
    for n in range(1, min(n_max, 10) + 1):
        report = height_interval_nesting(n, m_max)
        nesting.extend(report.left_margins)
        nesting.extend(report.right_margins)
    results.append(
        _margin_check(
            "appendices.C_nesting",
            nesting,
            "cone height intervals: left ends decrease, right ends increase",
        )
    )
    return results


# ---------------------------------------------------------------------------
# geometry


def _canonical_scenes(n: int, lam: float) -> list[DilationScene]:
    return [
        DilationScene(ball(n, 1.0, center=1.0), 0.25, lam),
        DilationScene(cube(n, 1.0, near_face=0.0), 0.2, lam),
        DilationScene(cone(n, 1.0, apex=0.0), 0.3, lam),
        DilationScene(pyramid(n, 1.0, apex=0.0), 0.3, lam),
    ]


def lever_residual(scene: DilationScene) -> float:
    """|d(L(A), B)*lam^n - d(A, B)| for the scene."""
    pts = scene_points(scene)
    return abs(
        abs(pts["B"] - pts["LA"]) * scene.lam**scene.body.n - abs(pts["B"] - pts["A"])
    )


def suite_geometry(
    n_max: int = 8, seed: int = 42, samples: int = 200_000
) -> list[CheckResult]:
    results = []

    margins = []
    for n in range(1, n_max + 1):
        for lam in (0.3, 0.8, 1.2, 2.0, 3.0):
            for scene in _canonical_scenes(n, lam):
                pts = scene_points(scene)
                d_ab = abs(pts["B"] - pts["A"])
                margins.append(1e-12 * (1.0 + d_ab) - lever_residual(scene))
    results.append(
        _margin_check(
            "geometry.lever_identity",
            margins,
            "d(L(A),B)*lam^n = d(A,B) to 1e-12*(1+d)",
        )
    )

    margins = []
    for n in range(1, n_max + 1):
        for p in (0.6, 1.0, 2.0, 3.5):
            if not p * n > 1:
                continue
            lam = lambda_from_p(n, p)
            scene = DilationScene(ball(n, 1.0, center=1.0), 0.0, lam)
            pts = scene_points(scene)
            ratio = abs(pts["B"] - pts["A"]) / abs(pts["A"] - pts["O"])
            margins.append(1e-10 - abs(ratio - p))
            mirror = DilationScene(ball(n, 1.0, center=1.0), 0.0, 1.0 / lam)
            mpts = scene_points(mirror)
            ratio2 = abs(mpts["B"] - mpts["LA"]) / abs(mpts["LA"] - mpts["O"])
            margins.append(1e-10 - abs(ratio2 - p))
    results.append(
        _margin_check(
            "geometry.distance_ratio_roundtrip",
            margins,
            "p -> lam -> scene recovers p in both orientations",
        )
    )

    margins = []
    for n in range(1, n_max + 1):
        for body, O in (
            (ball(n, 1.0, center=1.0), 0.3),
            (cone(n, 1.0, apex=0.0), 0.0),
        ):
            limit = b_one(body, O)
            for lam in (1.0 + 1e-5, 1.0 - 1e-5):
                b = shell_centroid(DilationScene(body, O, lam))
                margins.append(1e-4 - abs(b - limit))
    results.append(
        _margin_check(
            "geometry.b_one_limit", margins, "shell centroid at lam = 1 +- 1e-5"
        )
    )

    margins = []
    for n in (1, 2, 5):
        if n > n_max:
            continue
        body = ball(n, 1.0, center=1.0)
        threshold = 1.0 + 1.0 / n
        for lam in (threshold + 0.4, threshold, 0.5 * (1.0 + threshold), 1.0, 0.7):
            pts = scene_points(DilationScene(body, 0.0, lam))
            d = {k: abs(v) for k, v in pts.items()}  # distances from O = 0
            margins.append(d["A"])  # O < A in every case
            if abs(lam - 1.0) <= 1e-12:  # A = L(A) < B(1) <= B
                margins.append(1e-12 - abs(d["LA"] - d["A"]))
                margins.append(d["B1"] - d["A"])
                margins.append(1e-12 - abs(d["B"] - d["B1"]))
            elif lam < 1.0:  # L(A) < A < B < B(1)
                margins.append(d["A"] - d["LA"])
                margins.append(d["B"] - d["A"])
                margins.append(d["B1"] - d["B"])
            elif abs(lam - threshold) <= 1e-12:  # A < B(1) = L(A) < B
                margins.append(d["B1"] - d["A"])
                margins.append(1e-12 - abs(d["LA"] - d["B1"]))
                margins.append(d["B"] - d["LA"])
            elif lam > threshold:  # A < B(1) < L(A) < B
                margins.append(d["B1"] - d["A"])
                margins.append(d["LA"] - d["B1"])
                margins.append(d["B"] - d["LA"])
            else:  # A < L(A) < B(1) < B
                margins.append(d["LA"] - d["A"])
                margins.append(d["B1"] - d["LA"])
                margins.append(d["B"] - d["B1"])
    results.append(
        _margin_check(
            "geometry.center_orderings",
            margins,
            "the five orderings of O, A, B(1), L(A), B by dilation factor",
        )
    )

    margins = []
    for m in range(1, 4):
        per_m = []
        for n in range(1, 6):
            rep = ball_representation(m, n)
            # left edge of [2m, 2m+2) is attained at n = 1
            margins.append(rep.intersection - 2 * m + _resolution(2 * m))
            margins.append(2 * (m + 1) - rep.intersection)
            per_m.append(rep.intersection)
        margins.extend(b - a for a, b in zip(per_m, per_m[1:]))
    results.append(
        _margin_check(
            "geometry.ball_representation",
            margins,
            "2*phi(m, n) in [2m, 2m+2), increasing in n",
        )
    )

    margins = []
    for m in range(1, 13):
        for n in range(1, 13):
            rep = cone_representation(m, n)
            # left edge of [1/2, 1) is attained at m = n = 1; the right
            # edge is strict but the centroid rounding scales with m+1
            margins.append(rep.image_centroid - 0.5 + _resolution(0.5))
            margins.append(1.0 - rep.image_centroid + _resolution(m + 1))
    results.append(
        _margin_check(
            "geometry.cone_representation", margins, "image centroid in [1/2, 1)"
        )
    )

    ok = all(
        centroid_ratio_theorem_check(kind, n)
        for kind in (BodyKind.CONE, BodyKind.PYRAMID)
        for n in range(1, n_max + 1)
    )
    results.append(
        CheckResult(
            "geometry.apex_centroid_ratio",
            ok,
            math.nan,
            2 * n_max,
            "apex dilation limit hits the base-face centroid, split n:1",
        )
    )

    margins = []
    note = "shell centroid within 4*stderr of the hit-or-miss estimate"
    mc_cases = [
        DilationScene(ball(2, 1.0, center=1.0), 0.0, 2.0),
        DilationScene(cube(3, 1.0, near_face=0.0), 0.0, 1.5),
        DilationScene(ball(2, 1.0, center=1.0), 0.0, 0.5),
    ]
    try:
        for scene in mc_cases:
            estimate, stderr = mc_centroid(scene, seed, samples)
            margins.append(4.0 * stderr - abs(estimate - shell_centroid(scene)))
    except DegenerateShell as exc:  # pragma: no cover - diagnostic path
        results.append(CheckResult("geometry.mc_cross_check", False, -math.inf, 0, str(exc)))
    else:
        results.append(_margin_check("geometry.mc_cross_check", margins, note))
    return results


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
    """Run one suite (or "all") with shared size parameters."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    results = []
    for name in names:
        if name == "bounds":
            results.extend(suite_bounds(m_max=m_max, n_max=n_max, seed=seed))
        elif name == "monotone":
            results.extend(suite_monotone(m_max=m_max, n_max=n_max))
        elif name == "appendices":
            results.extend(suite_appendices(m_max=m_max, n_max=n_max))
        else:
            results.extend(
                suite_geometry(n_max=min(n_max, 8), seed=seed, samples=samples)
            )
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
