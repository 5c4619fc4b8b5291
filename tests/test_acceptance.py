"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Strict
inequalities whose true gap shrinks beneath double resolution (values
saturating onto the m+1 asymptote) are verified with a slack of a few ulp
of the bound; everything else uses the stated tolerances verbatim.
"""

import math
import random
import time
from fractions import Fraction

from anacci.figures import emit, fig2, fig3
from anacci.geometry import (
    DilationScene,
    ball,
    ball_representation,
    cone,
    cone_representation,
    cube,
    height_interval_nesting,
    mc_centroid,
    pyramid,
    scene_points,
    shell_centroid,
)
from anacci.lattice import anacci, scaled_seq_A, scaled_seq_B, seq_diagonal, seq_fixed_n
from anacci.qkernel import RegionClass, classify
from anacci.recurrence import RecurrenceSpec, canonical_init, ratio_limit
from anacci.solver import (
    dlambda_dp,
    dlambda_dq,
    inverse_p,
    lower_bound_basic,
    lower_bound_refined,
    solve_lambda,
)

from oracles import bisect_lambda

EPS = 2.220446049250313e-16
INV_PHI = 2.0 / (1.0 + math.sqrt(5.0))


def _report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _best_time(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01_golden_roots():
    targets = [
        (1, 2, (1.0 + math.sqrt(5.0)) / 2.0, 1e-13),
        (2, 2, 1.0 + math.sqrt(3.0), 1e-13),
        (1, 3, 1.8392867552141612, 1e-12),
    ]
    assert abs(bisect_lambda(1, 3) - 1.8392867552141612) < 1e-13
    worst_err = worst_time = 0.0
    for p, q, reference, tol in targets:
        err = abs(solve_lambda(p, q).value - reference)
        assert err <= tol, (p, q, err)
        worst_err = max(worst_err, err)
        worst_time = max(worst_time, _best_time(lambda: solve_lambda(p, q)))
    ok = worst_time < 1e-3
    _report(
        1,
        ok,
        f"golden roots exact (worst err {worst_err:.2e}, "
        f"worst solve {worst_time * 1e6:.0f} us)",
    )


def test_criterion_02_critical_hyperbola():
    points = [(Fraction(a, b), Fraction(b, a)) for a in range(1, 21) for b in range(1, 11)]
    points = points[:200]
    assert len(points) == 200
    exact = sum(
        1
        for p, q in points
        if (r := solve_lambda(p, q)).value == 1.0 and r.residual == 0.0
    )
    _report(2, exact == 200, f"critical hyperbola exact at {exact}/200 rational points")


def test_criterion_03_recurrence_root_agreement():
    start = time.perf_counter()
    worst = 0.0
    for m in range(1, 6):
        for n in range(1, 7):
            spec = RecurrenceSpec(p=m, n=n, init=canonical_init(n))
            estimate = ratio_limit(spec, 1e-12, 500)
            worst = max(worst, abs(estimate.value - solve_lambda(m, n).value))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(
        3,
        ok,
        f"ratio limits match roots for m<=5, n<=6 "
        f"(worst {worst:.2e}, {elapsed * 1e3:.0f} ms)",
    )


def _bound_violations(p, q, value):
    regime = classify(p, q)
    slack = 8.0 * EPS * (p + 1.0)
    bad = 0
    if value > p + 1.0 + slack:
        bad += 1
    basic = lower_bound_basic(p, q)
    if regime is RegionClass.SUPER:
        bad += not (1.0 < basic < value + slack)
    elif regime is RegionClass.SUB:
        bad += not (0.0 < value < basic < 1.0)
    if q >= 2.0 and p > INV_PHI and not (lower_bound_refined(p) < value + slack):
        bad += 1
    return bad


def test_criterion_04_bounds_suite():
    violations = 0
    checked = 0
    for m in range(1, 51):
        for n in range(1, 51):
            value = anacci((m, n))
            violations += _bound_violations(float(m), float(n), value)
            checked += 1
            if n >= 2:
                lower = m + 1.0 - 1.0 / (m + 1.0)
                slack = 8.0 * EPS * (m + 1.0)
                violations += not (lower < value <= m + 1.0 + slack)
    rng = random.Random(20240809)
    for _ in range(10_000):
        p = rng.uniform(0.05, 5.0)
        q = rng.uniform(0.05, 40.0)
        if classify(p, q) is RegionClass.CRITICAL:
            continue
        violations += _bound_violations(p, q, solve_lambda(p, q).value)
        checked += 1
    for i in range(1, 21):
        for j in range(1, 65):
            p = Fraction(i, 4)
            q = Fraction(j, 4)
            basic = (p + 1) * q / (q + 1)
            refined = p + 1 - Fraction(1, p + 1)
            violations += (basic <= refined) != (q <= (p + 1) ** 2 - 1)
            checked += 1
    _report(
        4,
        violations == 0,
        f"bounds hold with {violations} violations over {checked} points",
    )


def test_criterion_05_asymptote():
    ok = True
    final_gaps = []
    for p in (0.5, 1.0, 2.0, 3.0):
        gaps = [p + 1.0 - solve_lambda(p, q).value for q in (10, 50, 100, 500)]
        slack = 4.0 * EPS * (p + 1.0)
        ok &= 0.0 <= gaps[-1] < 0.05
        ok &= all(b <= a + slack for a, b in zip(gaps, gaps[1:]))
        final_gaps.append(gaps[-1])
    _report(
        5,
        ok,
        f"limit p+1 reached monotonically (gaps at q=500: "
        f"{', '.join(format(g, '.1e') for g in final_gaps)})",
    )


def test_criterion_06_round_trip():
    rng = random.Random(987654)
    worst = 0.0
    count = 0
    while count < 10_000:
        p = rng.uniform(0.05, 5.0)
        q = rng.uniform(0.05, 40.0)
        if abs(p * q - 1.0) < 1e-6:
            continue
        count += 1
        recovered = inverse_p(solve_lambda(p, q).value, q)
        worst = max(worst, abs(recovered - p) / (1.0 + p))
    _report(6, worst <= 1e-9, f"inverse round trip on 10^4 points (worst {worst:.2e})")


def test_criterion_07_derivatives():
    # q capped at 6: beyond that the q-derivative decays like (p+1)^-q and
    # a h=1e-6 central difference no longer resolves 1e-5 relative error
    rng = random.Random(555)
    h = 1e-6
    worst = 0.0
    count = 0
    while count < 1000:
        p = rng.uniform(0.1, 4.0)
        q = rng.uniform(0.3, 6.0)
        if abs(p * q - 1.0) <= 0.1:
            continue
        count += 1
        dp = dlambda_dp(p, q)
        dq = dlambda_dq(p, q)
        assert dp > 0.0 and dq > 0.0
        fd_p = (solve_lambda(p + h, q).value - solve_lambda(p - h, q).value) / (2 * h)
        fd_q = (solve_lambda(p, q + h).value - solve_lambda(p, q - h).value) / (2 * h)
        worst = max(worst, abs(dp - fd_p) / abs(fd_p), abs(dq - fd_q) / abs(fd_q))
    _report(
        7,
        worst <= 1e-5,
        f"implicit derivatives match finite differences (worst rel {worst:.2e})",
    )


def test_criterion_08_monotone_suite():
    ok = True
    # fixed m: strictly increasing until the sequence enters the solver's
    # noise band (~1e-14 relative) around its asymptote m+1, where
    # consecutive solved values may wobble
    for m in range(1, 51):
        seq = [anacci((m, n)) for n in range(1, 51)]
        ceiling = m + 1.0
        noise = 2.5e-14 * ceiling
        for a, b in zip(seq, seq[1:]):
            if ceiling - a > 1e-12 * ceiling:
                ok &= b > a
            else:
                ok &= b >= a - noise
    for n in range(1, 51):
        seq = seq_fixed_n(n, 50)
        ok &= all(b > a for a, b in zip(seq, seq[1:]))
    for k in (1, 2, 3):
        for which, count in (("kn", 50 // k), ("km", 16)):
            seq = seq_diagonal(k, count, which)
            ok &= all(b > a for a, b in zip(seq, seq[1:]))
    for n in range(1, 11):
        seq_a = scaled_seq_A(n, 50)
        ok &= all(b > a for a, b in zip(seq_a, seq_a[1:]))
    tails = []
    for n in range(2, 11):
        seq_b = scaled_seq_B(n, 50)
        ok &= all(a > b for a, b in zip(seq_b, seq_b[1:]))
    for n in (2, 3, 5):
        tail = scaled_seq_B(n, 50)[-1]
        tails.append(tail)
        ok &= 1.0 < tail < 1.0 + 1.0 / 50 + 1e-9
    # interleaving chains behind the scaled-sequence monotonicity
    for n in range(2, 11):
        for m in range(1, 50):
            lhs = (m + 1) / m * anacci((m, n))
            mid1 = (m + 1) ** 2 / m
            mid2 = (m + 2) / (m + 1) * (m + 2 - 1 / (m + 2))
            rhs = (m + 2) / (m + 1) * anacci((m + 1, n))
            ok &= lhs < mid1 + 8.0 * EPS * mid1
            ok &= mid1 <= mid2 + 8.0 * EPS * mid2
            ok &= mid2 < rhs
            here = anacci((m, n)) / m
            nxt = anacci((m + 1, n)) / (m + 1)
            ok &= nxt < here
            ok &= here < 1.0 + 1.0 / m + 8.0 * EPS
            ok &= (m + 2) / (m + 1) - 1.0 / ((m + 2) * (m + 1)) < nxt
    _report(
        8,
        ok,
        f"monotone lattice chains hold to index 50 (phi/m tails: "
        f"{', '.join(format(t, '.5f') for t in tails)})",
    )


def test_criterion_09_lever_identity():
    worst = 0.0
    for maker in (ball, cube, cone, pyramid):
        for n in range(1, 9):
            for lam in (0.3, 0.8, 1.2, 2.0, 3.0):
                body = maker(n, 1.0, 1.0) if maker is ball else maker(n, 1.0, 0.0)
                O = 0.25 if maker is ball else 0.2
                pts = scene_points(DilationScene(body, O, lam))
                d_ab = abs(pts["B"] - pts["A"])
                residual = abs(abs(pts["B"] - pts["LA"]) * lam**n - d_ab)
                worst = max(worst, residual / (1.0 + d_ab))
    _report(
        9,
        worst <= 1e-12,
        f"lever identity over 4 kinds x 5 factors x n<=8 (worst {worst:.2e})",
    )


def test_criterion_10_monte_carlo():
    scenes = [
        DilationScene(ball(1, 1.0, center=1.0), 0.0, 2.0),
        DilationScene(ball(2, 1.0, center=1.0), 0.0, 2.0),
        DilationScene(ball(3, 1.0, center=1.0), 0.0, 1.5),
        DilationScene(ball(2, 1.0, center=1.0), 0.0, 0.5),
        DilationScene(ball(5, 1.0, center=1.0), 0.25, 1.3),
        DilationScene(cube(2, 1.0, near_face=0.0), 0.0, 2.0),
        DilationScene(cube(3, 1.0, near_face=0.0), 0.0, 1.5),
        DilationScene(cube(4, 1.0, near_face=0.0), 0.2, 0.8),
        DilationScene(cone(2, 1.0, apex=0.0), 1.0 / 3.0, 1.618033988749895),
        DilationScene(cone(3, 1.0, apex=0.0), 0.0, 1.2),
        DilationScene(pyramid(3, 1.0, apex=0.0), 0.0, 1.5),
        DilationScene(pyramid(4, 1.0, apex=0.0), 0.3, 0.7),
    ]
    start = time.perf_counter()
    worst_pull = 0.0
    for scene in scenes:
        estimate, stderr = mc_centroid(scene, 42, 10**6)
        pull = abs(estimate - shell_centroid(scene)) / stderr
        worst_pull = max(worst_pull, pull)
    elapsed = time.perf_counter() - start
    exact_disk = shell_centroid(scenes[1])
    exact_cube = shell_centroid(scenes[6])
    ok = (
        worst_pull <= 4.0
        and elapsed < 30.0
        and abs(exact_disk - 7.0 / 3.0) < 1e-14
        and abs(exact_cube - 2.03125 / 2.375) < 1e-14
    )
    _report(
        10,
        ok,
        f"12 Monte Carlo scenes within 4*stderr "
        f"(worst pull {worst_pull:.2f}, {elapsed:.1f} s)",
    )


def test_criterion_11_representations():
    ok = True
    for m in range(1, 4):
        previous = None
        for n in range(1, 6):
            rep = ball_representation(m, n)
            ok &= 2 * m - 8.0 * EPS * 2 * m <= rep.intersection < 2 * (m + 1)
            if previous is not None:
                ok &= rep.intersection > previous
            previous = rep.intersection
    for m in range(1, 51):
        for n in range(1, 11):
            rep = cone_representation(m, n)
            ok &= 0.5 - 8.0 * EPS <= rep.image_centroid < 1.0 + 8.0 * EPS * (m + 1)
    nested = all(height_interval_nesting(n, 50).ok for n in range(1, 11))
    ok &= nested
    _report(
        11,
        ok,
        "ball crossings in [2m, 2m+2) rising with n; cone centroids in "
        "[1/2, 1); height intervals nested for n<=10, m<=50",
    )


def test_criterion_12_center_orderings():
    ok = True
    cases_seen = set()
    for n in (1, 2, 5):
        body = ball(n, 1.0, center=1.0)
        threshold = 1.0 + 1.0 / n

        pts = scene_points(DilationScene(body, 0.0, threshold))
        ok &= abs(pts["LA"] - pts["B1"]) <= 1e-12  # boundary equality

        pts = scene_points(DilationScene(body, 0.0, 1.0))
        ok &= pts["A"] == pts["LA"] and abs(pts["B"] - pts["B1"]) <= 1e-12

        for lam, order in (
            (threshold + 0.4, ("A", "B1", "LA", "B")),
            (0.5 * (1.0 + threshold), ("A", "LA", "B1", "B")),
            (0.7, ("LA", "A", "B", "B1")),
        ):
            pts = scene_points(DilationScene(body, 0.0, lam))
            coords = [0.0] + [pts[name] for name in order]
            ok &= all(b > a for a, b in zip(coords, coords[1:]))
        cases_seen.update(("wide", "touch", "narrow", "unit", "contraction"))
    _report(
        12,
        ok and len(cases_seen) == 5,
        "all five center orderings realized with exact boundary equalities "
        "for n in {1, 2, 5}",
    )


def test_criterion_13_figure_emitters():
    _, rows = fig2()
    unit = [r for r in rows if r[0] == "curve_a=1"]
    ok = bool(unit) and unit[0][2] == 1.0 and unit[0][3] == 1.0
    ok &= all(r[3] < 2.0 for r in unit)
    _, rows3 = fig3()
    level_one = [r for r in rows3 if r[0] == "level_c=1"]
    ok &= bool(level_one)
    ok &= all(abs(p * q - 1.0) <= 1e-10 for _, p, q, _ in level_one)
    for which in ("fig1", "fig2", "fig3", "fig5", "fig6", "fig7"):
        ok &= emit(which) == emit(which)
    _report(
        13,
        ok,
        "fig2 unit curve pinned at (1,1) below 2; fig3 level c=1 is the "
        "hyperbola; emitters byte-stable",
    )
