import inspect
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from anacci import qkernel, solver, verify
from anacci.geometry import BodyKind, CenterOrdering, axis_interval, representation
from anacci.verify import FAMILIES, SUITES, run_suite, suite_bounds, suite_geometry

ROSTER = [
    "bounds.sandwich_lattice",
    "bounds.basic_lattice",
    "bounds.random_regimes",
    "bounds.refined",
    "bounds.crossover_equivalence",
    "monotone.fixed_m",
    "monotone.fixed_n",
    "monotone.diagonals",
    "monotone.scaled_A_increasing",
    "monotone.scaled_B_limit",
    "monotone.line_restrictions",
    "monotone.midpoint_concavity",
    "appendices.A_chain",
    "appendices.B_chain",
    "appendices.C_nesting",
    "geometry.lever_identity",
    "geometry.distance_ratio_roundtrip",
    "geometry.b_one_limit",
    "geometry.center_orderings",
    "geometry.ball_representation",
    "geometry.cube_representation",
    "geometry.cone_representation",
    "geometry.apex_centroid_ratio",
    "geometry.mc_cross_check",
]
EXACT = {"bounds.crossover_equivalence", "geometry.apex_centroid_ratio"}


@pytest.fixture(scope="module")
def smallest_run():
    return run_suite("all", m_max=2, n_max=2, samples=10_000)


class TestFamilyTable:
    def test_roster_in_report_order(self):
        table = [f"{suite}.{family}" for suite, families in FAMILIES.items() for family in families]
        assert table == ROSTER
        assert list(FAMILIES) == list(SUITES)

    def test_smallest_sizes_check_every_family(self, smallest_run):
        assert [r.name for r in smallest_run] == ROSTER
        for r in smallest_run:
            assert r.passed, r
            assert r.count >= 1, r
            assert math.isnan(r.worst_margin) == (r.name in EXACT), r

    def test_note_names_the_size(self, smallest_run):
        (limit,) = [r for r in smallest_run if r.name == "monotone.scaled_B_limit"]
        assert limit.note == "final value in (1, 1+1/2]"


class TestSizes:
    @pytest.mark.parametrize("m_max, n_max", [(1, 10), (50, 0), (0, 0)])
    def test_rejects_sizes_below_two(self, m_max, n_max):
        label = "m_max" if m_max < 2 else "n_max"
        with pytest.raises(ValueError, match=label):
            run_suite("bounds", m_max=m_max, n_max=n_max)

    def test_family_without_checks_fails(self):
        # called directly, a suite does not reject small sizes, but an
        # empty family must not pass
        results = {r.name: r for r in suite_bounds(m_max=0, n_max=0, seed=42)}
        sandwich = results["bounds.sandwich_lattice"]
        assert sandwich.count == 0
        assert not sandwich.passed

    def test_rejects_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")

    def test_only_run_suite_defaults_the_sizes(self):
        for suite in SUITES.values():
            params = inspect.signature(suite).parameters.values()
            assert all(p.default is inspect.Parameter.empty for p in params), suite

    @pytest.mark.parametrize("m_max, n_max", [(3, 3), (50, 10), (50, 60), (200, 10)])
    def test_every_family_passes_at_larger_sizes(self, m_max, n_max):
        results = run_suite("all", m_max, n_max, samples=10_000)
        assert [r.name for r in results] == ROSTER
        assert [r for r in results if not r.passed] == []

    # most of these lattices round onto their ceilings m+1, and from
    # (n-1)*log2(m+1) ~ 1075 on the gap m+1 - phi is below the doubles
    @pytest.mark.parametrize("m_max, n_max", [(50, 200), (2, 700)])
    @pytest.mark.parametrize("suite", ["bounds", "monotone", "appendices"])
    def test_lattice_suites_pass_deep_in_the_lattice(self, suite, m_max, n_max):
        results = run_suite(suite, m_max, n_max)
        assert [r for r in results if not r.passed] == []


# each suite's private generator at (m_max, n_max), with run_suite's seed
GENERATORS = {
    "bounds": lambda m_max, n_max: verify._bounds(m_max, n_max, 42),
    "monotone": verify._monotone,
    "appendices": verify._appendices,
    "geometry": lambda m_max, n_max: verify._geometry(n_max, 42, 10_000),
}


class TestNoRestatedFamily:
    # a family whose margins all recur in another family of its suite
    # cannot fail alone, so it shows nothing of its own
    @pytest.mark.parametrize("m_max, n_max", [(2, 2), (3, 3)])
    @pytest.mark.parametrize("suite", list(SUITES))
    def test_no_family_is_contained_in_another(self, suite, m_max, n_max):
        margins = {family: Counter() for family in FAMILIES[suite]}
        for family, margin in GENERATORS[suite](m_max, n_max):
            # the type keeps an exact True apart from a margin of 1.0
            margins[family][type(margin), margin] += 1
        for small, large in itertools.permutations(margins, 2):
            assert not margins[small] <= margins[large], (small, large)

    def test_no_float_family_is_contained_in_another_across_suites(self):
        # no family's float margins all recur in another family of any
        # suite; bools are left out, since every passing exact check reads True
        for m_max, n_max in ((2, 2), (3, 3), (50, 10)):
            margins = {}
            for suite, generator in GENERATORS.items():
                for family, margin in generator(m_max, n_max):
                    if type(margin) is float:
                        margins.setdefault(f"{suite}.{family}", Counter())[margin] += 1
            assert len(margins) == len(ROSTER) - len(EXACT), (m_max, n_max)
            for small, large in itertools.permutations(margins, 2):
                assert not margins[small] <= margins[large], (m_max, n_max, small, large)


class TestBoundsWork:
    def test_each_random_point_checked_once(self, monkeypatch):
        calls = {"float": 0, "exact": 0}
        read = qkernel._real

        def counted_read(value, name, *args, **kwargs):
            calls["exact" if isinstance(value, Fraction) else "float"] += 1
            return read(value, name, *args, **kwargs)

        monkeypatch.setattr(solver, "_real", counted_read)
        monkeypatch.setattr(qkernel, "_real", counted_read)
        # sizes 0 leave only the random points and the exact crossover grid
        results = {r.name: r for r in suite_bounds(m_max=0, n_max=0, seed=42)}
        assert results["bounds.random_regimes"].passed
        assert results["bounds.refined"].passed
        assert calls == {"float": 2 * 10_000, "exact": 2 * 20 * 64}  # p and q once each

    def test_crossover_grid_calls_the_library_at_every_point(self, monkeypatch):
        calls = []
        lambda_min = verify.lambda_min

        def counted(p, q):
            calls.append((type(p), type(q)))
            return lambda_min(p, q)

        monkeypatch.setattr(verify, "lambda_min", counted)
        results = {r.name: r for r in suite_bounds(m_max=0, n_max=0, seed=42)}
        assert results["bounds.crossover_equivalence"].passed
        assert calls == [(Fraction, Fraction)] * 1280

    def test_crossover_grid_compares_in_integers(self, monkeypatch):
        compares = []
        richcmp = Fraction._richcmp

        def counted(self, other, op):
            compares.append(op)
            return richcmp(self, other, op)

        monkeypatch.setattr(Fraction, "_richcmp", counted)
        results = {r.name: r for r in suite_bounds(m_max=0, n_max=0, seed=42)}
        assert results["bounds.crossover_equivalence"].passed
        assert compares == []


# (family, count, repr of worst_margin) of the bounds suite, recorded before
# the suite's grid and random draws were restructured; both lattice families'
# worst margin is the gap m+1 - phi(50, 10)
BOUNDS_PINS = {
    20240801: [
        ("bounds.sandwich_lattice", 900, "4.200183295360795e-16"),
        ("bounds.basic_lattice", 1497, "4.200183295360795e-16"),
        ("bounds.random_regimes", 30242, "4.49897398495028e-15"),
        ("bounds.refined", 8441, "0.0353404303428535"),
        ("bounds.crossover_equivalence", 1280, "nan"),
    ],
    42: [
        ("bounds.sandwich_lattice", 900, "4.200183295360795e-16"),
        ("bounds.basic_lattice", 1497, "4.200183295360795e-16"),
        ("bounds.random_regimes", 30201, "4.5005116779855095e-15"),
        ("bounds.refined", 8417, "0.025799681014643916"),
        ("bounds.crossover_equivalence", 1280, "nan"),
    ],
}


class TestBoundsPinned:
    # both at run_suite's default sizes: seed 20240801 through suite_bounds,
    # and run_suite's own defaults, seed 42 among them
    @pytest.mark.parametrize("seed, run", [
        (20240801, suite_bounds),
        (42, lambda **_: run_suite("bounds")),
    ])
    def test_counts_and_worst_margins_at_the_defaults(self, seed, run):
        results = run(m_max=50, n_max=10, seed=seed)
        assert all(r.passed for r in results)
        assert [(r.name, r.count, repr(r.worst_margin)) for r in results] == BOUNDS_PINS[seed]


class TestReport:
    @pytest.mark.parametrize("margins", [[1.0, math.nan], [math.nan, 1.0], [2.0, math.nan, 3.0]])
    def test_nan_margin_fails_wherever_it_occurs(self, margins):
        pairs = [("sandwich_lattice", m) for m in margins]
        result, *_ = verify._report("bounds", pairs)
        assert not result.passed
        assert math.isnan(result.worst_margin)
        assert result.count == len(margins)

    def test_infinite_margins(self):
        pairs = [("sandwich_lattice", math.inf), ("sandwich_lattice", -math.inf),
                 ("basic_lattice", math.inf), ("basic_lattice", 1.0)]
        sandwich, basic, *_ = verify._report("bounds", pairs)
        assert not sandwich.passed and sandwich.worst_margin == -math.inf
        assert basic.passed and basic.worst_margin == 1.0


class TestCenterOrderings:
    def test_wrong_chain_fails(self, monkeypatch):
        monkeypatch.setattr(verify, "center_ordering", lambda scene: CenterOrdering.CONTRACTION)
        results = {r.name: r for r in suite_geometry(n_max=2, seed=42, samples=10_000)}
        failing = results.pop("geometry.center_orderings")
        assert not failing.passed
        assert failing.worst_margin < 0.0
        assert all(r.passed for r in results.values())

    def test_every_link_is_checked(self, smallest_run):
        (orderings,) = [r for r in smallest_run if r.name == "geometry.center_orderings"]
        # five factors for each of n = 1 and n = 2, four links per chain
        assert orderings.count == 2 * 5 * 4


class TestLeverIdentity:
    def test_geometry_suite_passes_above_dimension_eight(self):
        results = run_suite("geometry", n_max=12, samples=10_000)
        assert all(r.passed for r in results), [r for r in results if not r.passed]

    def test_dimension_is_not_capped(self):
        counts = []
        for n_max in (8, 10, 12):
            results = {r.name: r for r in run_suite("geometry", n_max=n_max, samples=10_000)}
            counts.append(results["geometry.lever_identity"].count)
        # five factors and three body kinds per dimension
        assert counts == [8 * 15, 10 * 15, 12 * 15]


class TestConeNesting:
    def test_a_falling_right_end_fails(self, monkeypatch):
        # the m = 2 cone's image ends 10 below where it should: its right
        # end falls below the m = 1 cone's
        def lowered(kind, m, n):
            rep = representation(kind, m, n)
            if kind is BodyKind.CONE and m == 2:
                lo, hi = rep.image_interval
                rep = rep._replace(image_interval=(lo, hi - 10.0))
            return rep

        monkeypatch.setattr(verify, "representation", lowered)
        results = {r.name: r for r in run_suite("appendices", m_max=4, n_max=3)}
        nesting = results.pop("appendices.C_nesting")
        assert not nesting.passed
        assert nesting.worst_margin < 0.0
        assert all(r.passed for r in results.values())


class TestApexCentroidRatio:
    def test_wrong_limit_fails(self, monkeypatch):
        # B(1) at the apex instead of A + (A - O)/n: the apex split no longer holds
        monkeypatch.setattr(verify, "b_one", lambda body, O: axis_interval(body)[0])
        results = {r.name: r for r in suite_geometry(n_max=2, seed=42, samples=10_000)}
        apex = results["geometry.apex_centroid_ratio"]
        assert not apex.passed
        assert apex.count == 2  # one cone for each n <= 2


class TestMidpointConcavity:
    def test_segments_lie_where_pq_is_at_least_one(self):
        for (p1, q1), (p2, q2) in verify._CONCAVITY_SEGMENTS:
            pm, qm = 0.5 * (p1 + p2), 0.5 * (q1 + q2)
            assert min(p1 * q1, p2 * q2, pm * qm) >= 1
