import ast
import inspect
import math
import re
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anacci.errors import (
    DegenerateShell,
    InputOutOfRange,
    LambdaOne,
    NonPositiveInput,
    OEqualsA,
    OOutsideBody,
    PTooSmall,
    TargetUnreachable,
    ZeroUnderflow,
)
import anacci.geometry as geometry_module
from anacci.geometry import (
    BodyKind,
    CenterOrdering,
    ConvexBody,
    DilationScene,
    axis_interval,
    b_one,
    ball,
    center_ordering,
    centroid,
    cone,
    cube,
    dilate,
    lambda_from_p,
    mc_centroid,
    pyramid,
    representation,
    scene_points,
    shell_centroid,
    solve_scene_for_target,
    unit_ball_volume,
    volume,
    _MC_CHUNK,
    _MC_GATHER_SHARE,
)
from anacci.lattice import anacci
from anacci.solver import solve_lambda
from anacci.verify import run_suite

from oracles import cone_centroid_quadrature

PHI = (1.0 + math.sqrt(5.0)) / 2.0

KIND_MAKERS = (ball, cube, cone, pyramid)


def make_scene(maker, n, lam):
    body = maker(n, 1.0, 1.0) if maker is ball else maker(n, 1.0, 0.0)
    O = 0.25 if maker is ball else 0.2
    return DilationScene(body, O, lam)


class TestCentroid:
    def test_cone_splits_height_n_to_one(self):
        assert centroid(cone(2, 1.0, apex=0.0)) == pytest.approx(2.0 / 3.0)
        assert centroid(pyramid(4, 1.0, apex=0.0)) == pytest.approx(4.0 / 5.0)

    def test_symmetric_bodies(self):
        assert centroid(ball(3, 1.0, center=1.0)) == 1.0
        assert centroid(cube(2, 2.0, near_face=1.0)) == 2.0

    def test_against_quadrature(self):
        for n in (1, 2, 3, 7):
            expected = cone_centroid_quadrature(n, 1.0, 0.0)
            assert centroid(cone(n, 1.0, apex=0.0)) == pytest.approx(expected, rel=1e-7)
            assert centroid(pyramid(n, 1.0, apex=0.0)) == pytest.approx(expected, rel=1e-7)


class TestVolume:
    def test_unit_disk(self):
        assert volume(ball(2, 1.0)) == pytest.approx(math.pi, rel=1e-15)

    def test_cube(self):
        assert volume(cube(3, 2.0)) == pytest.approx(8.0, rel=1e-15)

    def test_triangle_as_2cone(self):
        assert volume(cone(2, 1.0, base_radius=1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_one_dimensional_bodies_are_intervals(self):
        assert volume(ball(1, 1.5)) == pytest.approx(3.0, rel=1e-15)
        assert volume(cone(1, 2.0)) == pytest.approx(2.0, rel=1e-15)
        assert volume(pyramid(1, 2.0)) == pytest.approx(2.0, rel=1e-15)

    def test_unit_ball_volume_sequence(self):
        assert unit_ball_volume(0) == 1.0
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)

    @pytest.mark.parametrize("n", [math.nan, math.inf, -1])
    def test_unit_ball_volume_rejects_a_bad_dimension(self, n):
        # nan used to come back as the volume
        with pytest.raises(ValueError, match="dimension must be finite and >= 0"):
            unit_ball_volume(n)

    def test_high_dimension_volume(self):
        # 10**400 is past the double range; the unit-ball factors of the
        # ball and the cone bring theirs back inside it
        assert volume(cube(400, 10.0)) == math.inf

        def exact(k, d, length, n, size):
            v = mpmath.pi ** mpmath.mpf(k / 2) / mpmath.gamma(mpmath.mpf(k / 2) + 1)
            return float(v * mpmath.mpf(length) ** (n - 1) * size / d)

        assert volume(ball(400, 10.0)) == pytest.approx(exact(400, 1, 10, 400, 10), rel=1e-11)
        assert volume(ball(480, 10.0)) == pytest.approx(exact(480, 1, 10, 480, 10), rel=1e-11)
        assert volume(cone(400, 1.0, base_radius=10.0)) == pytest.approx(
            exact(399, 400, 10, 400, 1), rel=1e-11
        )

    def test_dilation_scales_volume_by_lam_to_n(self):
        for maker in KIND_MAKERS:
            for n in (1, 2, 5):
                body = maker(n, 1.0, 0.5) if maker is ball else maker(n, 1.0, 0.0)
                image = dilate(body, 0.5, 1.7)
                assert volume(image) == pytest.approx(
                    1.7**n * volume(body), rel=1e-12
                )


class TestDilate:
    def test_maps_reference_point(self):
        image = dilate(ball(2, 1.0, center=1.0), 0.0, 2.0)
        assert image.axis_offset == 2.0
        assert image.size == 2.0

    def test_apex_fixed_when_center_is_apex(self):
        body = cone(2, 1.0, apex=1.0 / 3.0)
        image = dilate(body, 1.0 / 3.0, PHI)
        assert image.axis_offset == pytest.approx(1.0 / 3.0)

    def test_identity(self):
        body = pyramid(3, 1.0, apex=0.2)
        assert dilate(body, 0.5, 1.0) == body

    def test_center_outside_raises(self):
        with pytest.raises(OOutsideBody):
            dilate(ball(2, 1.0, center=0.0), 2.5, 2.0)

    def test_nonpositive_factor_raises(self):
        with pytest.raises(NonPositiveInput):
            dilate(ball(2, 1.0), 0.0, 0.0)
        for lam in (math.inf, math.nan):
            with pytest.raises(NonPositiveInput, match="finite"):
                dilate(ball(2, 1.0), 0.0, lam)

    @pytest.mark.parametrize("body, O, lam", [
        (ball(2, 1e10), 0.5, 1e300),  # the size overflows
        (ball(2, 1e298, center=1.5e308), 1.4999999999e308, 1e10),  # the offset overflows
        (ball(2, 1e-300), 0.0, 1e-300),  # the size underflows
    ])
    def test_image_outside_the_double_range_is_named(self, body, O, lam):
        message = f"the ball dilated by lam = {lam!r} lies outside the double range"
        with pytest.raises(InputOutOfRange, match="^" + re.escape(message)):
            dilate(body, O, lam)


class TestShellCentroid:
    def test_doubling_a_unit_disk(self):
        scene = DilationScene(ball(2, 1.0, center=1.0), 0.0, 2.0)
        assert shell_centroid(scene) == pytest.approx(7.0 / 3.0, rel=1e-15)

    def test_golden_factor_lands_at_two(self):
        scene = DilationScene(ball(2, 1.0, center=1.0), 0.0, PHI)
        assert shell_centroid(scene) == pytest.approx(2.0, abs=1e-14)

    def test_contraction_mirror(self):
        scene = DilationScene(ball(2, 1.0, center=1.0), 0.0, 0.5)
        assert shell_centroid(scene) == pytest.approx(7.0 / 6.0, rel=1e-15)

    def test_unit_factor_rejected(self):
        with pytest.raises(LambdaOne):
            shell_centroid(DilationScene(ball(2, 1.0, center=1.0), 0.0, 1.0))

    def test_high_dimension_does_not_overflow(self):
        # lam^400 overflows a double for lam = 10: the shell centroid is
        # then the dilated centroid; for lam = 0.1 it is the centroid itself
        body = ball(400, 1.0, center=1.0)
        assert shell_centroid(DilationScene(body, 0.0, 10.0)) == 10.0
        assert shell_centroid(DilationScene(body, 0.0, 0.1)) == 1.0
        assert 0.0 < unit_ball_volume(400) < 1e-270

    def test_continuity_into_b_one(self):
        body = cube(3, 1.0, near_face=0.0)
        limit = b_one(body, 0.1)
        for lam in (1.0 + 1e-6, 1.0 - 1e-6):
            b = shell_centroid(DilationScene(body, 0.1, lam))
            assert b == pytest.approx(limit, abs=1e-5)

    @given(
        # the 1e-12 identity tolerance is calibrated for lam^n up to 3^8;
        # beyond that the one-ulp rounding of B alone exceeds it
        lam=st.floats(min_value=0.05, max_value=3.0).filter(
            lambda x: abs(x - 1.0) > 1e-3
        ),
        n=st.integers(min_value=1, max_value=8),
        maker=st.sampled_from(KIND_MAKERS),
    )
    @settings(max_examples=200, deadline=None)
    def test_lever_identity_property(self, lam, n, maker):
        scene = make_scene(maker, n, lam)
        pts = scene_points(scene)
        lhs = abs(pts["B"] - pts["LA"]) * lam**n
        rhs = abs(pts["B"] - pts["A"])
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)

    def test_lever_identity_spec_grid(self):
        for maker in KIND_MAKERS:
            for n in range(1, 9):
                for lam in (0.3, 0.8, 1.2, 2.0, 3.0):
                    scene = make_scene(maker, n, lam)
                    pts = scene_points(scene)
                    lhs = abs(pts["B"] - pts["LA"]) * lam**n
                    rhs = abs(pts["B"] - pts["A"])
                    assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)


class TestBOne:
    def test_cone_about_apex_hits_base_center(self):
        assert b_one(cone(2, 1.0, apex=0.0), 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_one_dimensional_ball(self):
        assert b_one(ball(1, 1.0, center=1.0), 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_four_dimensional_ball(self):
        limit = b_one(ball(4, 1.0, center=1.0), 0.0)
        assert limit == pytest.approx(1.25, rel=1e-15)
        for lam in (1.0 + 1e-6, 1.0 - 1e-6):
            b = shell_centroid(DilationScene(ball(4, 1.0, center=1.0), 0.0, lam))
            assert b == pytest.approx(limit, abs=1e-5)

    def test_center_must_differ_from_centroid(self):
        with pytest.raises(OEqualsA):
            b_one(ball(2, 1.0, center=1.0), 1.0)

    def test_center_must_be_inside(self):
        with pytest.raises(OOutsideBody):
            b_one(ball(2, 1.0, center=1.0), 5.0)


class TestLambdaFromP:
    def test_one_dimensional_case_is_identity(self):
        for p in (1.5, 2.0, 7.0):
            assert lambda_from_p(1, p) == pytest.approx(p, rel=1e-13)

    def test_golden_ratio_in_the_plane(self):
        assert lambda_from_p(2, 1.0) == pytest.approx(PHI, abs=1e-14)

    def test_boundary_ratio_gives_unit_factor(self):
        assert lambda_from_p(4, 0.25) == 1.0
        assert lambda_from_p(3, Fraction(1, 3)) == 1.0
        # the double 1/3 lies below one third, so p*n < 1 exactly
        with pytest.raises(PTooSmall):
            lambda_from_p(3, 1.0 / 3.0)

    def test_below_boundary_raises(self):
        with pytest.raises(PTooSmall):
            lambda_from_p(3, 0.2)

    def test_below_boundary_raises_when_the_zero_is_out_of_range(self):
        # the sub-critical zero, about 1e-301, lies below the solver's floor
        with pytest.raises(PTooSmall):
            lambda_from_p(1, 1e-301)

    def test_zero_below_the_doubles_reads_as_p_too_small(self):
        # at order 1 the zero is p itself, so this order-2 weight is the one
        # whose sub-critical zero the solver cannot return
        with pytest.raises(ZeroUnderflow):
            solve_lambda(1e-310, 2)
        with pytest.raises(PTooSmall, match="p = 1e-310 <= 1/2"):
            lambda_from_p(2, 1e-310)

    def test_rejects_non_integer_dimension(self):
        with pytest.raises(ValueError, match="dimension n"):
            lambda_from_p(2.5, 2.0)

    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_rejects_nonpositive_ratio(self, p):
        with pytest.raises(NonPositiveInput):
            lambda_from_p(2, p)

    def test_matches_solver(self):
        assert lambda_from_p(4, 2.5) == solve_lambda(2.5, 4).value

    def test_reciprocal_contraction_recovers_ratio(self):
        # contracting by 1/lam makes d(L(A), B)/d(O, L(A)) play the role
        # the ratio d(A, B)/d(O, A) plays for the expansion
        for n in (1, 2, 5):
            for p in (1.0, 2.5):
                if not p * n > 1:
                    continue
                lam = lambda_from_p(n, p)
                scene = DilationScene(ball(n, 1.0, center=1.0), 0.0, 1.0 / lam)
                pts = scene_points(scene)
                ratio = abs(pts["B"] - pts["LA"]) / abs(pts["LA"] - pts["O"])
                assert ratio == pytest.approx(p, abs=1e-10)


class TestSolveSceneForTarget:
    def test_golden_scene(self):
        scene = solve_scene_for_target(ball(2, 1.0, center=1.0), 0.0, 2.0)
        assert scene.lam == pytest.approx(PHI, abs=1e-13)
        assert shell_centroid(scene) == pytest.approx(2.0, abs=1e-10)

    def test_ratio_two_scene(self):
        scene = solve_scene_for_target(ball(2, 1.0, center=1.0), 0.0, 3.0)
        assert scene.lam == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-13)

    def test_cone_construction(self):
        scene = solve_scene_for_target(cone(2, 1.0, apex=0.0), 1.0 / 3.0, 1.0)
        assert scene.lam == pytest.approx(PHI, abs=1e-12)

    def test_degenerate_target_at_b_one(self):
        body = ball(2, 1.0, center=1.0)
        limit = b_one(body, 0.0)  # = 1.5; ratio p = 1/2 = 1/n
        scene = solve_scene_for_target(body, 0.0, limit)
        assert scene.lam == 1.0

    @pytest.mark.parametrize("O", [0.0, 0.3])
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("maker", [lambda n: ball(n, 1.0, center=1.0), cube, cone],
                             ids=["ball", "cube", "cone"])
    def test_every_b_one_target_gives_the_unit_scene(self, maker, n, O):
        # d(A, B(1))/d(O, A) can round off 1/n, so the ratio must not decide
        body = maker(n)
        assert solve_scene_for_target(body, O, b_one(body, O)).lam == 1.0

    def test_unreachable_target_raises(self):
        body = ball(2, 1.0, center=1.0)
        with pytest.raises(TargetUnreachable):
            solve_scene_for_target(body, 0.0, 1.2)  # p = 0.2 < 1/2
        with pytest.raises(TargetUnreachable):
            solve_scene_for_target(body, 0.0, 0.5)  # wrong side of A

    def test_target_whose_zero_underflows_is_unreachable(self):
        # p = d(A, B)/d(O, A) = 1e-310/0.5, whose zero lies below the doubles
        with pytest.raises(TargetUnreachable, match="p = 2e-310") as info:
            solve_scene_for_target(ball(2, 1.0, center=0.0), 0.5, -1e-310)
        assert isinstance(info.value.__cause__, PTooSmall)

    def test_center_equal_centroid_raises(self):
        with pytest.raises(OEqualsA):
            solve_scene_for_target(ball(2, 1.0, center=1.0), 1.0, 2.0)

    def test_mirrored_direction(self):
        # body extends toward -e1 from O: target beyond A away from O
        body = ball(2, 1.0, center=-1.0)
        scene = solve_scene_for_target(body, 0.0, -2.0)
        assert scene.lam == pytest.approx(PHI, abs=1e-13)
        assert shell_centroid(scene) == pytest.approx(-2.0, abs=1e-10)


class TestCenterOrdering:
    def test_case_selection_by_factor(self):
        body = ball(2, 1.0, center=1.0)
        assert center_ordering(DilationScene(body, 0.0, 1.6)) is CenterOrdering.EXPANSION_WIDE
        assert center_ordering(DilationScene(body, 0.0, 1.5)) is CenterOrdering.EXPANSION_TOUCH
        assert center_ordering(DilationScene(body, 0.0, 1.2)) is CenterOrdering.EXPANSION_NARROW
        assert center_ordering(DilationScene(body, 0.0, 1.0)) is CenterOrdering.UNIT
        assert center_ordering(DilationScene(body, 0.0, 0.8)) is CenterOrdering.CONTRACTION

    def test_touch_case_equality_is_exact(self):
        for n in (1, 2, 5):
            body = ball(n, 1.0, center=1.0)
            pts = scene_points(DilationScene(body, 0.0, 1.0 + 1.0 / n))
            assert abs(pts["LA"] - pts["B1"]) <= 1e-12

    def test_boundaries_are_matched_exactly(self):
        # L(A) - B(1) and L(A) - A are 5e-13 here, not 0
        body = ball(2, 1.0, center=1.0)
        for lam, ordering in ((1.5 + 5e-13, CenterOrdering.EXPANSION_WIDE),
                              (1.5 - 5e-13, CenterOrdering.EXPANSION_NARROW),
                              (1.0 + 5e-13, CenterOrdering.EXPANSION_NARROW)):
            scene = DilationScene(body, 0.0, lam)
            pts = scene_points(scene)
            assert pts["LA"] not in (pts["A"], pts["B1"])
            assert center_ordering(scene) is ordering, lam

    def test_unit_case_equalities(self):
        body = ball(3, 1.0, center=1.0)
        pts = scene_points(DilationScene(body, 0.0, 1.0))
        assert pts["A"] == pts["LA"]
        assert pts["B"] == pts["B1"]

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_chains_hold_in_every_case(self, n):
        body = ball(n, 1.0, center=1.0)
        threshold = 1.0 + 1.0 / n
        chains = {
            threshold + 0.4: ("A", "B1", "LA", "B"),
            0.5 * (1.0 + threshold): ("A", "LA", "B1", "B"),
            0.7: ("LA", "A", "B", "B1"),
        }
        for lam, order in chains.items():
            pts = scene_points(DilationScene(body, 0.0, lam))
            coords = [0.0] + [pts[name] for name in order]
            assert all(b > a for a, b in zip(coords, coords[1:])), (lam, order, pts)

    def test_contraction_keeps_shell_centroid_below_limit_point(self):
        # for lam < 1 the shell centroid sits strictly between A and B(1)
        for lam in (0.2, 0.5, 0.9, 0.99):
            for maker in KIND_MAKERS:
                scene = make_scene(maker, 3, lam)
                pts = scene_points(scene)
                assert pts["A"] < pts["B"] < pts["B1"]


class TestBallRepresentation:
    def test_golden_case(self):
        rep = representation(BodyKind.BALL, 1, 2)
        assert rep.lam == pytest.approx(PHI, abs=1e-14)
        assert rep.image_centroid == pytest.approx(PHI, abs=1e-14)
        assert rep.image_interval[1] == pytest.approx(2.0 * PHI, abs=1e-13)
        assert 2.0 <= rep.image_interval[1] < 4.0
        assert rep.shell_b == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_corner(self):
        rep = representation(BodyKind.BALL, 1, 1)
        assert rep.lam == 1.0
        assert rep.shell_b == pytest.approx(2.0, rel=1e-15)
        assert rep.image_interval[1] == pytest.approx(2.0, rel=1e-15)

    def test_weight_two(self):
        rep = representation(BodyKind.BALL, 2, 2)
        assert rep.image_interval[1] == pytest.approx(2.0 * (1.0 + math.sqrt(3.0)), abs=1e-12)
        assert 4.0 <= rep.image_interval[1] < 6.0

    def test_shell_centroid_lands_at_weight_plus_one(self):
        for m in range(1, 4):
            for n in range(1, 6):
                rep = representation(BodyKind.BALL, m, n)
                assert rep.shell_b == pytest.approx(m + 1.0, abs=1e-10)

    def test_interval_and_growth(self):
        for m in range(1, 4):
            previous = None
            for n in range(1, 6):
                rep = representation(BodyKind.BALL, m, n)
                assert 2 * m - 1e-12 <= rep.image_interval[1] < 2 * (m + 1)
                if previous is not None:
                    assert rep.image_interval[1] > previous
                previous = rep.image_interval[1]


class TestConeRepresentation:
    def test_golden_case(self):
        rep = representation(BodyKind.CONE, 1, 2)
        assert rep.scene.O == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert rep.lam == pytest.approx(PHI, abs=1e-14)
        assert rep.image_centroid == pytest.approx((PHI + 1.0) / 3.0, abs=1e-13)
        assert rep.image_interval[0] == pytest.approx(-0.20601132958, abs=1e-9)
        assert rep.image_interval[1] == pytest.approx(1.41202265917, abs=1e-9)
        assert rep.shell_b == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_corner(self):
        rep = representation(BodyKind.CONE, 1, 1)
        assert rep.lam == 1.0
        assert rep.shell_b == pytest.approx(1.0, rel=1e-15)

    def test_weight_two_plane(self):
        rep = representation(BodyKind.CONE, 2, 2)
        assert rep.scene.O == pytest.approx(0.5, rel=1e-15)
        assert rep.lam == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-13)

    def test_image_centroid_window(self):
        # the < 1 edge is strict mathematically, but deep in the lattice
        # phi saturates onto m+1 in doubles and the rounding noise of
        # O + lam*(A - O) scales with lam ~ m+1
        for m in range(1, 51):
            for n in range(1, 11):
                rep = representation(BodyKind.CONE, m, n)
                slack = 8.0 * 2.220446049250313e-16 * (m + 1)
                assert 0.5 - 1e-12 <= rep.image_centroid < 1.0 + slack


# kind -> (m, n) -> (body, O): each reading's placement, stated apart from the library
PLACEMENTS = {
    BodyKind.BALL: lambda m, n: (ball(n, 1.0, center=1.0), 0.0),
    BodyKind.CUBE: lambda m, n: (cube(n, 1.0, near_face=0.0), 0.0),
    BodyKind.CONE: lambda m, n: (cone(n, 1.0, apex=0.0), (m * n - 1) / (m * (n + 1))),
    BodyKind.PYRAMID: lambda m, n: (pyramid(n, 1.0, apex=0.0), (m * n - 1) / (m * (n + 1))),
}


class TestRepresentation:
    @pytest.mark.parametrize("kind", list(BodyKind))
    def test_bits_match_the_public_primitives(self, kind):
        # repr round-trips a double, so equal reprs are equal bits
        for m in range(1, 51):
            for n in range(1, 11):
                body, O = PLACEMENTS[kind](m, n)
                lam = anacci((m, n))
                scene = DilationScene(body, O, lam)
                points = scene_points(scene)
                expected = (m, n, scene, lam, points["B"], points["LA"],
                            axis_interval(dilate(body, O, lam)))
                assert repr(tuple(representation(kind, m, n))) == repr(expected), (m, n)

    def test_cube_far_face_is_the_constant(self):
        for m in range(1, 4):
            previous = None
            for n in range(1, 6):
                rep = representation(BodyKind.CUBE, m, n)
                assert rep.image_interval == (0.0, rep.lam)
                assert rep.shell_b == pytest.approx((m + 1) / 2, abs=1e-12)
                # phi(3, 1) rounds to 1 ulp below 3
                assert m - 1e-12 <= rep.image_interval[1] < m + 1
                if previous is not None:
                    assert rep.image_interval[1] > previous
                previous = rep.image_interval[1]

    def test_pyramid_reads_as_the_cone(self):
        # the same centroid split and placement: only the kind differs
        for m, n in ((1, 1), (1, 2), (3, 7), (12, 12)):
            cone_rep = representation(BodyKind.CONE, m, n)
            pyramid_rep = representation(BodyKind.PYRAMID, m, n)
            assert pyramid_rep.scene.body.kind is BodyKind.PYRAMID
            assert pyramid_rep[3:] == cone_rep[3:]
            assert abs(pyramid_rep.shell_b - 1.0) <= 2.220446049250313e-16 * (m + 1)

    def test_each_kind_carries_its_shape(self):
        assert [kind.value for kind in BodyKind] == ["ball", "cube", "cone", "pyramid"]
        shapes = [kind.shape for kind in BodyKind]
        assert len({id(shape) for shape in shapes}) == 4
        assert BodyKind("cone").shape is BodyKind.CONE.shape


def _cone_ends(n, m_max):
    """The left and right ends of the dilated unit cones of representation,
    m = 1..m_max."""
    return zip(*(representation(BodyKind.CONE, m, n).image_interval for m in range(1, m_max + 1)))


def _c_nesting(m_max, n_max):
    results = run_suite("appendices", m_max=m_max, n_max=n_max)
    (nesting,) = [r for r in results if r.name == "appendices.C_nesting"]
    return nesting


class TestHeightNesting:
    def test_two_dimensional_values(self):
        lefts, rights = _cone_ends(2, 2)
        assert lefts[0] == pytest.approx(-0.20601132958, abs=1e-9)
        assert lefts[1] == pytest.approx(-0.86602540378, abs=1e-9)
        assert rights[0] < rights[1]

    def test_one_dimensional_closed_form(self):
        # with phi(m, 1) = m the left ends are -(m-1)^2/(2m)
        lefts, rights = _cone_ends(1, 3)
        for m, left in zip((1, 2, 3), lefts):
            assert left == pytest.approx(-((m - 1) ** 2) / (2.0 * m), abs=1e-12)
        assert lefts[0] > lefts[1] > lefts[2]
        assert rights[0] < rights[1] < rights[2]

    def test_nesting_across_dimensions(self):
        nesting = _c_nesting(50, 10)
        assert nesting.passed
        assert nesting.count == 10 * 2 * 49

    def test_minimal_case(self):
        # m_max = 2 at n = 1..5, the smallest sizes run_suite takes
        nesting = _c_nesting(2, 5)
        assert nesting.passed
        assert nesting.count == 5 * 2


class TestMonteCarlo:
    def test_doubled_disk(self):
        scene = DilationScene(ball(2, 1.0, center=1.0), 0.0, 2.0)
        estimate, stderr = mc_centroid(scene, 42, 10**6)
        assert stderr < 0.01
        assert abs(estimate - 7.0 / 3.0) <= 3.0 * stderr

    def test_cube_scene(self):
        scene = DilationScene(cube(3, 1.0, near_face=0.0), 0.0, 1.5)
        estimate, stderr = mc_centroid(scene, 7, 10**6)
        exact = (1.5**3 * 0.75 - 0.5) / (1.5**3 - 1.0)
        assert abs(estimate - exact) <= 3.0 * stderr

    def test_contraction_mirror(self):
        scene = DilationScene(ball(2, 1.0, center=1.0), 0.0, 0.5)
        estimate, stderr = mc_centroid(scene, 42, 10**6)
        assert abs(estimate - 7.0 / 6.0) <= 3.0 * stderr

    def test_deterministic_for_fixed_seed(self):
        scene = DilationScene(pyramid(3, 1.0, apex=0.0), 0.1, 1.4)
        first = mc_centroid(scene, 123, 10**5)
        second = mc_centroid(scene, 123, 10**5)
        assert first == second
        other_seed = mc_centroid(scene, 124, 10**5)
        assert other_seed != first

    def test_one_dimensional_scene(self):
        scene = DilationScene(ball(1, 1.0, center=1.0), 0.0, 2.0)
        estimate, stderr = mc_centroid(scene, 5, 10**5)
        assert abs(estimate - 3.0) <= 4.0 * stderr  # shell is [2, 4]

    def test_agreement_across_kinds(self):
        for maker in KIND_MAKERS:
            for lam in (1.7, 0.6):
                scene = make_scene(maker, 3, lam)
                estimate, stderr = mc_centroid(scene, 42, 2 * 10**5)
                assert abs(estimate - shell_centroid(scene)) <= 4.0 * stderr, (
                    maker.__name__,
                    lam,
                )

    def test_far_offset_keeps_its_standard_error(self):
        near = DilationScene(ball(2, 1.0, center=1.0), 0.0, 2.0)
        far = DilationScene(ball(2, 1.0, center=1e9), 1e9 - 1.0, 2.0)
        _, near_stderr = mc_centroid(near, 42, 2 * 10**5)
        estimate, stderr = mc_centroid(far, 42, 2 * 10**5)
        assert stderr == pytest.approx(near_stderr, rel=1e-3)
        assert abs(estimate - shell_centroid(far)) <= 4.0 * stderr

    @pytest.mark.parametrize("lam", (1e200, 1e300))
    @pytest.mark.parametrize("maker", KIND_MAKERS, ids=lambda maker: maker.__name__)
    def test_huge_factor_keeps_a_finite_estimate(self, maker, lam):
        # the image's coordinates reach 1e300: neither the square of its
        # half-width nor a sum of squared offsets from O may be formed
        scene = make_scene(maker, 3, lam)
        estimate, stderr = mc_centroid(scene, 42, 10**5)
        assert 0.0 < stderr < math.inf
        assert abs(estimate - shell_centroid(scene)) <= 4.0 * stderr

    @pytest.mark.parametrize("lam", (1e-300, 1e-200, 1e300))
    @pytest.mark.parametrize("maker", KIND_MAKERS, ids=lambda maker: maker.__name__)
    def test_extreme_factor_raises_no_warning(self, maker, lam):
        # membership is tested on offsets at scale r, so no section bound
        # overflows however small r is
        scene = make_scene(maker, 3, lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mc_centroid(scene, 42, 10**4)

    def test_thin_shell_raises(self):
        # at either factor exactly one of the 10**4 points lands in the
        # shell, which meets the 1e-4 rate but leaves no spread to estimate;
        # they are the ends of the run of such factors on a 1e-6 grid
        for lam in (1.000046, 1.000076):
            scene = DilationScene(ball(2, 1.0, center=1.0), 0.0, lam)
            with pytest.raises(DegenerateShell, match=r"^1 of 10000 points accepted"):
                mc_centroid(scene, 42, 10**4)

    @pytest.mark.parametrize("n", (16, 32, 64))
    @pytest.mark.parametrize("maker", KIND_MAKERS, ids=lambda maker: maker.__name__)
    def test_high_dimension_agreement(self, maker, n):
        for lam in (0.5, 1.2):
            scene = make_scene(maker, n, lam)
            estimate, stderr = mc_centroid(scene, 42, 2 * 10**5)
            assert abs(estimate - shell_centroid(scene)) <= 4.0 * stderr, lam

    def test_sample_floor(self):
        scene = DilationScene(ball(2, 1.0, center=1.0), 0.0, 2.0)
        with pytest.raises(ValueError):
            mc_centroid(scene, 42, 999)

    def test_unit_factor_rejected(self):
        scene = DilationScene(ball(2, 1.0, center=1.0), 0.0, 1.0)
        with pytest.raises(LambdaOne):
            mc_centroid(scene, 42, 10**5)


# (kind, n, lam, seed, samples, estimate, stderr).  A run of 10**4 samples
# is one chunk.  A chunk that leaves more than a quarter of its points
# undecided by the axial test reads each row of uniforms whole, as a
# whole-array draw does; the cone and pyramid at n = 8 and lam = 0.7 leave
# fewer and draw lateral values for those points alone.  The rows at 65536
# and 201234 samples span several chunks.
# Only the summation order of the moments may move the last digits; one point
# moved at 2e5 samples shifts an estimate by about 2e-3 stderr.
MC_GOLDEN = [
    ("ball", 1, 0.7, 42, 10000, 1.5294144758775563, 0.010412574207472375),
    ("ball", 2, 1.6, 43, 65536, 1.7356146105248638, 0.004102839274846228),
    ("ball", 3, 0.7, 44, 201234, 1.1187523605482017, 0.001269987047105797),
    ("ball", 8, 1.6, 45, 10000, 1.4571797626591116, 0.005093608613547746),
    ("cube", 1, 1.6, 46, 65536, 0.9804970775962871, 0.003449950416793693),
    ("cube", 2, 0.7, 47, 201234, 0.5868340166735241, 0.0010331583771885748),
    ("cube", 3, 1.6, 48, 10000, 0.7365345622560628, 0.005629348232131678),
    ("cube", 8, 0.7, 49, 65536, 0.5055881579762446, 0.0011794081389720635),
    ("cone", 1, 1.6, 50, 201234, 0.9786690139979566, 0.0019498790403299536),
    ("cone", 2, 0.7, 51, 10000, 0.7993010054378484, 0.002978689775980084),
    ("cone", 3, 1.6, 52, 65536, 1.1858624017994617, 0.001183921413124886),
    ("cone", 8, 0.7, 53, 201234, 0.9013158315369785, 0.00019742432438058608),
    ("pyramid", 1, 1.6, 54, 10000, 0.9804003474269176, 0.008681070772278135),
    ("pyramid", 2, 0.7, 55, 65536, 0.8014938755175143, 0.0011687688720812953),
    ("pyramid", 3, 1.6, 56, 201234, 1.1869731152264358, 0.0006692300856894083),
    ("pyramid", 8, 0.7, 57, 10000, 0.902472496653597, 0.0008863922155591993),
]

# (kind, lam, estimate, stderr) for ConvexBody(kind, 5, 2.5, 0.4, -3.0), O at
# 0.3 of its axis extent, seed 11 and 10**5 samples: the size, base and
# offset differ from one another and from a unit body's, so a point put in
# the wrong frame, or a size read for a base, moves the estimate.  The rows at
# lam = 0.001 and 40, and every cone and pyramid row, leave at most a
# quarter of each chunk undecided by the axial test and draw lateral values
# for those points alone
MC_GOLDEN_OFF_UNIT = [
    ("ball", 0.001, -3.000672282993105, 0.0029891283988349284),
    ("ball", 0.6, -2.9659079438055747, 0.003167081521813141),
    ("ball", 1.7, -2.24704018666729, 0.005354434830544502),
    ("ball", 40.0, 35.9046032535093, 0.11955021395292476),
    ("cube", 0.001, -1.7480105556904157, 0.00228124966598141),
    ("cube", 0.6, -1.7321535151165093, 0.002426952881538779),
    ("cube", 1.7, -1.372022532562938, 0.0041007253450585195),
    ("cube", 40.0, 17.82403753525719, 0.09127839333373645),
    ("cone", 0.001, -0.9156452162931696, 0.0011120504214863379),
    ("cone", 0.6, -0.8711336259549327, 0.0010650631912947238),
    ("cone", 1.7, 0.08880635362269906, 0.001807276852204546),
    ("cone", 40.0, 51.1192699551131, 0.0444971816987049),
    ("pyramid", 0.001, -0.9156452162931696, 0.0011120504214863379),
    ("pyramid", 0.6, -0.8711336259549327, 0.0010650631912947238),
    ("pyramid", 1.7, 0.08880635362269906, 0.001807276852204546),
    ("pyramid", 40.0, 51.1192699551131, 0.0444971816987049),
]


def off_unit_scene(kind, lam):
    body = ConvexBody(BodyKind(kind), 5, 2.5, 0.4, -3.0)
    lo, hi = axis_interval(body)
    return DilationScene(body, lo + 0.3 * (hi - lo), lam)


class TestMonteCarloDraws:
    @pytest.mark.parametrize("kind, n, lam, seed, samples, estimate, stderr", MC_GOLDEN)
    def test_same_points_as_whole_block_draws(self, kind, n, lam, seed, samples,
                                              estimate, stderr):
        maker = dict(zip(("ball", "cube", "cone", "pyramid"), KIND_MAKERS))[kind]
        scene = make_scene(maker, n, lam)
        got, got_stderr = mc_centroid(scene, seed, samples)
        assert abs(got - estimate) <= 1e-9 * stderr
        assert abs(got_stderr - stderr) <= 1e-9 * stderr
        assert abs(estimate - shell_centroid(scene)) <= 4.0 * stderr

    @pytest.mark.parametrize("kind, lam, estimate, stderr", MC_GOLDEN_OFF_UNIT)
    def test_same_points_on_an_off_unit_body(self, kind, lam, estimate, stderr):
        scene = off_unit_scene(kind, lam)
        got, got_stderr = mc_centroid(scene, 11, 10**5)
        assert abs(got - estimate) <= 1e-9 * stderr
        assert abs(got_stderr - stderr) <= 1e-9 * stderr
        assert abs(estimate - shell_centroid(scene)) <= 4.0 * stderr

    @staticmethod
    def unit_frame(scene):
        """The larger body's shape, and the smaller body's offset c0 and
        scale r in the larger body's unit frame, as mc_centroid forms them."""
        image = dilate(scene.body, scene.O, scene.lam)
        big, small = (image, scene.body) if scene.lam > 1.0 else (scene.body, image)
        c0 = (small.axis_offset - big.axis_offset) / big.size
        return big, big.kind.shape, c0, small.size / big.size

    @pytest.mark.parametrize("scene, seed", [
        pytest.param(DilationScene(cone(2, 1.0, apex=0.0), 0.0, 1.0 + 1e-4), 5, id="cone2-up"),
        pytest.param(DilationScene(cone(2, 1.0, apex=0.0), 0.0, 1.0 - 1e-4), 5, id="cone2-down"),
        pytest.param(DilationScene(cone(2, 1.0, apex=0.0), 0.0, 1.0 - 1e-4), 6,
                     id="cone2-down-seed6"),
        pytest.param(DilationScene(cone(2, 1.0, apex=0.0), 0.0, 1.0 - 1e-4), 8,
                     id="cone2-down-seed8"),
        pytest.param(DilationScene(cone(16, 1.0, apex=0.0), 0.0, 1.0 + 1e-4), 5, id="cone16-up"),
        pytest.param(DilationScene(cone(16, 1.0, apex=0.0), 0.0, 1.0 - 1e-4), 5,
                     id="cone16-down"),
        pytest.param(DilationScene(ball(2, 1.0, center=1.0), 0.0, 3.0), 5, id="ball2-3"),
        pytest.param(DilationScene(ball(2, 1.0, center=1.0), 0.0, 3.0), 2, id="ball2-3-seed2"),
        pytest.param(DilationScene(ConvexBody(BodyKind.CUBE, 5, 2.5, 0.4, 1e6), 1e6 + 0.1, 1.7),
                     5, id="cube5-far"),
    ])
    def test_moments_match_two_pass_sums_of_the_same_points(self, scene, seed):
        # thin shells about a cone's apex, where the accepted points sit far
        # from O in the unit frame, a wide shell, and a body far from 0: the
        # chunk moments must keep the digits of two-pass sums of the points.
        # A running mean rounded once per chunk drifted 2-3 ulp from them on
        # the thin 2-cone at seeds 6 and 8, and plain running totals of the
        # chunk sums 3 ulp on the 2-ball at seed 2
        samples, n = 10**6, scene.body.n
        big, shape, c0, r = self.unit_frame(scene)
        rng = np.random.Generator(np.random.PCG64DXSM(seed))
        accepted = []
        for done in range(0, samples, _MC_CHUNK):
            size = min(_MC_CHUNK, samples - done)
            u, keep, tmp = np.empty((3, size))
            rows = shape.axial(rng, n, u, keep, tmp)
            d = u - c0
            undecided = (d >= shape.axis_start * r) & (d <= r)
            if np.count_nonzero(undecided) <= _MC_GATHER_SHARE * size:
                rows, d = [row[undecided] for row in rows], d[undecided]
            else:
                undecided[:] = True
            lateral, tmp = np.empty((2, d.size))
            shape.lateral(rng, n, lateral, tmp, *rows)
            shell = (u - c0 < shape.axis_start * r) | (u - c0 > r)
            shell[undecided] |= lateral > shape.section_bound(r, d, n)
            accepted.extend(u[shell].tolist())
        mean = math.fsum(accepted) / len(accepted)
        m2 = math.fsum((x - mean) ** 2 for x in accepted)
        expected = big.axis_offset + big.size * mean
        expected_stderr = big.size * math.sqrt(m2 / (len(accepted) - 1) / len(accepted))

        estimate, stderr = mc_centroid(scene, seed, samples)
        assert abs(stderr - expected_stderr) <= 1e-14 * expected_stderr
        assert abs(estimate - expected) <= math.ulp(expected)

    def test_moments_make_no_copy_and_no_blas_call(self):
        # np.compress copied every accepted point, and `@`, dot and their
        # kin reach BLAS, which may start threads of its own
        tree = ast.parse(inspect.getsource(geometry_module))
        assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))
        banned = {"dot", "vdot", "inner", "matmul", "tensordot", "compress"}
        called = {node.func.attr if isinstance(node.func, ast.Attribute) else
                  getattr(node.func, "id", None)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert not called & banned

    class Recorder:
        """A generator that logs a copy of every row of uniforms it fills."""

        def __init__(self, rng, log):
            self.rng, self.log = rng, log

        def random(self, out):
            self.rng.random(out=out)
            self.log.append(out.copy())

    @pytest.mark.parametrize("kind", list(BodyKind))
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_a_draw_reads_its_rows_in_stream_order(self, kind, n):
        # the axial step reads whole rows of the chunk, the ball its q row
        # and its direction; the lateral step then reads one row of as many
        # uniforms as it is given points, none for a ball at n <= 2.  A row
        # more or less would move every later chunk's points
        seed, count, given = 7, 64, 23
        log = []
        rng = self.Recorder(np.random.Generator(np.random.PCG64DXSM(seed)), log)
        u, keep, tmp, lateral = np.empty((4, count))
        rows = kind.shape.axial(rng, n, u, keep, tmp)
        assert [row.size for row in log] == [count] * (2 if kind is BodyKind.BALL else 1)
        kind.shape.lateral(rng, n, lateral[:given], tmp[:given], *(row[:given] for row in rows))
        reads_lateral = kind is not BodyKind.BALL or n > 2
        assert [row.size for row in log[len(log) - reads_lateral:]] == [given] * reads_lateral
        expected = np.random.Generator(np.random.PCG64DXSM(seed)).random(sum(r.size for r in log))
        assert np.array_equal(np.concatenate(log), expected)
        if kind is BodyKind.CUBE:
            assert np.array_equal(u, log[0]) and np.array_equal(lateral[:given], log[1])

    @staticmethod
    def record_steps(monkeypatch, kind, log, generators):
        """Patch ``kind``'s two steps to log, in read order, ("axial", row) and
        ("lateral", row) for each row of uniforms they fill, and ("u", u)
        once a chunk's axial step is done; each generator read goes into
        ``generators`` by id."""
        shape = kind.shape

        def recorded(name, step):
            def run(rng, n, *args):
                generators.add(id(rng))
                rows = []
                result = step(TestMonteCarloDraws.Recorder(rng, rows), n, *args)
                log.extend((name, row) for row in rows)
                if name == "axial":
                    log.append(("u", args[0].copy()))
                return result
            return run

        steps = {"axial": recorded("axial", shape.axial),
                 "lateral": recorded("lateral", shape.lateral)}
        monkeypatch.setattr(kind, "shape", shape._replace(**steps))

    @pytest.mark.parametrize("samples", [65536, 10007])
    @pytest.mark.parametrize("seed", [0, 2**128 - 3])
    def test_chunks_read_one_seeded_stream_in_order(self, seed, samples, monkeypatch):
        # mc_centroid builds one generator and reads it a chunk at a time:
        # the rows of uniforms its steps fill, taken in order, are the
        # opening stretch of the one PCG64DXSM stream seeded with ``seed``.
        # The 3-ball draws its W row for every point of a chunk, the 8-cone
        # its lateral row for the few points its axial slab leaves undecided
        chunks = [min(_MC_CHUNK, samples - done) for done in range(0, samples, _MC_CHUNK)]
        for scene, axial in ((DilationScene(ball(3, 1.0, center=0.0), 0.2, 1.6), 2),
                             (DilationScene(cone(8, 1.0, apex=0.0), 0.0, 2.0), 1)):
            generators, log = set(), []
            self.record_steps(monkeypatch, scene.body.kind, log, generators)
            mc_centroid(scene, seed, samples)
            assert len(generators) == 1
            read = [(step, row.size) for step, row in log if step != "u"]
            lateral = [size for step, size in read if step == "lateral"]
            assert read == [pair for size, count in zip(chunks, lateral)
                            for pair in [("axial", size)] * axial + [("lateral", count)]]
            if axial == 2:  # the ball's slab leaves about half of each chunk undecided
                assert lateral == chunks
            else:  # the cone's about 0.4%
                assert all(0 < count < size // 16 for size, count in zip(chunks, lateral))
            rows = [row for step, row in log if step != "u"]
            expected = np.random.Generator(np.random.PCG64DXSM(seed)).random(
                sum(row.size for row in rows))
            assert np.array_equal(np.concatenate(rows), expected)

    @pytest.mark.parametrize("scene", [
        pytest.param(make_scene(maker, n, lam), id=f"{maker.__name__}{n}-{lam}")
        for maker in KIND_MAKERS for n in (2, 3, 8) for lam in (0.5, 1.2, 2.0)
    ] + [pytest.param(off_unit_scene(kind, lam), id=f"{kind}5-off-unit-{lam}")
         for kind in ("ball", "cube", "cone") for lam in (0.001, 0.6, 40.0)])
    def test_lateral_row_holds_the_undecided_points_or_the_whole_chunk(self, scene,
                                                                         monkeypatch):
        # a chunk that leaves at most _MC_GATHER_SHARE of its points undecided
        # by the axial test d in [axis_start*r, r] draws a lateral uniform for
        # exactly those points; any other chunk draws one for every point.
        # A ball at n <= 2 draws none
        log = []
        self.record_steps(monkeypatch, scene.body.kind, log, set())
        try:
            mc_centroid(scene, 5, 3 * _MC_CHUNK + 5000)
        except DegenerateShell:
            pass
        _, shape, c0, r = self.unit_frame(scene)
        reads_lateral = scene.body.kind is not BodyKind.BALL or scene.body.n > 2
        chunks = [i for i, (step, _) in enumerate(log) if step == "u"]
        assert len(chunks) == 4
        for i in chunks:
            u = log[i][1]
            d = u - c0
            undecided = int(np.count_nonzero((d >= shape.axis_start * r) & (d <= r)))
            expected = undecided if undecided <= _MC_GATHER_SHARE * u.size else u.size
            lateral = [row.size for step, row in log[i + 1:i + 2] if step == "lateral"]
            assert lateral == [expected] * reads_lateral

    @pytest.mark.parametrize("expand", [False, True], ids=["contract", "expand"])
    @pytest.mark.parametrize("kind, n, r", [
        *((BodyKind.BALL, n, 0.3 if n == 8 else 0.2) for n in (1, 2, 3, 8)),
        *((BodyKind.CUBE, n, 0.2) for n in (1, 2, 3, 8)),
        *((kind, n, 0.2 ** (1.0 / n)) for kind in (BodyKind.CONE, BodyKind.PYRAMID)
          for n in (1, 2, 3, 8)),
    ])
    def test_undecided_only_and_whole_chunk_paths_accept_the_same_points(self, kind, n, r,
                                                                         expand, monkeypatch):
        # the whole-chunk path reads a lateral row of one uniform per point;
        # fed that row's uniforms at the undecided points, in order, the
        # undecided-only path accepts the same points, and so gives the same
        # moments to the last bit.  O sits at the body's low end, and the
        # smaller body at scale r holds 10-28% of the points' axial slab
        body = ConvexBody(kind, n, 1.0)
        scene = DilationScene(body, axis_interval(body)[0], 1.0 / r if expand else r)
        seed, samples = 9, 10**4
        log = []
        monkeypatch.setattr(geometry_module, "_MC_GATHER_SHARE", -1.0)
        with monkeypatch.context() as patch:
            self.record_steps(patch, kind, log, set())
            whole = mc_centroid(scene, seed, samples)
        (u,) = [row for step, row in log if step == "u"]
        _, shape, c0, r = self.unit_frame(scene)
        d = u - c0
        undecided = (d >= shape.axis_start * r) & (d <= r)
        assert 0.0 < np.count_nonzero(undecided) / samples <= 0.3
        # the lateral row, if any, at the undecided points
        rows = [row[undecided] if step == "lateral" else row for step, row in log if step != "u"]

        class Replay:
            def random(self, out):
                out[:] = rows.pop(0)

        monkeypatch.setattr(geometry_module, "_MC_GATHER_SHARE", 0.3)
        monkeypatch.setattr(np.random, "Generator", lambda bits: Replay())
        assert mc_centroid(scene, seed, samples) == whole
        assert not rows

    @pytest.mark.parametrize("lam", [0.5, 1.7])
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_cone_and_pyramid_share_their_points(self, n, lam):
        # one apex draw at the plain norm serves both kinds: the section
        # fraction has one law for l2 and l-inf, so the same points land
        bodies = (ConvexBody(BodyKind.CONE, n, 2.5, 0.4, -3.0),
                  ConvexBody(BodyKind.PYRAMID, n, 2.5, 0.4, -3.0))
        cone_mc, pyramid_mc = (mc_centroid(DilationScene(body, -2.2, lam), 3, 30_011)
                               for body in bodies)
        assert cone_mc == pyramid_mc
        assert BodyKind.CONE.shape.axial is BodyKind.PYRAMID.shape.axial
        assert BodyKind.CONE.shape.lateral is BodyKind.PYRAMID.shape.lateral

    @pytest.mark.parametrize("kind", list(BodyKind))
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_an_exact_zero_uniform_draws_without_a_warning(self, kind, n):
        # a uniform of exactly 0.0 has log -inf: its power must still be 0,
        # and numpy's divide-by-zero warning must not escape the draw
        class Zeros:
            def random(self, out):
                out[:] = 0.0

        u, keep, tmp, lateral = np.full((4, 8), np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = kind.shape.axial(Zeros(), n, u, keep, tmp)
            kind.shape.lateral(Zeros(), n, lateral, tmp, *rows)
        # the ball's direction at a zero uniform is -e1, on its surface
        assert np.array_equal(u, np.full(8, -1.0 if kind is BodyKind.BALL else 0.0))
        assert np.array_equal(lateral, np.zeros(8))

    @pytest.mark.parametrize("kind", list(BodyKind))
    @pytest.mark.parametrize("n", [2, 5, 16])
    @pytest.mark.parametrize("r", [1e-150, 1e-3, 0.37, 1.0])
    def test_section_bound_is_the_unit_frame_bound_at_scale_r(self, kind, n, r):
        # the bound on offsets d = u - c0 at scale r against the bound the
        # unit frame gave at u' = d/r: r*u' for an apex body, r^2 (1 - u'^2)
        # for the ball, and for the cube r on the norm, so r^(n-1) on its
        # (n-1)-th power V
        shape = kind.shape
        d = np.linspace(shape.axis_start * r, r, 41)
        bound = shape.section_bound(r, d.copy(), n)
        unit = d / r
        eps = np.finfo(float).eps
        if kind is BodyKind.BALL:
            old = r * r * (1.0 - unit * unit)
            assert np.all(np.abs(bound - old) <= 4 * eps * r * r)
        elif kind is BodyKind.CUBE:
            assert bound ** (1.0 / (n - 1)) == pytest.approx(r, rel=4 * eps)
        else:
            assert np.all(np.abs(bound - r * unit) <= eps * np.abs(d))

    def test_workspace_stays_below_one_megabyte(self):
        # whole-block draws peaked at 2.5-3.6 MB for 10**6 samples
        for maker in KIND_MAKERS:
            scene = make_scene(maker, 8, 1.2)
            mc_centroid(scene, 1, 10**4)
            tracemalloc.start()
            try:
                mc_centroid(scene, 42, 10**6)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (maker.__name__, peak)

    @pytest.mark.parametrize("seed", [-1, 2**128, 1.5, "7"])
    def test_seed_must_be_an_int_below_2_to_128(self, seed):
        scene = DilationScene(ball(2, 1.0, center=1.0), 0.0, 2.0)
        with pytest.raises(ValueError, match=r"^seed must be an int in \[0, 2\*\*128\)"):
            mc_centroid(scene, seed, 10**4)

    def test_seed_range_ends_are_valid(self):
        scene = DilationScene(ball(2, 1.0, center=1.0), 0.0, 2.0)
        for seed in (0, 2**128 - 1):
            mc_centroid(scene, seed, 10**4)

    @pytest.mark.parametrize("samples", [1e5, 10**4 - 1, 0])
    def test_samples_must_be_an_int_of_at_least_ten_thousand(self, samples):
        scene = DilationScene(ball(2, 1.0, center=1.0), 0.0, 2.0)
        with pytest.raises(ValueError, match=r"^samples must be an int >= 10\*\*4"):
            mc_centroid(scene, 42, samples)


class TestSceneValidation:
    def test_center_outside(self):
        for O in (3.0, math.inf, math.nan):
            with pytest.raises(OOutsideBody):
                DilationScene(ball(2, 1.0, center=1.0), O, 2.0)

    def test_non_finite_offset(self):
        for offset in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="axis_offset"):
                ball(2, 1.0, center=offset)

    def test_non_finite_factor(self):
        for lam in (math.inf, math.nan):
            with pytest.raises(NonPositiveInput, match="finite"):
                DilationScene(ball(2, 1.0, center=1.0), 0.0, lam)

    def test_center_on_centroid(self):
        with pytest.raises(OEqualsA):
            DilationScene(cube(2, 1.0, near_face=0.0), 0.5, 2.0)

    def test_axis_interval(self):
        assert axis_interval(ball(2, 1.0, center=1.0)) == (0.0, 2.0)
        assert axis_interval(cone(3, 2.0, apex=-1.0)) == (-1.0, 1.0)

    def test_kind_must_be_a_body_kind(self):
        # representation makes the body's own check before it reads the shape
        for kind in ("ball", None):
            message = re.escape(f"kind must be a BodyKind, got {kind!r}")
            with pytest.raises(ValueError, match=message):
                ConvexBody(kind, 2, 1.0)
            with pytest.raises(ValueError, match=message):
                representation(kind, 2, 3)

    def test_body_field_validation(self):
        with pytest.raises(NonPositiveInput):
            ConvexBody(BodyKind.BALL, 2, 0.0)
        with pytest.raises(NonPositiveInput, match="finite"):
            ConvexBody(BodyKind.BALL, 2, math.inf)
        with pytest.raises(NonPositiveInput, match="finite"):
            ConvexBody(BodyKind.CONE, 2, 1.0, base=math.nan)
        with pytest.raises(ValueError):
            ConvexBody(BodyKind.BALL, 0, 1.0)

    def test_replace_checks_as_the_constructor_does(self):
        with pytest.raises(NonPositiveInput):
            ball(2, 1.0)._replace(size=-1.0)
        scene = DilationScene(ball(2, 1.0, center=1.0), 0.25, 2.0)
        with pytest.raises(OOutsideBody):
            scene._replace(O=3.0)
        assert scene._replace(lam=3.0) == DilationScene(scene.body, 0.25, 3.0)

    def test_records_are_immutable_tuples(self):
        body = cone(3, 2.0, apex=-1.0)
        scene = DilationScene(body, 0.0, 1.5)
        for record in (body, scene):
            with pytest.raises(AttributeError):
                record.colour = "red"
        with pytest.raises(AttributeError):
            body.size = 1.0
        assert body == (BodyKind.CONE, 3, 2.0, 1.0, -1.0)
        b, O, lam = scene
        assert (b, O, lam) == (body, 0.0, 1.5)


class TestNonFloatReals:
    """Sizes, offsets, centers, factors and targets that are not floats are
    read as doubles once, after their checks; one with no double is named."""

    @pytest.mark.parametrize("call", [
        lambda: dilate(ball(2, 1.0, 1.0), Decimal("nan"), 2.0),
        lambda: DilationScene(ball(2, 1.0, 1.0), Decimal("nan"), 2.0),
        lambda: b_one(ball(2, 1.0, 1.0), Decimal("nan")),
        lambda: b_one(ball(2, 1.0, 1.0), Decimal("snan")),
    ], ids=["dilate", "DilationScene", "b_one", "b_one-snan"])
    def test_decimal_nan_center_is_outside_the_body(self, call):
        # as a float nan is: the comparison itself used to raise InvalidOperation
        with pytest.raises(OOutsideBody):
            call()

    @pytest.mark.parametrize("call, expected", [
        (lambda: centroid(ConvexBody(BodyKind.BALL, 2, Decimal("1"), 1.0, 0.0)), 0.0),
        (lambda: centroid(ball(2, 1.0, Decimal("1"))), 1.0),
        (lambda: shell_centroid(DilationScene(ball(2, 1.0, 1.0), 0.0, Decimal("2"))),
         shell_centroid(DilationScene(ball(2, 1.0, 1.0), 0.0, 2.0))),
        (lambda: dilate(ball(2, 1.0, 1.0), 0.5, Decimal("2")), dilate(ball(2, 1.0, 1.0), 0.5, 2.0)),
        (lambda: solve_scene_for_target(ball(2, 1.0, 1.0), 0.0, Decimal("2")),
         solve_scene_for_target(ball(2, 1.0, 1.0), 0.0, 2.0)),
    ], ids=["size", "offset", "shell-lam", "dilate-lam", "target"])
    def test_decimals_give_the_float_results(self, call, expected):
        assert call() == expected

    def test_reads_are_floats_and_keep_float_inputs(self):
        body = ConvexBody(BodyKind.CONE, 3, 2, Decimal("0.5"), -1)
        assert [type(x) for x in body[2:]] == [float, float, float]
        scene = DilationScene(body, Decimal("-0.5"), 3)
        assert (scene.O, scene.lam) == (-0.5, 3.0)
        assert type(scene.O) is float and type(scene.lam) is float
        x = 0.1 + 0.2
        scene = DilationScene(ball(2, x, -0.0), x / 2, x)
        assert scene == (ConvexBody(BodyKind.BALL, 2, x, 1.0, -0.0), x / 2, x)
        assert math.copysign(1.0, scene.body.axis_offset) == -1.0

    def test_size_with_no_double(self):
        with pytest.raises(InputOutOfRange, match="^size lies outside"):
            centroid(ConvexBody(BodyKind.BALL, 2, 10**400, 1.0, 0.0))
        with pytest.raises(InputOutOfRange, match="^base lies outside"):
            cone(3, 1.0, base_radius=Decimal("1e-400"))

    def test_offset_with_no_double(self):
        for offset in (10**400, -(10**400), Decimal("1e400"), Decimal("nan"), Decimal("snan")):
            with pytest.raises(ValueError, match="^axis_offset must be a finite double"):
                ball(2, 1.0, offset)

    def test_factor_with_no_double(self):
        for lam in (10**400, Decimal("1e-400")):
            with pytest.raises(InputOutOfRange, match="^lam lies outside"):
                dilate(ball(2, 1.0, 1.0), 0.5, lam)
            with pytest.raises(InputOutOfRange, match="^lam lies outside"):
                DilationScene(ball(2, 1.0, 1.0), 0.5, lam)

    def test_target_with_no_double(self):
        for target in (10**400, Decimal("1e400"), Decimal("nan"), math.nan, math.inf, -math.inf):
            with pytest.raises(InputOutOfRange, match="^target_b must be a finite double"):
                solve_scene_for_target(ball(2, 1.0, 1.0), 0.0, target)

