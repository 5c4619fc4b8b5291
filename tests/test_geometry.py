import math
import re
import tracemalloc
import warnings

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
)
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
    _BlockStreams,
    _MC_CHUNK,
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
        assert lambda_from_p(3, 1.0 / 3.0) == 1.0

    def test_below_boundary_raises(self):
        with pytest.raises(PTooSmall):
            lambda_from_p(3, 0.2)

    def test_below_boundary_raises_when_the_zero_is_out_of_range(self):
        # the sub-critical zero, about 1e-301, lies below the solver's floor
        with pytest.raises(PTooSmall):
            lambda_from_p(1, 1e-301)

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

    def test_unreachable_target_raises(self):
        body = ball(2, 1.0, center=1.0)
        with pytest.raises(TargetUnreachable):
            solve_scene_for_target(body, 0.0, 1.2)  # p = 0.2 < 1/2
        with pytest.raises(TargetUnreachable):
            solve_scene_for_target(body, 0.0, 0.5)  # wrong side of A

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
        # the smaller body's section bound overflows far outside its axis
        # segment, where the axial test has already decided
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


# (kind, n, lam, seed, samples, estimate, stderr), recorded with the sampler
# that drew each block as whole-block arrays from one generator advanced to
# the block's first draw.  The chunked workspace must draw the same points,
# so only the merge order of the moments may move the last digits; one point
# moved at 2e5 samples shifts an estimate by about 2e-3 stderr.
MC_GOLDEN = [
    ("ball", 1, 0.7, 42, 10000, 1.5294144758775563, 0.010412574207472375),
    ("ball", 2, 1.6, 43, 65536, 1.7383761500041555, 0.004115719065699813),
    ("ball", 3, 0.7, 44, 201234, 1.117785349297667, 0.0012698541683586184),
    ("ball", 8, 1.6, 45, 10000, 1.4571797626591116, 0.005093608613547746),
    ("cube", 1, 1.6, 46, 65536, 0.9833434092686888, 0.0034126240125378886),
    ("cube", 2, 0.7, 47, 201234, 0.5881114650190168, 0.0010338083370037593),
    ("cube", 3, 1.6, 48, 10000, 0.7365345622560628, 0.005629348232131678),
    ("cube", 8, 0.7, 49, 65536, 0.5056883146624058, 0.0011812032908689253),
    ("cone", 1, 1.6, 50, 201234, 0.9794613573953022, 0.0019493658120034345),
    ("cone", 2, 0.7, 51, 10000, 0.7993010054378484, 0.002978689775980084),
    ("cone", 3, 1.6, 52, 65536, 1.1881907409239094, 0.00116885493283137),
    ("cone", 8, 0.7, 53, 201234, 0.9013418343254884, 0.00019852954659936814),
    ("pyramid", 1, 1.6, 54, 10000, 0.9804003474269176, 0.008681070772278135),
    ("pyramid", 2, 0.7, 55, 65536, 0.8021365671537075, 0.0011654783576184743),
    ("pyramid", 3, 1.6, 56, 201234, 1.1869774038377798, 0.0006683721528325846),
    ("pyramid", 8, 0.7, 57, 10000, 0.9024053603098225, 0.000886344751787853),
]

# (kind, lam, estimate, stderr) for ConvexBody(kind, 5, 2.5, 0.4, -3.0), O at
# 0.3 of its axis extent, seed 11 and 10**5 samples, recorded with the
# sampler that tested membership in absolute coordinates: the size, base and
# offset differ from one another and from a unit body's, so a point put in
# the wrong frame, or a size read for a base, moves the estimate
MC_GOLDEN_OFF_UNIT = [
    ("ball", 0.001, -2.9983530713617528, 0.0029731837862482084),
    ("ball", 0.6, -2.9642668573616824, 0.0031548691633504302),
    ("ball", 1.7, -2.2433091131080234, 0.00533179642892473),
    ("ball", 40.0, 36.06587714552989, 0.11892735144992833),
    ("cube", 0.001, -1.7460308993654725, 0.0022822413935247145),
    ("cube", 0.6, -1.7293024471138534, 0.0024299750992019045),
    ("cube", 1.7, -1.3671351336397075, 0.004104804955323511),
    ("cube", 40.0, 17.908764025381103, 0.0912896557409886),
    ("cone", 0.001, -0.9147417822011141, 0.0011101260177770855),
    ("cone", 0.6, -0.8697461087264207, 0.0010607266049232457),
    ("cone", 1.7, 0.09042119896772238, 0.0018041499730200852),
    ("cone", 40.0, 51.16032871195543, 0.044405040711083414),
    ("pyramid", 0.001, -0.9147417822011141, 0.0011101260177770855),
    ("pyramid", 0.6, -0.8697461087264207, 0.0010607266049232457),
    ("pyramid", 1.7, 0.09042119896772238, 0.0018041499730200852),
    ("pyramid", 40.0, 51.16032871195543, 0.044405040711083414),
]


class TestMonteCarloDraws:
    @pytest.mark.parametrize("kind, n, lam, seed, samples, estimate, stderr", MC_GOLDEN)
    def test_same_points_as_whole_block_draws(self, kind, n, lam, seed, samples,
                                              estimate, stderr):
        maker = dict(zip(("ball", "cube", "cone", "pyramid"), KIND_MAKERS))[kind]
        got, got_stderr = mc_centroid(make_scene(maker, n, lam), seed, samples)
        assert abs(got - estimate) <= 1e-9 * stderr
        assert abs(got_stderr - stderr) <= 1e-9 * stderr

    @pytest.mark.parametrize("kind, lam, estimate, stderr", MC_GOLDEN_OFF_UNIT)
    def test_same_points_on_an_off_unit_body(self, kind, lam, estimate, stderr):
        body = ConvexBody(BodyKind(kind), 5, 2.5, 0.4, -3.0)
        lo, hi = axis_interval(body)
        scene = DilationScene(body, lo + 0.3 * (hi - lo), lam)
        got, got_stderr = mc_centroid(scene, 11, 10**5)
        assert abs(got - estimate) <= 1e-9 * stderr
        assert abs(got_stderr - stderr) <= 1e-9 * stderr

    @pytest.mark.parametrize("count", [65536, 10007])
    @pytest.mark.parametrize("seed", [0, 2**128 - 3])
    def test_streams_are_stretches_of_one_seeded_stream(self, seed, count):
        # stream k of block b starts at draw b*2^64 + k*count of the one
        # PCG64DXSM stream seeded with ``seed``, drawn a chunk at a time
        streams = _BlockStreams(seed)
        for block in (0, 1):
            streams.start(block, count)
            got = np.empty((3, count))
            for done in range(0, count, _MC_CHUNK):
                for k in range(3):
                    streams[k].random(out=got[k, done:done + _MC_CHUNK])
            bits = np.random.PCG64DXSM(seed)
            bits.advance(block << 64)
            expected = np.random.Generator(bits).random(3 * count)
            assert np.array_equal(got.ravel(), expected), block

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
