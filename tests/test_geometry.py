import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anacci.errors import (
    DegenerateShell,
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
    ball_representation,
    center_ordering,
    centroid,
    centroid_ratio_theorem_check,
    cone,
    cone_representation,
    cube,
    dilate,
    height_interval_nesting,
    lambda_from_p,
    mc_centroid,
    pyramid,
    scene_points,
    shell_centroid,
    solve_scene_for_target,
    unit_ball_volume,
    volume,
)
from anacci.solver import solve_lambda

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
        rep = ball_representation(1, 2)
        assert rep.lam == pytest.approx(PHI, abs=1e-14)
        assert rep.dilated_center == pytest.approx(PHI, abs=1e-14)
        assert rep.dilated_radius == pytest.approx(PHI, abs=1e-14)
        assert rep.intersection == pytest.approx(2.0 * PHI, abs=1e-13)
        assert 2.0 <= rep.intersection < 4.0
        assert rep.shell_b == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_corner(self):
        rep = ball_representation(1, 1)
        assert rep.lam == 1.0
        assert rep.shell_b == pytest.approx(2.0, rel=1e-15)
        assert rep.intersection == pytest.approx(2.0, rel=1e-15)

    def test_weight_two(self):
        rep = ball_representation(2, 2)
        assert rep.intersection == pytest.approx(2.0 * (1.0 + math.sqrt(3.0)), abs=1e-12)
        assert 4.0 <= rep.intersection < 6.0

    def test_shell_centroid_lands_at_weight_plus_one(self):
        for m in range(1, 4):
            for n in range(1, 6):
                rep = ball_representation(m, n)
                assert rep.shell_b == pytest.approx(m + 1.0, abs=1e-10)

    def test_interval_and_growth(self):
        for m in range(1, 4):
            previous = None
            for n in range(1, 6):
                rep = ball_representation(m, n)
                assert 2 * m - 1e-12 <= rep.intersection < 2 * (m + 1)
                if previous is not None:
                    assert rep.intersection > previous
                previous = rep.intersection


class TestConeRepresentation:
    def test_golden_case(self):
        rep = cone_representation(1, 2)
        assert rep.scene.O == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert rep.lam == pytest.approx(PHI, abs=1e-14)
        assert rep.image_centroid == pytest.approx((PHI + 1.0) / 3.0, abs=1e-13)
        assert rep.height_interval[0] == pytest.approx(-0.20601132958, abs=1e-9)
        assert rep.height_interval[1] == pytest.approx(1.41202265917, abs=1e-9)
        assert rep.shell_b == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_corner(self):
        rep = cone_representation(1, 1)
        assert rep.lam == 1.0
        assert rep.shell_b == pytest.approx(1.0, rel=1e-15)

    def test_weight_two_plane(self):
        rep = cone_representation(2, 2)
        assert rep.scene.O == pytest.approx(0.5, rel=1e-15)
        assert rep.lam == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-13)

    def test_image_centroid_window(self):
        # the < 1 edge is strict mathematically, but deep in the lattice
        # phi saturates onto m+1 in doubles and the rounding noise of
        # O + lam*(A - O) scales with lam ~ m+1
        for m in range(1, 51):
            for n in range(1, 11):
                rep = cone_representation(m, n)
                slack = 8.0 * 2.220446049250313e-16 * (m + 1)
                assert 0.5 - 1e-12 <= rep.image_centroid < 1.0 + slack


class TestHeightNesting:
    def test_two_dimensional_values(self):
        report = height_interval_nesting(2, 2)
        assert report.ok
        assert report.lefts[0] == pytest.approx(-0.20601132958, abs=1e-9)
        assert report.lefts[1] == pytest.approx(-0.86602540378, abs=1e-9)
        assert report.rights[0] < report.rights[1]

    def test_one_dimensional_closed_form(self):
        # with phi(m, 1) = m the left ends are -(m-1)^2/(2m)
        report = height_interval_nesting(1, 3)
        for m, left in zip((1, 2, 3), report.lefts):
            assert left == pytest.approx(-((m - 1) ** 2) / (2.0 * m), abs=1e-12)
        assert report.ok

    def test_nesting_across_dimensions(self):
        for n in range(1, 11):
            assert height_interval_nesting(n, 50).ok

    def test_minimal_case(self):
        assert height_interval_nesting(5, 2).ok

    def test_m_max_precondition(self):
        with pytest.raises(ValueError):
            height_interval_nesting(2, 1)


class TestCentroidRatioTheorem:
    @pytest.mark.parametrize("kind,n", [
        (BodyKind.CONE, 2),
        (BodyKind.PYRAMID, 3),
        (BodyKind.CONE, 7),
        (BodyKind.PYRAMID, 1),
    ])
    def test_holds(self, kind, n):
        assert centroid_ratio_theorem_check(kind, n)

    def test_rejects_symmetric_bodies(self):
        with pytest.raises(ValueError):
            centroid_ratio_theorem_check(BodyKind.BALL, 2)


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

    def test_thin_shell_raises(self):
        scene = DilationScene(ball(2, 1.0, center=1.0), 0.0, 1.00001)
        with pytest.raises(DegenerateShell):
            mc_centroid(scene, 42, 10**4)

    def test_sample_floor(self):
        scene = DilationScene(ball(2, 1.0, center=1.0), 0.0, 2.0)
        with pytest.raises(ValueError):
            mc_centroid(scene, 42, 999)

    def test_unit_factor_rejected(self):
        scene = DilationScene(ball(2, 1.0, center=1.0), 0.0, 1.0)
        with pytest.raises(LambdaOne):
            mc_centroid(scene, 42, 10**5)


class TestSceneValidation:
    def test_center_outside(self):
        with pytest.raises(OOutsideBody):
            DilationScene(ball(2, 1.0, center=1.0), 3.0, 2.0)

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

    def test_body_field_validation(self):
        with pytest.raises(NonPositiveInput):
            ConvexBody(BodyKind.BALL, 2, 0.0)
        with pytest.raises(NonPositiveInput, match="finite"):
            ConvexBody(BodyKind.BALL, 2, math.inf)
        with pytest.raises(NonPositiveInput, match="finite"):
            ConvexBody(BodyKind.CONE, 2, 1.0, base=math.nan)
        with pytest.raises(ValueError):
            ConvexBody(BodyKind.BALL, 0, 1.0)
