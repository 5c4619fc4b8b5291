"""Dilations of n-dimensional convex bodies and shell-centroid algebra.

Every construction here lives on the first coordinate axis: a body is an
axis-aligned ball, cube, cone, or pyramid whose reference point sits at
``axis_offset`` on e1, and a dilation about a homothetic center O on that
axis maps x -> O + lam*(x - O), scaling distances by lam and n-volumes by
lam^n.  Removing the smaller body from the larger leaves a shell whose
center of mass B solves the lever balance  d(dilated_center, B) * lam^n =
d(center, B):  volumes act as opposing force magnitudes at the two
centroids.  Choosing where B must land turns the balance into the
characteristic equation of the equal-weight recurrences, which is how the
anacci constants acquire a geometric meaning as dilation factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (
    DegenerateShell,
    LambdaOne,
    NonPositiveInput,
    OEqualsA,
    OOutsideBody,
    PTooSmall,
    TargetUnreachable,
)
from .lattice import anacci
from .qkernel import RegionClass, _check_positive, classify
from .solver import solve_lambda

# absolute slack when matching a dilation factor against a case boundary
_BOUNDARY_TOL = 1e-12


class BodyKind(Enum):
    BALL = "ball"
    CUBE = "cube"
    CONE = "cone"
    PYRAMID = "pyramid"


@dataclass(frozen=True)
class ConvexBody:
    """A compact convex body positioned on the first coordinate axis.

    ``size`` is the ball radius, cube side, or cone/pyramid height.
    ``base`` is the cone's base (n-1)-ball radius or the pyramid's base
    (n-1)-cube side; unused for balls and cubes.  ``axis_offset`` places
    the reference point on e1: the ball center, the cube's near-face
    center, or the cone/pyramid apex (the body extends toward +e1).
    """

    kind: BodyKind
    n: int
    size: float
    base: float = 1.0
    axis_offset: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"dimension n must be a positive integer, got {self.n!r}")
        _check_positive(size=self.size, base=self.base)


def ball(n: int, radius: float = 1.0, center: float = 0.0) -> ConvexBody:
    return ConvexBody(BodyKind.BALL, n, radius, axis_offset=center)


def cube(n: int, side: float = 1.0, near_face: float = 0.0) -> ConvexBody:
    return ConvexBody(BodyKind.CUBE, n, side, axis_offset=near_face)


def cone(n: int, height: float = 1.0, apex: float = 0.0,
         base_radius: float = 1.0) -> ConvexBody:
    return ConvexBody(BodyKind.CONE, n, height, base_radius, apex)


def pyramid(n: int, height: float = 1.0, apex: float = 0.0,
            base_side: float = 1.0) -> ConvexBody:
    return ConvexBody(BodyKind.PYRAMID, n, height, base_side, apex)


def axis_interval(body: ConvexBody) -> tuple[float, float]:
    """The closed extent of the body along e1."""
    if body.kind is BodyKind.BALL:
        return body.axis_offset - body.size, body.axis_offset + body.size
    return body.axis_offset, body.axis_offset + body.size


def contains_axis_point(body: ConvexBody, x: float) -> bool:
    lo, hi = axis_interval(body)
    return lo <= x <= hi


def centroid(body: ConvexBody) -> float:
    """First coordinate of the center of mass.

    Symmetric bodies split their axis 1:1 (ball center; cube mid-side);
    cones and pyramids split apex-to-base as n:1, i.e. the centroid sits at
    n/(n+1) of the height from the apex.
    """
    if body.kind is BodyKind.BALL:
        return body.axis_offset
    if body.kind is BodyKind.CUBE:
        return body.axis_offset + 0.5 * body.size
    return body.axis_offset + body.size * body.n / (body.n + 1)


def unit_ball_volume(n: int) -> float:
    """Volume pi^(n/2)/Gamma(n/2+1) of the unit n-ball (1 at n = 0)."""
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n!r}")
    try:
        return math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    except OverflowError:  # Gamma overflows from n = 342 on; the ratio does not
        return math.exp(n / 2 * math.log(math.pi) - math.lgamma(n / 2 + 1))


def volume(body: ConvexBody) -> float:
    """n-volume of the body."""
    n = body.n
    if body.kind is BodyKind.BALL:
        return unit_ball_volume(n) * body.size**n
    if body.kind is BodyKind.CUBE:
        return body.size**n
    if body.kind is BodyKind.CONE:
        return unit_ball_volume(n - 1) * body.base ** (n - 1) * body.size / n
    return body.base ** (n - 1) * body.size / n


def dilate(body: ConvexBody, O: float, lam: float) -> ConvexBody:
    """Image of the body under x -> O + lam*(x - O) about a center O inside it."""
    _check_positive(lam=lam)
    if not contains_axis_point(body, O):
        raise OOutsideBody(
            f"homothetic center {O!r} outside body extent {axis_interval(body)}"
        )
    return replace(
        body,
        size=lam * body.size,
        base=lam * body.base,
        axis_offset=O + lam * (body.axis_offset - O),
    )


@dataclass(frozen=True)
class DilationScene:
    """A body together with a homothetic center O inside it and a factor lam.

    O must differ from the body's center of mass (the construction needs a
    direction along which to order the derived centers).
    """

    body: ConvexBody
    O: float
    lam: float

    def __post_init__(self):
        _check_positive(lam=self.lam)
        if not contains_axis_point(self.body, self.O):
            raise OOutsideBody(
                f"homothetic center {self.O!r} outside body extent "
                f"{axis_interval(self.body)}"
            )
        if self.O == centroid(self.body):
            raise OEqualsA("homothetic center coincides with the center of mass")


class CenterOrdering(Enum):
    """The five orderings of O, A, B(1), dilated A, and B along the axis.

    A is the body centroid, L(A) its dilated image, B the shell centroid,
    and B(1) the lam -> 1 limit of B; chains are by distance from O.  B
    climbs monotonically with lam: for a contraction it sits strictly
    between A and the limit point B(1), and for an expansion strictly
    beyond both B(1) and L(A).
    """

    EXPANSION_WIDE = "O<A<B(1)<L(A)<B"      # lam > 1 + 1/n
    EXPANSION_TOUCH = "O<A<B(1)=L(A)<B"     # lam = 1 + 1/n
    EXPANSION_NARROW = "O<A<L(A)<B(1)<B"    # 1 < lam < 1 + 1/n
    UNIT = "O<A=L(A)<B(1)=B"                # lam = 1
    CONTRACTION = "O<L(A)<A<B<B(1)"         # 0 < lam < 1


def shell_centroid(scene: DilationScene) -> float:
    """Center of mass of the shell between the body and its dilation.

    The lever balance d(L(A), B)*lam^n = d(A, B), with forces proportional
    to the two volumes, gives B = L(A) + (L(A) - A)/(lam^n - 1) for the
    shell image-minus-body (lam > 1) and body-minus-image (lam < 1) alike.
    The denominator comes from expm1(n*log(lam)), and is +inf once lam^n
    overflows, where B = L(A).  Undefined at lam = 1 (see b_one).
    """
    lam = scene.lam
    if lam == 1.0:
        raise LambdaOne("shell is empty at lam = 1; use b_one for the limit")
    a = centroid(scene.body)
    image_a = scene.O + lam * (a - scene.O)
    try:
        denom = math.expm1(scene.body.n * math.log(lam))
    except OverflowError:
        denom = math.inf
    return image_a + (image_a - a) / denom


def b_one(body: ConvexBody, O: float) -> float:
    """Limit of the shell centroid as lam -> 1: the point A + (A - O)/n.

    Lies beyond the centroid A, away from O, at 1/n of the O-to-A distance;
    for a cone or pyramid dilated about its apex this is exactly the
    centroid of the base face.
    """
    if not contains_axis_point(body, O):
        raise OOutsideBody(
            f"homothetic center {O!r} outside body extent {axis_interval(body)}"
        )
    a = centroid(body)
    if O == a:
        raise OEqualsA("limit point undefined when O is the center of mass")
    return a + (a - O) / body.n


def lambda_from_p(n: int, p: float) -> float:
    """Dilation factor realizing distance ratio p = d(A, B)/d(O, A) in
    dimension n: the ratio-limit value at (p, n).

    Needs p > 1/n for a factor above 1; at p = 1/n exactly the factor is 1
    (the B(1) limit configuration).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"dimension n must be a positive integer, got {n!r}")
    if not p > 0:
        raise NonPositiveInput(f"ratio p must be > 0, got {p!r}")
    regime = classify(p, n)
    if regime is RegionClass.SUB:
        raise PTooSmall(f"p = {p!r} <= 1/{n}: no dilation factor places B there")
    if regime is RegionClass.CRITICAL:
        return 1.0
    return solve_lambda(p, n).value


def solve_scene_for_target(body: ConvexBody, O: float, target_b: float) -> DilationScene:
    """Scene whose shell centroid lands exactly on target_b.

    The target must lie strictly beyond the centroid A as seen from O; the
    required factor is lambda_from_p(n, d(A, target)/d(O, A)).  A target at
    exactly the B(1) point yields the degenerate lam = 1 scene; anything
    closer to A is unreachable for every positive factor.
    """
    if not contains_axis_point(body, O):
        raise OOutsideBody(
            f"homothetic center {O!r} outside body extent {axis_interval(body)}"
        )
    a = centroid(body)
    if O == a:
        raise OEqualsA("need O distinct from the center of mass")
    d_oa = a - O
    d_ab = target_b - a
    if d_ab == 0.0 or (d_ab > 0) != (d_oa > 0):
        raise TargetUnreachable(
            f"target {target_b!r} is not strictly beyond the centroid {a!r} "
            f"as seen from O = {O!r}"
        )
    p = abs(d_ab) / abs(d_oa)
    try:
        lam = lambda_from_p(body.n, p)
    except PTooSmall as exc:
        raise TargetUnreachable(str(exc)) from exc
    scene = DilationScene(body, O, lam)
    if lam != 1.0:
        achieved = shell_centroid(scene)
        if abs(achieved - target_b) > 1e-10 * (1.0 + abs(target_b)):
            raise TargetUnreachable(
                f"solved factor misses target: {achieved!r} vs {target_b!r}"
            )
    return scene


def scene_points(scene: DilationScene) -> dict[str, float]:
    """All derived centers of a scene keyed O, A, LA, B1, B (B = B1 at lam = 1)."""
    a = centroid(scene.body)
    image_a = scene.O + scene.lam * (a - scene.O)
    limit_b = b_one(scene.body, scene.O)
    b = limit_b if scene.lam == 1.0 else shell_centroid(scene)
    return {"O": scene.O, "A": a, "LA": image_a, "B1": limit_b, "B": b}


def center_ordering(scene: DilationScene) -> CenterOrdering:
    """Which of the five orderings the scene's derived centers realize.

    The boundary factors 1 and 1 + 1/n are matched to 1e-12 absolute, so a
    factor assembled as ``1 + 1/n`` in floating point classifies onto its
    boundary case.
    """
    lam = scene.lam
    threshold = 1.0 + 1.0 / scene.body.n
    if abs(lam - 1.0) <= _BOUNDARY_TOL:
        return CenterOrdering.UNIT
    if lam < 1.0:
        return CenterOrdering.CONTRACTION
    if abs(lam - threshold) <= _BOUNDARY_TOL:
        return CenterOrdering.EXPANSION_TOUCH
    if lam > threshold:
        return CenterOrdering.EXPANSION_WIDE
    return CenterOrdering.EXPANSION_NARROW


@dataclass(frozen=True)
class BallRepresentation:
    """Unit-ball realization of one lattice constant phi(m, n).

    The unit n-ball sits with center of mass at 1, the homothetic center at
    the origin, and the shell centroid is required at m+1; the dilation
    factor is then phi(m, n), the dilated ball has center and radius
    phi(m, n), and its far axis intersection is 2*phi(m, n), landing inside
    [2m, 2(m+1)).
    """

    m: int
    n: int
    scene: DilationScene
    lam: float
    shell_b: float
    dilated_center: float
    dilated_radius: float
    intersection: float


def ball_representation(m: int, n: int) -> BallRepresentation:
    """Build the unit-ball scene whose shell centroid sits at m+1.

    The (1, 1) corner degenerates to the lam = 1 limit with B(1) = 2 and a
    point shell.
    """
    body = ball(n, 1.0, center=1.0)
    if m * n == 1:
        lam = 1.0
    else:
        lam = anacci((m, n))
    scene = DilationScene(body, 0.0, lam)
    shell_b = b_one(body, 0.0) if lam == 1.0 else shell_centroid(scene)
    image = dilate(body, 0.0, lam)
    return BallRepresentation(
        m=m,
        n=n,
        scene=scene,
        lam=lam,
        shell_b=shell_b,
        dilated_center=image.axis_offset,
        dilated_radius=image.size,
        intersection=image.axis_offset + image.size,
    )


@dataclass(frozen=True)
class ConeRepresentation:
    """Unit-height cone realization of one lattice constant phi(m, n).

    The cone has apex at the origin and centroid at n/(n+1); the homothetic
    center sits at (m*n - 1)/(m*(n+1)) and the shell centroid is required
    at the base center 1.  The dilated cone then has height phi(m, n) and
    occupies ``height_interval`` on the axis; its centroid lands at
    (phi + m*n - 1)/(m*(n+1)), always inside [1/2, 1).
    """

    m: int
    n: int
    scene: DilationScene
    lam: float
    shell_b: float
    image_centroid: float
    height_interval: tuple[float, float]


def cone_representation(m: int, n: int) -> ConeRepresentation:
    """Build the unit-height cone scene whose shell centroid sits at 1.

    The (1, 1) corner degenerates to the lam = 1 limit with B(1) = 1 and a
    point shell.
    """
    body = cone(n, 1.0, apex=0.0)
    O = (m * n - 1) / (m * (n + 1))
    if m * n == 1:
        lam = 1.0
    else:
        lam = anacci((m, n))
    scene = DilationScene(body, O, lam)
    a = centroid(body)
    shell_b = b_one(body, O) if lam == 1.0 else shell_centroid(scene)
    apex_image = O + lam * (0.0 - O)
    return ConeRepresentation(
        m=m,
        n=n,
        scene=scene,
        lam=lam,
        shell_b=shell_b,
        image_centroid=O + lam * (a - O),
        height_interval=(apex_image, apex_image + lam),
    )


@dataclass(frozen=True)
class NestingReport:
    """Nesting of the dilated-cone height intervals at a fixed dimension.

    For m = 1..m_max the interval left ends must strictly decrease and the
    right ends strictly increase; margins hold the m -> m+1 differences
    (positive means the nesting holds there).
    """

    n: int
    lefts: list[float]
    rights: list[float]
    left_margins: list[float]
    right_margins: list[float]
    ok: bool


def height_interval_nesting(n: int, m_max: int) -> NestingReport:
    """Check the ordered nesting of cone height intervals for m <= m_max."""
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")
    reps = [cone_representation(m, n) for m in range(1, m_max + 1)]
    lefts = [r.height_interval[0] for r in reps]
    rights = [r.height_interval[1] for r in reps]
    left_margins = [lefts[i] - lefts[i + 1] for i in range(m_max - 1)]
    right_margins = [rights[i + 1] - rights[i] for i in range(m_max - 1)]
    ok = all(d > 0 for d in left_margins) and all(d > 0 for d in right_margins)
    return NestingReport(n, lefts, rights, left_margins, right_margins, ok)


def centroid_ratio_theorem_check(kind: BodyKind, n: int) -> bool:
    """Verify the n:1 apex-to-base centroid split by dilation limits.

    Dilates a unit-height cone or pyramid about its apex and checks that
    the shell centroid at lam = 1 +- 1e-5 approaches the base-face centroid
    (within 1e-4) and that d(O, A)/d(A, B(1)) = n within 1e-6.
    """
    if kind not in (BodyKind.CONE, BodyKind.PYRAMID):
        raise ValueError(f"check applies to cones and pyramids, got {kind!r}")
    maker = cone if kind is BodyKind.CONE else pyramid
    body = maker(n, 1.0, apex=0.0)
    a = centroid(body)
    base_center = body.axis_offset + body.size
    limit_b = b_one(body, 0.0)
    if abs(limit_b - base_center) > 1e-12:
        return False
    for lam in (1.0 + 1e-5, 1.0 - 1e-5):
        b = shell_centroid(DilationScene(body, 0.0, lam))
        if abs(b - limit_b) > 1e-4:
            return False
    ratio = (a - 0.0) / (limit_b - a)
    return abs(ratio - n) <= 1e-6


# ---------------------------------------------------------------------------
# Monte Carlo shell-centroid oracle

_MC_BLOCK = 1 << 16
# counter stride per block in the Philox state space; blocks can never
# overlap no matter how many draws one block consumes
_MC_COUNTER_STRIDE = 1 << 128


def _lateral_halfwidth(body: ConvexBody) -> float:
    if body.kind is BodyKind.BALL:
        return body.size
    if body.kind is BodyKind.CUBE:
        return 0.5 * body.size
    if body.kind is BodyKind.CONE:
        return body.base
    return 0.5 * body.base


def _contains_batch(body: ConvexBody, x1: np.ndarray, lateral: np.ndarray) -> np.ndarray:
    """Vectorized membership of points (x1, lateral...) in the body."""
    lo, hi = axis_interval(body)
    inside = (x1 >= lo) & (x1 <= hi)
    if body.n == 1:
        return inside
    if body.kind is BodyKind.BALL:
        radial2 = np.einsum("ij,ij->i", lateral, lateral)
        return (x1 - body.axis_offset) ** 2 + radial2 <= body.size**2
    if body.kind is BodyKind.CUBE:
        return inside & (np.abs(lateral).max(axis=1) <= 0.5 * body.size)
    scale = (x1 - body.axis_offset) / body.size  # 0 at apex, 1 at base
    if body.kind is BodyKind.CONE:
        radial2 = np.einsum("ij,ij->i", lateral, lateral)
        return inside & (radial2 <= (body.base * scale) ** 2)
    return inside & (np.abs(lateral).max(axis=1) <= 0.5 * body.base * scale)


def mc_centroid(scene: DilationScene, seed: int, samples: int) -> tuple[float, float]:
    """Hit-or-miss estimate (mean, standard error) of the shell centroid.

    Uniform points are drawn in the bounding box of the larger body with a
    counter-based Philox stream keyed by (seed, block index); results are
    bit-reproducible for a fixed seed regardless of how the fixed-size
    blocks would be scheduled.  Points inside the larger body but outside
    the smaller one belong to the shell; the estimate is the mean of their
    first coordinates.

    Raises DegenerateShell when the acceptance rate drops below 1e-4.
    """
    if scene.lam == 1.0:
        raise LambdaOne("shell is empty at lam = 1")
    if samples < 10**4:
        raise ValueError(f"samples must be >= 1e4, got {samples}")
    body = scene.body
    image = dilate(body, scene.O, scene.lam)
    big, small = (image, body) if scene.lam > 1.0 else (body, image)

    lo, hi = axis_interval(big)
    half = _lateral_halfwidth(big)
    dims = body.n

    accepted = 0
    sum_x = 0.0
    sum_x2 = 0.0
    remaining = samples
    block_index = 0
    while remaining > 0:
        count = min(_MC_BLOCK, remaining)
        rng = np.random.Generator(
            np.random.Philox(key=seed, counter=block_index * _MC_COUNTER_STRIDE)
        )
        u = rng.random((count, dims))
        x1 = lo + (hi - lo) * u[:, 0]
        lateral = (2.0 * half) * u[:, 1:] - half
        hits = _contains_batch(big, x1, lateral) & ~_contains_batch(small, x1, lateral)
        xs = x1[hits]
        accepted += xs.size
        sum_x += float(xs.sum())
        sum_x2 += float((xs * xs).sum())
        remaining -= count
        block_index += 1

    if accepted < 1e-4 * samples:
        raise DegenerateShell(
            f"acceptance rate {accepted / samples:.2e} below 1e-4; "
            "shell too thin for hit-or-miss sampling"
        )
    mean = sum_x / accepted
    variance = max(0.0, (sum_x2 - sum_x * sum_x / accepted) / (accepted - 1))
    return mean, math.sqrt(variance / accepted)
