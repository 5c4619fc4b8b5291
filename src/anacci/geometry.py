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
import sys
from collections.abc import Callable
from enum import Enum
from operator import imul, ipow
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    DegenerateShell,
    InputOutOfRange,
    LambdaOne,
    OEqualsA,
    OOutsideBody,
    PTooSmall,
    TargetUnreachable,
    ZeroUnderflow,
)
from .errors import _check_nonnegative, _check_positive, _check_positive_int, _validated_make
from .lattice import anacci
from .qkernel import RegionClass
from .solver import solve_lambda

if TYPE_CHECKING:  # numpy is imported where Monte Carlo runs, not at start-up
    import numpy as np

# absolute slack when matching a dilation factor against a case boundary
_BOUNDARY_TOL = 1e-12


class BodyKind(Enum):
    """A body kind; each member carries its ``_Shape`` as ``shape``, set once
    the shapes are built, so a lookup does not hash the member."""

    BALL = "ball"
    CUBE = "cube"
    CONE = "cone"
    PYRAMID = "pyramid"


def _check_kind(kind) -> None:
    if not isinstance(kind, BodyKind):
        raise ValueError(f"kind must be a BodyKind, got {kind!r}")


class _BodyFields(NamedTuple):
    kind: BodyKind
    n: int
    size: float
    base: float
    axis_offset: float


class ConvexBody(_BodyFields):
    """A compact convex body positioned on the first coordinate axis.

    ``size`` is the ball radius, cube side, or cone/pyramid height.
    ``base`` is the cone's base (n-1)-ball radius or the pyramid's base
    (n-1)-cube side; unused for balls and cubes.  ``axis_offset`` places
    the reference point on e1: the ball center, the cube's near-face
    center, or the cone/pyramid apex (the body extends toward +e1).
    """

    __slots__ = ()

    def __new__(cls, kind: BodyKind, n: int, size: float, base: float = 1.0,
                axis_offset: float = 0.0):
        _check_kind(kind)
        _check_positive_int(n, "dimension n")
        _check_positive(size=size, base=base)
        if not math.isfinite(axis_offset):
            raise ValueError(f"axis_offset must be finite, got {axis_offset!r}")
        return tuple.__new__(cls, (kind, n, size, base, axis_offset))

    _make = classmethod(_validated_make)


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


# The draws fill caller-given views of one workspace, a chunk of a block at a
# time: ``streams[k]`` continues the block's k-th uniform stream (see
# _BlockStreams), and every step is elementwise and in place, so a point
# does not depend on the chunk size and no array is allocated.  ``scratch``
# holds two more views the draw may overwrite.


def _section_fraction(stream: np.random.Generator, n: int, out: np.ndarray, power: int) -> None:
    """V^(power/(n-1)) into ``out``: the lateral norm, to ``power``, of uniform
    points in an (n-1)-ball or (n-1)-cube section, over the section's bound.

    The law is the same for l2 and l-inf; at n = 1 there is no section, and
    the value goes unread.
    """
    stream.random(out=out)
    out **= power / max(n - 1, 1)


def _ball_draw(streams, n: int, u: np.ndarray, lateral: np.ndarray, scratch) -> None:
    """u and squared lateral norm of uniform points in the unit n-ball.

    The first two coordinates lie at squared radius 1 - q, with q = U^(2/n),
    in a uniform direction (Ulrich 1984), and the other n - 2 fill an
    (n-2)-ball of squared radius q; at n = 1, u is uniform on [-1, 1].  The
    direction's cosine has the law of sin(2*theta) for theta uniform on
    [-pi/4, pi/4], which is 2t/(1 + t^2) with t = tan(theta): a tangent of a
    small argument costs a third of a cosine over the whole circle.  So a
    point takes two uniforms at n = 2, as many as a bounding-box draw.
    """
    import numpy as np

    tmp, rest = scratch
    streams[0].random(out=lateral)
    lateral **= 2.0 / n
    np.subtract(1.0, lateral, out=lateral)  # 1 - q
    streams[1].random(out=u)
    u -= 0.5
    u *= 0.5 * math.pi
    np.tan(u, out=u)
    np.multiply(u, 0.5, out=tmp)
    tmp *= u
    tmp += 0.5
    u /= tmp  # 2t/(1 + t^2)
    np.sqrt(lateral, out=tmp)
    u *= tmp
    if n > 2:
        _section_fraction(streams[2], n - 1, tmp, 2)  # W^(2/(n-2))
        np.subtract(1.0, lateral, out=rest)
        rest *= tmp
        lateral += rest  # q*W^(2/(n-2)) on top of 1 - q
    np.multiply(u, u, out=tmp)
    lateral -= tmp


def _cube_draw(streams, n: int, u: np.ndarray, lateral: np.ndarray, scratch) -> None:
    streams[0].random(out=u)
    _section_fraction(streams[1], n, lateral, 1)


def _apex_draw(power: int) -> Callable:
    """The draw of a cone (power 2) or pyramid (power 1): the axial density
    n*u^(n-1) is drawn as U^(1/n), and the section at u has bound u^power."""

    def draw(streams, n, u, lateral, scratch):
        import numpy as np

        streams[0].random(out=u)
        u **= 1.0 / n
        _section_fraction(streams[1], n, lateral, power)
        bound = scratch[0]
        np.copyto(bound, u)
        bound **= power
        lateral *= bound

    return draw


def _ball_bound(w, u):
    """w^2 (1 - u^2), as -w^2 (u^2 - 1): the same rounding, in place."""
    u *= u
    u -= 1.0
    u *= -w * w
    return u


class _Shape(NamedTuple):
    """One body kind as an axis segment times a scaled cross-section.

    With c the axis offset, s the size and u = (x1 - c)/s, the section at u
    of a body of half-width w (across its widest section) holds the lateral
    points whose norm, squared for the l2 norm, so membership takes no
    square root, and plain for the l-inf norm, is at most section_bound(w, u).
    section_bound overwrites the array u with the bound.
    ``draw(streams, n, u, lateral, scratch)`` fills u and that power of the
    lateral norm, in units of the half-width, for uniform points of the body
    with c = 0 and s = 1.
    ``placement(m, n)`` gives the axis offset of the unit body and the
    homothetic center O that make the dilation factor phi(m, n) (see
    representation).
    """

    axis_start: float  # the body spans [c + axis_start*s, c + s]
    centroid_fraction: Callable[[int], float]  # of s, from c
    # (k, L, d): the volume is V_k * L**(n-1) * s / d, with L the size or base
    volume_terms: Callable[[ConvexBody], tuple[int, float, int]]
    section_bound: Callable  # (w, u) -> bound on the lateral norm of the section at u
    draw: Callable  # (streams, n, u, lateral, scratch): u and lateral norm at w = 1
    placement: Callable[[int, int], tuple[float, float]]  # (m, n) -> (c, O)


def _apex_placement(m: int, n: int) -> tuple[float, float]:
    """Apex at 0 and O = A - 1/(m(n+1)), so that B = A + m(A - O) = 1."""
    return 0.0, (m * n - 1) / (m * (n + 1))


BodyKind.BALL.shape = _Shape(-1.0, lambda n: 0.0, lambda b: (b.n, b.size, 1), _ball_bound,
                             _ball_draw, lambda m, n: (1.0, 0.0))
BodyKind.CUBE.shape = _Shape(0.0, lambda n: 0.5, lambda b: (0, b.size, 1), lambda w, u: w,
                             _cube_draw, lambda m, n: (0.0, 0.0))
BodyKind.CONE.shape = _Shape(0.0, lambda n: n / (n + 1), lambda b: (b.n - 1, b.base, b.n),
                             lambda w, u: ipow(imul(u, w), 2), _apex_draw(2), _apex_placement)
BodyKind.PYRAMID.shape = _Shape(0.0, lambda n: n / (n + 1), lambda b: (0, b.base, b.n),
                                lambda w, u: imul(u, w), _apex_draw(1), _apex_placement)

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def axis_interval(body: ConvexBody) -> tuple[float, float]:
    """The closed extent of the body along e1."""
    lo = body.axis_offset + body.kind.shape.axis_start * body.size
    return lo, body.axis_offset + body.size


def centroid(body: ConvexBody) -> float:
    """First coordinate of the center of mass.

    Symmetric bodies split their axis 1:1 (ball center; cube mid-side);
    cones and pyramids split apex-to-base as n:1, i.e. the centroid sits at
    n/(n+1) of the height from the apex.
    """
    return body.axis_offset + body.size * body.kind.shape.centroid_fraction(body.n)


def unit_ball_volume(n: int) -> float:
    """Volume pi^(n/2)/Gamma(n/2+1) of the unit n-ball (1 at n = 0)."""
    _check_nonnegative(n, "dimension")
    try:
        return math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    except OverflowError:  # Gamma overflows from n = 342 on; the ratio does not
        return math.exp(_log_unit_ball_volume(n))


def _log_unit_ball_volume(n: int) -> float:
    return n / 2 * math.log(math.pi) - math.lgamma(n / 2 + 1)


def volume(body: ConvexBody) -> float:
    """n-volume of the body; +inf once it exceeds the double range."""
    k, length, d = body.kind.shape.volume_terms(body)
    try:
        return unit_ball_volume(k) * length ** (body.n - 1) * body.size / d
    except OverflowError:  # the power overflowed; the volume may not
        log_volume = _log_unit_ball_volume(k) - math.log(d)
        log_volume += (body.n - 1) * math.log(length) + math.log(body.size)
        return math.exp(log_volume) if log_volume <= _LOG_FLOAT_MAX else math.inf


def _check_inside(body: ConvexBody, O: float) -> None:
    lo, hi = axis_interval(body)
    if not lo <= O <= hi:
        raise OOutsideBody(f"homothetic center {O!r} outside body extent {(lo, hi)}")


def _centroid_apart_from(body: ConvexBody, O: float) -> float:
    """The centroid A, once O is known to lie inside the body and off A."""
    _check_inside(body, O)
    a = centroid(body)
    if O == a:
        raise OEqualsA("homothetic center coincides with the center of mass")
    return a


def dilate(body: ConvexBody, O: float, lam: float) -> ConvexBody:
    """Image of the body under x -> O + lam*(x - O) about a center O inside it.

    Raises InputOutOfRange when the image has no doubles: its size or base
    rounds to 0 or past the largest double, or its axis offset overflows.
    """
    _check_positive(lam=lam)
    _check_inside(body, O)
    size, base, offset = lam * body.size, lam * body.base, O + lam * (body.axis_offset - O)
    if not (0.0 < size < math.inf and 0.0 < base < math.inf and math.isfinite(offset)):
        raise InputOutOfRange(
            f"the {body.kind.value} dilated by lam = {lam!r} lies outside the double range "
            f"(size {size!r}, base {base!r}, axis offset {offset!r})"
        )
    return ConvexBody(body.kind, body.n, size, base, offset)


class _SceneFields(NamedTuple):
    body: ConvexBody
    O: float
    lam: float


class DilationScene(_SceneFields):
    """A body together with a homothetic center O inside it and a factor lam.

    O must differ from the body's center of mass (the construction needs a
    direction along which to order the derived centers).
    """

    __slots__ = ()

    def __new__(cls, body: ConvexBody, O: float, lam: float):
        _check_positive(lam=lam)
        _centroid_apart_from(body, O)
        return tuple.__new__(cls, (body, O, lam))

    _make = classmethod(_validated_make)


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


def _points(scene: DilationScene) -> tuple[float, float, float, float]:
    """A, L(A), B(1) and B of a checked scene, each formed once; B = B(1) at
    lam = 1.  Every reading of a scene goes through here, so none redoes the
    constructor's checks."""
    body, O, lam = scene
    a = body.axis_offset + body.size * body.kind.shape.centroid_fraction(body.n)
    image_a = O + lam * (a - O)
    limit_b = a + (a - O) / body.n
    if lam == 1.0:
        return a, image_a, limit_b, limit_b
    try:
        denom = math.expm1(body.n * math.log(lam))
    except OverflowError:
        denom = math.inf
    return a, image_a, limit_b, image_a + (image_a - a) / denom


def shell_centroid(scene: DilationScene) -> float:
    """Center of mass of the shell between the body and its dilation.

    The lever balance d(L(A), B)*lam^n = d(A, B), with forces proportional
    to the two volumes, gives B = L(A) + (L(A) - A)/(lam^n - 1) for the
    shell image-minus-body (lam > 1) and body-minus-image (lam < 1) alike.
    The denominator comes from expm1(n*log(lam)), and is +inf once lam^n
    overflows, where B = L(A).  Undefined at lam = 1 (see b_one).
    """
    if scene.lam == 1.0:
        raise LambdaOne("shell is empty at lam = 1; use b_one for the limit")
    return _points(scene)[3]


def b_one(body: ConvexBody, O: float) -> float:
    """Limit of the shell centroid as lam -> 1: the point A + (A - O)/n.

    Lies beyond the centroid A, away from O, at 1/n of the O-to-A distance;
    for a cone or pyramid dilated about its apex this is exactly the
    centroid of the base face.
    """
    return _points(DilationScene(body, O, 1.0))[2]


def lambda_from_p(n: int, p: float) -> float:
    """Dilation factor realizing distance ratio p = d(A, B)/d(O, A) in
    dimension n: the ratio-limit value at (p, n).

    Needs p > 1/n for a factor above 1; at p = 1/n exactly the factor is 1
    (the B(1) limit configuration).
    """
    _check_positive_int(n, "dimension n")
    try:
        result = solve_lambda(p, n)
    except ZeroUnderflow:  # a sub-critical zero below the double range
        result = None
    if result is None or result.regime is RegionClass.SUB:
        raise PTooSmall(f"p = {p!r} <= 1/{n}: no dilation factor places B there")
    return result.value  # exactly 1.0 on the critical p = 1/n


def solve_scene_for_target(body: ConvexBody, O: float, target_b: float) -> DilationScene:
    """Scene whose shell centroid lands exactly on target_b.

    The target must lie strictly beyond the centroid A as seen from O; the
    required factor is lambda_from_p(n, d(A, target)/d(O, A)).  A target at
    exactly the B(1) point yields the degenerate lam = 1 scene; anything
    closer to A is unreachable for every positive factor.
    """
    a = _centroid_apart_from(body, O)
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
    a, image_a, limit_b, b = _points(scene)
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


class Representation(NamedTuple):
    """A unit body realizing one lattice constant phi(m, n) as a dilation
    factor.

    Each kind places its body and homothetic center O so that the shell
    centroid is required at B = A + m(A - O); by lambda_from_p the factor
    is then phi(m, n).  ``image_centroid`` is the dilated centroid L(A) and
    ``image_interval`` the image's extent on the axis.  The readings:

    - ball: center 1, O = 0, B = m+1; the image has center and radius
      phi(m, n) and crosses the axis at 2*phi(m, n), inside [2m, 2(m+1));
    - cube: near face 0, O = 0, B = (m+1)/2; the image's far face is
      phi(m, n), inside [m, m+1);
    - cone and pyramid: apex 0, O = (mn - 1)/(m(n+1)), B = 1, the base
      center; the image centroid (phi + mn - 1)/(m(n+1)) lies in [1/2, 1).

    The (1, 1) corner degenerates to the lam = 1 limit, with B = B(1) and a
    point shell.
    """

    m: int
    n: int
    scene: DilationScene
    lam: float
    shell_b: float
    image_centroid: float
    image_interval: tuple[float, float]


def representation(kind: BodyKind, m: int, n: int) -> Representation:
    """The unit body of ``kind`` whose dilation factor is phi(m, n)."""
    _check_kind(kind)  # before its shape is read
    lam = anacci((m, n))  # checks m and n before a placement divides by them
    shape = kind.shape
    offset, O = shape.placement(m, n)
    scene = DilationScene(ConvexBody(kind, n, 1.0, 1.0, offset), O, lam)
    _, image_a, _, b = _points(scene)
    image_offset = O + lam * (offset - O)  # the unit body's image has size lam
    return Representation(m, n, scene, lam, b, image_a,
                          (image_offset + shape.axis_start * lam, image_offset + lam))


# ---------------------------------------------------------------------------
# Monte Carlo shell-centroid oracle

_MC_BLOCK = 1 << 16
# points per pass over the workspace: its four float rows stay in cache
_MC_CHUNK = 1 << 14


class _BlockStreams(dict):
    """The draw streams of one ``mc_centroid`` call, placed block by block.

    Every stream is a stretch of the one PCG64DXSM stream seeded with
    ``seed``, one draw per uniform.  After ``start(block, count)``, stream k
    holds the draws of the block's k-th ``random(count)`` call: it starts at
    draw block*2^64 + k*count, so blocks never overlap however many draws
    one consumes.  Each stream is placed at its first draw on first use by
    PCG's O(log n) ``advance``, so the block can be drawn one chunk at a
    time.  One generator per stream index serves the whole call and is
    moved to each block from its opening state.
    """

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed
        self.generators: dict[int, tuple[np.random.Generator, dict]] = {}

    def start(self, block: int, count: int) -> None:
        self.clear()
        self.first = block << 64
        self.count = count

    def __missing__(self, k: int) -> np.random.Generator:
        import numpy as np

        if k not in self.generators:
            stream = np.random.Generator(np.random.PCG64DXSM(self.seed))
            self.generators[k] = stream, stream.bit_generator.state
        stream, opening = self.generators[k]
        stream.bit_generator.state = opening
        stream.bit_generator.advance(self.first + k * self.count)
        self[k] = stream
        return stream


def mc_centroid(scene: DilationScene, seed: int, samples: int) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of the shell centroid.

    Uniform points are drawn inside the larger body from a PCG64DXSM stream
    seeded with ``seed``, each fixed-size block from its own stretch of it,
    reached by ``advance`` (see _BlockStreams); results are bit-reproducible
    for a fixed seed regardless of how the blocks would be scheduled or
    chunked.  Membership reads only a point's axial coordinate and the norm
    of its lateral part, so only those two are drawn, in the larger body's
    unit frame (see _Shape): u = (x1 - c)/s from the body's axial law (U
    for a cube, U^(1/n) for a cone or pyramid, the first coordinate of a
    uniform point of the n-ball for a ball), and the norm, at half-width 1,
    as bound(u) * V^(1/(n-1)), the law of a uniform point in an (n-1)-ball
    or (n-1)-cube section.  The cost per point does not grow with n.  In
    that frame the smaller body is the homothetic image with axis offset c0
    and scale r, which is also its half-width, so a point lies in it where
    u' = (u - c0)/r is in [axis_start, 1] and its lateral norm within
    section_bound(r, u').  Points outside the smaller body belong to the
    shell; the estimate is the mean of their first coordinates, scaled
    back by s once at the end, so no coordinate leaves the unit frame.
    Each block is drawn and tested in chunks that reuse one small
    workspace, so no block-sized array is allocated.  Chunk moments are
    taken relative to O and merged as in Chan, Golub & LeVeque (1979), so
    offsets far from 0 keep the stderr.

    ``seed`` must be an int in [0, 2**128) and ``samples`` an int of at
    least 10**4; ValueError otherwise.  Raises DegenerateShell below a 1e-4
    acceptance rate or 2 accepted points.
    """
    import numpy as np

    if not isinstance(seed, int) or not 0 <= seed < 2**128:
        raise ValueError(f"seed must be an int in [0, 2**128), got {seed!r}")
    if not isinstance(samples, int) or samples < 10**4:
        raise ValueError(f"samples must be an int >= 10**4, got {samples!r}")
    if scene.lam == 1.0:
        raise LambdaOne("shell is empty at lam = 1")
    body = scene.body
    image = dilate(body, scene.O, scene.lam)
    big, small = (image, body) if scene.lam > 1.0 else (body, image)

    shape = big.kind.shape
    c0 = (small.axis_offset - big.axis_offset) / big.size
    r = small.size / big.size
    o_u = (scene.O - big.axis_offset) / big.size
    work = np.empty((4, _MC_CHUNK))  # u, lateral norm and two scratch rows
    flags = np.empty((2, _MC_CHUNK), dtype=bool)

    streams = _BlockStreams(seed)
    accepted = 0
    mean = 0.0  # of u - o_u over the accepted points
    m2 = 0.0  # their sum of squared deviations from the mean
    # a section bound overflows, or turns nan, only where u' lies far outside
    # [axis_start, 1], and the axial test has already put such points in the shell
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, samples, _MC_BLOCK):
            count = min(_MC_BLOCK, samples - first)
            streams.start(first // _MC_BLOCK, count)
            for done in range(0, count, _MC_CHUNK):
                size = min(_MC_CHUNK, count - done)
                u, lateral, scratch, rest = work[:, :size]
                inside, flag = flags[:, :size]
                shape.draw(streams, body.n, u, lateral, (scratch, rest))
                np.subtract(u, c0, out=scratch)
                scratch /= r  # u'
                np.greater_equal(scratch, shape.axis_start, out=inside)
                inside &= np.less_equal(scratch, 1.0, out=flag)
                if body.n > 1:
                    inside &= np.less_equal(lateral, shape.section_bound(r, scratch), out=flag)
                shell = np.logical_not(inside, out=inside)
                k = int(np.count_nonzero(shell))
                if not k:
                    continue
                us = np.compress(shell, u, out=scratch[:k])
                us -= o_u
                chunk_mean = float(us.mean())
                us -= chunk_mean
                total = accepted + k
                delta = chunk_mean - mean
                mean += delta * k / total
                m2 += float(us @ us) + delta * delta * accepted * k / total
                accepted = total

    if accepted < max(2, 1e-4 * samples):
        raise DegenerateShell(
            f"{accepted} of {samples} points accepted; "
            "shell too thin to estimate its centroid"
        )
    return scene.O + big.size * mean, big.size * math.sqrt(m2 / (accepted - 1) / accepted)
