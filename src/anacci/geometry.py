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
from .errors import _check_positive_int, _real, _validated_make
from .lattice import anacci
from .qkernel import _SUB
from .solver import solve_lambda

if TYPE_CHECKING:  # numpy is imported where Monte Carlo runs, not at start-up
    import numpy as np


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
        size, base = _real(size, "size"), _real(base, "base")
        offset = _real(axis_offset, "axis_offset", ValueError, "a finite double")
        return tuple.__new__(cls, (kind, n, size, base, offset))

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


# A draw is two steps, each filling caller-given views of one workspace, a
# chunk at a time, from the one generator ``rng``, a row at a time: the
# axial step fills u, and the lateral step the lateral value of the points
# it is given, from one uniform per point.  Every step is elementwise and in
# place, so no array is allocated; ``tmp`` is a view either step may
# overwrite.


def _power(out: np.ndarray, a: float) -> None:
    """out**a in place, for uniforms in [0, 1) and a > 0.

    numpy squares and takes square roots exactly; any other power is
    exp(a*log(out)), whose log, product and exp take about 2.2 ns a point
    where ``np.power`` takes 3.3-4.2 ns (Xeon, numpy 2.4).  An exact 0 has
    log -inf and so gives exp(-inf) = 0; the log's divide-by-zero warning
    for it is silenced here.
    """
    import numpy as np

    if a == 2.0 or a == 0.5:
        out **= a
    elif a != 1.0:
        with np.errstate(divide="ignore"):
            np.log(out, out=out)
        out *= a
        np.exp(out, out=out)


def _section_fraction(rng: np.random.Generator, n: int, out: np.ndarray, power: int) -> None:
    """V^(power/(n-1)) into ``out``: the lateral norm, to ``power``, of uniform
    points in an (n-1)-ball or (n-1)-cube section, over the section's bound.

    The law is the same for l2 and l-inf; at n = 1 there is no section, and
    the value goes unread.
    """
    rng.random(out=out)
    _power(out, power / max(n - 1, 1))


def _ball_axial(rng, n: int, u: np.ndarray, keep: np.ndarray, tmp: np.ndarray) -> tuple:
    """u of uniform points in the unit n-ball, with 1 - q kept in ``keep``.

    The first two coordinates lie at squared radius 1 - q, with q = U^(2/n),
    in a uniform direction (Ulrich 1984), and the other n - 2 fill an
    (n-2)-ball of squared radius q; at n = 1, u is uniform on [-1, 1].  The
    direction's cosine has the law of sin(2*theta) for theta uniform on
    [-pi/4, pi/4], which is 2t/(1 + t^2) with t = tan(theta): a tangent of a
    small argument costs a third of a cosine over the whole circle.  So a
    point takes two uniforms at n = 2, as many as a bounding-box draw.
    """
    import numpy as np

    rng.random(out=keep)
    _power(keep, 2.0 / n)
    np.subtract(1.0, keep, out=keep)  # 1 - q
    rng.random(out=u)
    u -= 0.5
    u *= 0.5 * math.pi
    np.tan(u, out=u)
    np.multiply(u, 0.5, out=tmp)
    tmp *= u
    tmp += 0.5
    u /= tmp  # 2t/(1 + t^2)
    np.sqrt(keep, out=tmp)
    u *= tmp
    return u, keep


def _ball_lateral(rng, n: int, out: np.ndarray, tmp: np.ndarray, u, keep) -> None:
    """The squared lateral norm 1 - q - u^2, plus q*W^(2/(n-2)) for the
    other n - 2 coordinates at n > 2, from one uniform W per point."""
    import numpy as np

    if n > 2:
        _section_fraction(rng, n - 1, out, 2)  # W^(2/(n-2))
        np.subtract(1.0, keep, out=tmp)
        out *= tmp
        out += keep  # q*W^(2/(n-2)) on top of 1 - q
        np.multiply(u, u, out=tmp)
        out -= tmp
    else:  # each step reads one row and writes another, as an in-place step does
        np.multiply(u, u, out=out)
        np.subtract(keep, out, out=out)


def _cube_axial(rng, n: int, u: np.ndarray, keep: np.ndarray, tmp: np.ndarray) -> tuple:
    """u = U; the lateral step reads no row of the axial step."""
    rng.random(out=u)
    return ()


def _cube_lateral(rng, n: int, out: np.ndarray, tmp: np.ndarray) -> None:
    """The lateral value V: the l-inf norm of a uniform point of the
    (n-1)-cube section, to the power n - 1, is itself uniform, so it is
    tested against r^(n-1) with no power per point."""
    rng.random(out=out)


def _apex_axial(rng, n: int, u: np.ndarray, keep: np.ndarray, tmp: np.ndarray) -> tuple:
    """u of a cone or pyramid: the axial density n*u^(n-1) is drawn as U^(1/n)."""
    rng.random(out=u)
    _power(u, 1.0 / n)
    return (u,)


def _apex_lateral(rng, n: int, out: np.ndarray, tmp: np.ndarray, u) -> None:
    """The plain lateral norm u*V^(1/(n-1)): the section at u has bound u,
    and the norm of a uniform point of an (n-1)-ball or (n-1)-cube section
    over its bound has the one law V^(1/(n-1)), so both kinds take the same
    points."""
    _section_fraction(rng, n, out, 1)
    out *= u


def _ball_bound(r, d, n):
    """r^2 - d^2, the squared radius of the section at offset d, in place."""
    import numpy as np

    d *= d
    return np.subtract(r * r, d, out=d)


class _Shape(NamedTuple):
    """One body kind as an axis segment times a scaled cross-section.

    With c the axis offset, s the size and u = (x1 - c)/s, the unit body
    (c = 0, s = 1, half-width 1 across its widest section) spans u in
    [axis_start, 1].  A point's lateral value is the norm of its lateral
    part to the kind's power: squared for the ball, to n - 1 for the cube,
    plain for the cone and pyramid, so that no test takes a root or a power
    per point.  The homothetic image at offset c0 and scale r holds the
    points with d = u - c0 in [axis_start*r, r] whose lateral value is at
    most ``section_bound(r, d, n)``: r^2 - d^2 for the ball, which
    overwrites the array d, r^(n-1) for the cube, and d itself for the
    cone and pyramid.  Uniform points of the unit body are drawn from the
    generator ``rng`` in two steps.  ``axial(rng, n, u, keep, tmp)`` fills
    u and returns the rows the lateral step reads: (u, keep) for the ball,
    which keeps 1 - q in ``keep``, (u,) for the cone and pyramid and () for
    the cube.  ``lateral(rng, n, out, tmp, *rows)`` fills ``out`` with the
    lateral values of the points those rows hold, from one uniform per
    point (none for a ball at n <= 2), so it may be given all of a chunk's
    points or any subset of them.
    ``placement(m, n)`` gives the axis offset of the unit body and the
    homothetic center O that make the dilation factor phi(m, n) (see
    representation).
    """

    axis_start: float  # the body spans [c + axis_start*s, c + s]
    centroid_fraction: Callable[[int], float]  # of s, from c
    # (k, L, d): the volume is V_k * L**(n-1) * s / d, with L the size or base
    volume_terms: Callable[[ConvexBody], tuple[int, float, int]]
    section_bound: Callable  # (r, d, n) -> bound on the lateral value at offset d
    axial: Callable  # (rng, n, u, keep, tmp) -> rows the lateral step reads
    lateral: Callable  # (rng, n, out, tmp, *rows): the lateral values into out
    placement: Callable[[int, int], tuple[float, float]]  # (m, n) -> (c, O)


def _apex_placement(m: int, n: int) -> tuple[float, float]:
    """Apex at 0 and O = A - 1/(m(n+1)), so that B = A + m(A - O) = 1."""
    return 0.0, (m * n - 1) / (m * (n + 1))


BodyKind.BALL.shape = _Shape(-1.0, lambda n: 0.0, lambda b: (b.n, b.size, 1), _ball_bound,
                             _ball_axial, _ball_lateral, lambda m, n: (1.0, 0.0))
BodyKind.CUBE.shape = _Shape(0.0, lambda n: 0.5, lambda b: (0, b.size, 1),
                             lambda r, d, n: r ** (n - 1), _cube_axial, _cube_lateral,
                             lambda m, n: (0.0, 0.0))
BodyKind.CONE.shape = _Shape(0.0, lambda n: n / (n + 1), lambda b: (b.n - 1, b.base, b.n),
                             lambda r, d, n: d, _apex_axial, _apex_lateral, _apex_placement)
# the pyramid's l-inf section has the cone's law, so only its volume differs
BodyKind.PYRAMID.shape = BodyKind.CONE.shape._replace(volume_terms=lambda b: (0, b.base, b.n))

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
    n = _real(n, "dimension", ValueError, "finite and >= 0")
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


def _check_inside(body: ConvexBody, O: float) -> float:
    """O as a double, once it lies inside the body's extent."""
    lo, hi = axis_interval(body)
    try:
        if lo <= O <= hi:
            return float(O)
    except ArithmeticError:  # a Decimal NaN fails the comparison itself
        pass
    raise OOutsideBody(f"homothetic center {O!r} outside body extent {(lo, hi)}")


def _centroid_apart_from(body: ConvexBody, O: float) -> tuple[float, float]:
    """O as a double and the centroid A, once O lies inside the body and off A."""
    O = _check_inside(body, O)
    a = centroid(body)
    if O == a:
        raise OEqualsA("homothetic center coincides with the center of mass")
    return O, a


def dilate(body: ConvexBody, O: float, lam: float) -> ConvexBody:
    """Image of the body under x -> O + lam*(x - O) about a center O inside it.

    Raises InputOutOfRange when the image has no doubles: its size or base
    rounds to 0 or past the largest double, or its axis offset overflows.
    """
    lam = _real(lam, "lam")
    O = _check_inside(body, O)
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
        lam = _real(lam, "lam")
        O, _ = _centroid_apart_from(body, O)
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
    (the B(1) limit configuration).  Exactly means p*n = 1 for the double
    p, as solve_lambda decides the hyperbola: the double nearest 1/3 lies
    below one third, so lambda_from_p(3, 1/3) raises PTooSmall, while
    lambda_from_p(3, Fraction(1, 3)) is 1.
    """
    _check_positive_int(n, "dimension n")
    try:
        result = solve_lambda(p, n)
    except ZeroUnderflow:  # a sub-critical zero below the double range
        result = None
    if result is None or result.regime is _SUB:
        raise PTooSmall(f"p = {p!r} <= 1/{n}: no dilation factor places B there")
    return result.value  # exactly 1.0 on the critical p = 1/n


def solve_scene_for_target(body: ConvexBody, O: float, target_b: float) -> DilationScene:
    """Scene whose shell centroid lands exactly on target_b.

    The target must lie strictly beyond the centroid A as seen from O; the
    required factor is lambda_from_p(n, d(A, target)/d(O, A)).  A target
    equal to b_one(body, O) yields the degenerate lam = 1 scene, decided
    before the ratio is formed, since d(A, B(1))/d(O, A) can round below
    1/n; anything closer to A is unreachable for every positive factor.
    """
    O, a = _centroid_apart_from(body, O)
    target_b = _real(target_b, "target_b", InputOutOfRange, "a finite double")
    if target_b == b_one(body, O):
        return DilationScene(body, O, 1.0)
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

    The boundary factors are matched exactly: 1, and 1 + 1/n as assembled
    in floating point, ``1.0 + 1.0/n``, so a factor built that way
    classifies onto its boundary case and any other factor does not.
    """
    lam = scene.lam
    threshold = 1.0 + 1.0 / scene.body.n
    if lam == 1.0:
        return CenterOrdering.UNIT
    if lam < 1.0:
        return CenterOrdering.CONTRACTION
    if lam == threshold:
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
      center, so ``shell_b`` reads 1 to a few ulp of m+1; the image
      centroid (phi + mn - 1)/(m(n+1)) lies in [1/2, 1).  Both kinds have
      the centroid fraction n/(n+1), so a pyramid reads the cone's doubles.

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

# points per pass over the workspace: its five float rows stay in cache.
# The steps fill the workspace a row at a time, so the chunk size also fixes
# which uniforms each point reads
_MC_CHUNK = 1 << 14
# the largest share of a chunk left undecided by the axial test for which the
# lateral step draws those points alone; above it, the whole chunk.  The
# gathered rows must fit the two spare rows: at most five of them for the ball
_MC_GATHER_SHARE = 0.25


def mc_centroid(scene: DilationScene, seed: int, samples: int) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of the shell centroid.

    Uniform points are drawn inside the larger body from one PCG64DXSM
    generator seeded with ``seed``, read in order a chunk of 2^14 points at
    a time: axial rows first, then one lateral uniform per undecided point,
    or a whole row.  The axial rows fill u for every point of the chunk, and
    the test d < axis_start*r or d > r alone puts a point in the shell.
    Where at most a quarter of the chunk is left undecided, their rows are
    gathered into views of the workspace, their lateral values are drawn
    from the next uniforms of the stream, and the verdicts are scattered
    back (Marsaglia's squeeze: the cheap test first).  Otherwise the lateral
    step reads one uniform for every point of the chunk.  A quarter is
    where the cube's one uniform a point costs as much as the gather.  With
    O at the body's low end and lam in {0.5, 1.2, 2}, cones and pyramids at
    n >= 8 leave 0-23% of a chunk undecided and take the first path; balls
    and cubes leave 50-100% and take the second.
    Results are bit-reproducible for a fixed seed; since the rows interleave
    by chunk, the points depend on the chunk size.
    Membership reads only a point's axial coordinate and the norm
    of its lateral part, so only those two are drawn, in the larger body's
    unit frame (see _Shape): u = (x1 - c)/s from the body's axial law (U
    for a cube, U^(1/n) for a cone or pyramid, the first coordinate of a
    uniform point of the n-ball for a ball), and the lateral value, at
    half-width 1, from the law V^(1/(n-1)) of the norm of a uniform point
    in an (n-1)-ball or (n-1)-cube section over its bound.  Fractional
    powers are taken as exp(a*log U).  The cost per point does not grow
    with n.  In that frame the smaller body is the homothetic image with
    axis offset c0 and scale r, which is also its half-width, so a point
    lies in it where d = u - c0 is in [axis_start*r, r] and its lateral
    value within section_bound(r, d, n): no point is divided by r, and
    the cube's value V meets r^(n-1) with no power per point.  Points
    outside the smaller body belong to the shell; the estimate is the mean
    of their first coordinates, scaled back by s once at the end, so no
    coordinate leaves the unit frame.
    Every chunk reuses one small workspace, so no sample-sized array is
    allocated.  A chunk's moments are masked pairwise sums over the whole
    chunk of x = u - shift, zero at rejected points, and of x^2, written
    into a workspace row: no accepted point is copied and no BLAS routine
    is called.  The shift is the first accepted point, so a thin shell far
    from O keeps its digits.  The chunk sums are kept, 8 bytes each, and
    totalled with math.fsum; the mean shift + sum x/N and the squared
    deviations sum x^2 - (sum x)^2/N are formed once, from the two totals,
    so no rounding of a running mean accrues from chunk to chunk.

    ``seed`` must be an int in [0, 2**128) and ``samples`` an int of at
    least 10**4; ValueError otherwise.  Raises DegenerateShell below a 1e-4
    acceptance rate or 2 accepted points.
    """
    from array import array

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
    work = np.empty((5, _MC_CHUNK))  # u, the ball's 1 - q, d and two spare rows
    spare = work[3:].reshape(-1)
    flags = np.empty((2, _MC_CHUNK), dtype=bool)

    rng = np.random.Generator(np.random.PCG64DXSM(seed))
    accepted = 0
    shift = 0.0  # u at the first accepted point
    sums_x, sums_x2 = array("d"), array("d")  # of x and x^2 per chunk
    start = shape.axis_start * r
    for done in range(0, samples, _MC_CHUNK):
        size = min(_MC_CHUNK, samples - done)
        u, keep, scratch, lateral, tmp = work[:, :size]
        shell, flag = flags[:, :size]
        rows = shape.axial(rng, body.n, u, keep, tmp)
        d = np.subtract(u, c0, out=scratch)
        np.less(d, start, out=shell)
        shell |= np.greater(d, r, out=flag)
        undecided = size - int(np.count_nonzero(shell))
        if undecided > _MC_GATHER_SHARE * size:
            index = None
        else:  # gather the undecided points' rows into the spare rows
            index = np.flatnonzero(np.logical_not(shell, out=flag))
            count = 3 + len(rows)
            lateral, tmp, *views = spare[:count * undecided].reshape(count, undecided)
            # "clip": under the default "raise", take fills a copy of out first
            d, *rows = (np.take(row, index, out=view, mode="clip")
                        for row, view in zip((d, *rows), views))
        shape.lateral(rng, body.n, lateral, tmp, *rows)
        if body.n > 1:
            beyond = np.greater(lateral, shape.section_bound(r, d, body.n), out=flag[:d.size])
            if index is None:
                shell |= beyond
            else:
                shell[index] = beyond
        k = int(np.count_nonzero(shell))
        if not k:
            continue
        if not accepted:
            shift = float(u[int(np.argmax(shell))])
        accepted += k
        x = np.subtract(u, shift, out=scratch)
        np.multiply(x, shell, out=x)
        sums_x.append(float(x.sum()))
        x *= x
        sums_x2.append(float(x.sum()))

    if accepted < max(2, 1e-4 * samples):
        raise DegenerateShell(
            f"{accepted} of {samples} points accepted; "
            "shell too thin to estimate its centroid"
        )
    sum_x = math.fsum(sums_x)
    mean = shift + sum_x / accepted
    m2 = math.fsum(sums_x2) - sum_x * sum_x / accepted
    return big.axis_offset + big.size * mean, big.size * math.sqrt(m2 / (accepted - 1) / accepted)
