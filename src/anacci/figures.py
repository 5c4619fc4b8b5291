"""Plot-ready CSV data for the kernel surface, the ratio-limit curves, and
the dilation constructions.

Each emitter returns (header, rows) with a fixed column and row order;
floats are rendered with 17 significant digits so repeated runs are
byte-identical and doubles round-trip losslessly.  No plotting happens
here — the CSV is the deliverable.  Each emitter imports the layers it
draws on, the solver and kernel (fig1-fig3) or geometry (fig5-fig7), so
``render_csv`` loads neither.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import _validated_make


class _GridFields(NamedTuple):
    p_min: float
    p_max: float
    p_steps: int
    q_min: float
    q_max: float
    q_steps: int


class GridSpec(_GridFields):
    """Sampling window for grid emitters."""

    __slots__ = ()

    def __new__(cls, p_min: float, p_max: float, p_steps: int,
                q_min: float, q_max: float, q_steps: int):
        for axis, lo, hi, steps in (("p", p_min, p_max, p_steps), ("q", q_min, q_max, q_steps)):
            if not lo < hi:
                raise ValueError(f"{axis}_min must be < {axis}_max, got {lo}, {hi}")
            try:
                span = (hi - lo) * steps  # _axis forms (hi - lo) * i for i up to steps
            except OverflowError:  # a step count past the doubles
                span = math.inf
            if not math.isfinite(span):
                raise ValueError(
                    f"the {axis} window [{lo}, {hi}] in {steps} steps lies beyond the doubles"
                )
        if p_steps < 2 or q_steps < 2:
            raise ValueError("steps must be >= 2")
        return tuple.__new__(cls, (p_min, p_max, p_steps, q_min, q_max, q_steps))

    _make = classmethod(_validated_make)

    def p_values(self, closed: bool = True) -> list[float]:
        return _axis(self.p_min, self.p_max, self.p_steps, closed)

    def q_values(self, closed: bool = True) -> list[float]:
        return _axis(self.q_min, self.q_max, self.q_steps, closed)


def _axis(lo: float, hi: float, steps: int, closed: bool) -> list[float]:
    """Evenly spaced samples; closed includes lo, open starts one step in."""
    if closed:
        return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    return [lo + (hi - lo) * (i + 1) / steps for i in range(steps)]


def format_value(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def render_csv(header, rows) -> str:
    """CSV text of the header and rows; each cell reads as format_value
    renders it.

    A float, or a float subclass such as np.float64, is "%.17g" and any
    other cell its str, so an int past the interpreter's digit limit raises
    ValueError here.  Each distinct nonzero float is formatted once per
    call; a zero is formatted each time, since 0.0 and -0.0 are one dict
    key with two texts, and a nan matches only its own object.
    """
    lines = [",".join(header)]
    texts = {}
    get = texts.get
    for row in rows:
        cells = []
        for x in row:
            if type(x) is float and x:
                text = get(x)
                if text is None:
                    text = texts[x] = "%.17g" % x
            elif isinstance(x, float):
                text = "%.17g" % x
            else:
                text = str(x)
            cells.append(text)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


DEFAULT_GRIDS = {
    "fig1": GridSpec(0.0, 2.0, 60, 0.0, 4.0, 60),
    "fig2": GridSpec(0.0, 3.0, 60, 1.0, 4.0, 61),
    "fig3": GridSpec(0.0, 3.0, 61, 0.0, 4.1, 42),
}  # fig5-fig7 have no sampling window


def fig1(grid: GridSpec | None = None):
    """Kernel surface Q(lam, 1, q) over (0, 2] x (0, 4] plus its zero curve.

    The p-window of the grid spans lam here.  Surface rows come first (q
    outer, lam inner), then one zero-curve row per q giving the second
    zero of Q(., 1, q); at q = 1 that zero merges with the plane lam = 1.
    """
    from .qkernel import q_value
    from .solver import solve_lambda

    grid = grid or DEFAULT_GRIDS["fig1"]
    header = ("series", "lam", "q", "value")
    rows = []
    lams = grid.p_values(closed=False)
    qs = grid.q_values(closed=False)
    for q in qs:
        for lam in lams:
            rows.append(("surface", lam, q, q_value(lam, 1.0, q)))
    for q in qs:
        root = solve_lambda(1.0, q).value
        rows.append(("zero_curve", root, q, q_value(root, 1.0, q)))
    return header, rows


_FIG2_WEIGHTS = tuple(k / 3 for k in range(2, 9))  # 2/3, 1, ..., 8/3


def fig2(grid: GridSpec | None = None):
    """Ratio-limit curves lam(a, q) for seven weights over q in [1, 4],
    plus the crossover curve q = (p+1)^2 - 1 along which the two lower
    bounds exchange sharpness."""
    from .solver import solve_lambda

    grid = grid or DEFAULT_GRIDS["fig2"]
    header = ("series", "p", "q", "lam")
    rows = []
    qs = grid.q_values()
    for a in _FIG2_WEIGHTS:
        for q in qs:
            rows.append((f"curve_a={a:.17g}", a, q, solve_lambda(a, q).value))
    for q in qs:
        p = math.sqrt(q + 1.0) - 1.0  # inverse of the crossover map
        rows.append(("crossover", p, q, solve_lambda(p, q).value))
    return header, rows


_FIG3_LEVELS = tuple(k / 2 for k in range(1, 9))  # 0.5, 1, ..., 4


def fig3(grid: GridSpec | None = None):
    """Ratio-limit surface over [0, 3] x [0, 4.1], 0 on the axes by
    continuity, with its level curves and the asymptotic plane p + 1.

    Level-curve rows trace p(c, q) for each level c, clipped to the p
    window; the c = 1 trace is exactly the hyperbola p*q = 1.
    """
    from .solver import inverse_p, solve_lambda

    grid = grid or DEFAULT_GRIDS["fig3"]
    header = ("series", "p", "q", "value")
    rows = []
    ps = grid.p_values()
    qs = grid.q_values()
    for q in qs:
        for p in ps:
            value = 0.0 if p == 0.0 or q == 0.0 else solve_lambda(p, q).value
            rows.append(("surface", p, q, value))
    for c in _FIG3_LEVELS:
        for q in qs:
            if q == 0.0:
                continue
            p = inverse_p(c, q)
            if 0.0 < p <= grid.p_max:
                rows.append((f"level_c={c:.17g}", p, q, c))
    for q in qs:
        for p in ps:
            rows.append(("plane", p, q, p + 1.0))
    return header, rows


def fig5(grid: GridSpec | None = None):
    """Unit-ball representation data for m <= 3, n <= 5: unit and dilated
    sphere parameters and the doubled constants where the dilated spheres
    cross the first axis."""
    from .geometry import BodyKind, representation

    header = (
        "m",
        "n",
        "unit_center",
        "unit_radius",
        "dilated_center",
        "dilated_radius",
        "intersection",
    )
    rows = []
    for m in range(1, 4):
        for n in range(1, 6):
            rep = representation(BodyKind.BALL, m, n)
            rows.append(
                (m, n, 1.0, 1.0, rep.image_centroid, rep.lam, rep.image_interval[1])
            )
    return header, rows


def fig6(grid: GridSpec | None = None):
    """The unit-height cone scene realizing the golden ratio (m=1, n=2)."""
    from .geometry import BodyKind, representation, scene_points

    rep = representation(BodyKind.CONE, 1, 2)
    points = scene_points(rep.scene)
    header = ("quantity", "value")
    rows = [
        ("m", 1),
        ("n", 2),
        ("lam", rep.lam),
        ("O", points["O"]),
        ("A", points["A"]),
        ("image_centroid", rep.image_centroid),
        ("shell_b", rep.shell_b),
        ("height_left", rep.image_interval[0]),
        ("height_right", rep.image_interval[1]),
    ]
    return header, rows


def fig7(grid: GridSpec | None = None):
    """A 2-cone dilated about its apex with factor 1.2: the shell stays
    convex and its centroid tracks the base-face centroid."""
    from .geometry import DilationScene, cone, scene_points

    scene = DilationScene(cone(2, 1.0, apex=0.0), 0.0, 1.2)
    points = scene_points(scene)
    header = ("quantity", "value")
    rows = [
        ("n", 2),
        ("lam", scene.lam),
        ("O", points["O"]),
        ("A", points["A"]),
        ("image_centroid", points["LA"]),
        ("shell_b", points["B"]),
        ("b_one", points["B1"]),
    ]
    return header, rows


FIGURES = {
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
}


def emit(which: str, grid: GridSpec | None = None) -> str:
    """Render one figure's data as a CSV string."""
    try:
        emitter = FIGURES[which]
    except KeyError:
        raise ValueError(
            f"unknown figure {which!r}; choose from {sorted(FIGURES)}"
        ) from None
    header, rows = emitter(grid)
    return render_csv(header, rows)
