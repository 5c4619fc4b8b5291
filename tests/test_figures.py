import hashlib
import math

import numpy as np
import pytest

from anacci.figures import (
    DEFAULT_GRIDS,
    FIGURES,
    GridSpec,
    emit,
    fig1,
    fig2,
    fig3,
    fig5,
    format_value,
    render_csv,
)
from anacci.qkernel import q_value
from anacci.solver import solve_lambda


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 10, 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 1, 0.0, 1.0, 10)

    def test_a_window_beyond_the_doubles_names_its_axis(self):
        # (hi - lo) * i overflows in _axis; the solver named lam or q instead
        with pytest.raises(ValueError, match=r"the q window \[0.0, 1e\+308\] in 42 steps"):
            GridSpec(0.0, 3.0, 61, 0.0, 1e308, 42)
        with pytest.raises(ValueError, match="the p window"):
            GridSpec(0.0, math.inf, 60, 0.0, 4.0, 60)
        with pytest.raises(ValueError, match="the p window"):
            GridSpec(-math.inf, 0.0, 60, 0.0, 4.0, 60)
        with pytest.raises(ValueError, match="the p window"):
            GridSpec(0.0, 1.0, 10**400, 0.0, 4.0, 60)  # raised OverflowError in _axis
        with pytest.raises(ValueError, match="p_min must be < p_max"):
            GridSpec(math.nan, 1.0, 60, 0.0, 4.0, 60)
        with pytest.raises(ValueError, match="q_min must be < q_max"):
            GridSpec(0.0, 1.0, 60, 0.0, math.nan, 60)
        for grid in DEFAULT_GRIDS.values():
            assert GridSpec(*grid) == grid

    def test_axis_sampling(self):
        grid = GridSpec(0.0, 1.0, 5, 0.0, 2.0, 4)
        assert grid.p_values() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert grid.q_values(closed=False) == [0.5, 1.0, 1.5, 2.0]

    def test_replace_checks_as_the_constructor_does(self):
        grid = GridSpec(0.0, 1.0, 5, 0.0, 2.0, 4)
        with pytest.raises(ValueError, match="steps"):
            grid._replace(p_steps=1)
        assert grid._replace(q_steps=3).q_values() == [0.0, 1.0, 2.0]

    def test_is_immutable(self):
        grid = GridSpec(0.0, 1.0, 5, 0.0, 2.0, 4)
        with pytest.raises(AttributeError):
            grid.colour = "red"
        with pytest.raises(AttributeError):
            grid.p_steps = 2


class TestFormatting:
    def test_seventeen_significant_digits(self):
        assert format_value(1.0 / 3.0) == "0.33333333333333331"
        assert format_value(2.0) == "2"
        assert format_value(7) == "7"
        assert float(format_value(math.pi)) == math.pi  # lossless round-trip

    def test_render_csv_shape(self):
        text = render_csv(("a", "b"), [(1, 2.5), (3, 4.0)])
        assert text == "a,b\n1,2.5\n3,4\n"

    @staticmethod
    def per_cell_join(header, rows):
        lines = [",".join(header)]
        lines.extend(",".join(format_value(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("which", sorted(FIGURES))
    def test_figure_csv_is_the_per_cell_join(self, which):
        header, rows = FIGURES[which]()
        assert render_csv(header, rows) == self.per_cell_join(header, rows)

    def test_mixed_rows_are_the_per_cell_join(self):
        class Tenth(float):  # a float subclass whose str is not its "%.17g"
            def __str__(self):
                return "tenth"

        nan = math.nan
        rows = [
            (1, 2.5, "x"),
            ("x", 1, 2.5),
            (True, -0.0, math.inf, nan, 1e-320, 10**30),
            [3, 1.0 / 3.0, "list row"],
            (),
            ("a,b", 7),
            (2.0,),
            # equal dict keys with other texts: the zeros, the nans, the
            # float subclasses
            (-0.0, 0.0, -0.0, 0.0),
            (nan, -float("nan"), nan),
            (np.float64(0.1), 0.1, Tenth(0.1), 0.1, Tenth(0.5)),
        ]
        header = ("a", "b", "c")
        text = render_csv(header, rows)
        assert text == self.per_cell_join(header, rows)
        lines = text.splitlines()
        assert lines[3] == "True,-0,inf,nan,9.9998886718268301e-321," + "1" + "0" * 30
        assert lines[8:] == [
            "-0,0,-0,0",
            "nan,nan,nan",
            "0.10000000000000001,0.10000000000000001,0.10000000000000001,"
            "0.10000000000000001,0.5",
        ]


class TestEmitters:
    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            emit("fig4")

    @pytest.mark.parametrize("which", sorted(FIGURES))
    def test_byte_stable(self, which):
        assert emit(which) == emit(which)

    # ids name the figure alone, so a re-recorded digest keeps the test's name
    @pytest.mark.parametrize("which, digest", [
        # fig5's (1, 4) row holds the correctly rounded tetranacci constant
        # 1.9275619754829254, from the lattice's gap
        pytest.param("fig5", "e4ada8a839af49a00b5baa289e28eb0776d40d4acfae0fd986ed1510ff44d23e",
                     id="fig5"),
        pytest.param("fig6", "ec4b6a8896d4bce45cad40df24d3a2513a1122888e15f729f59a8cd701017f3c",
                     id="fig6"),
        pytest.param("fig7", "0fc7affd15335f9432c1804390e72963aa2f0f5aa0ec867ed2302cd191fd2f1b",
                     id="fig7"),
    ])
    def test_geometry_figures_keep_their_bytes(self, which, digest):
        # fig5 and fig6 read from representation, fig7 from scene_points;
        # a moved bit in any of their doubles changes a digest
        assert hashlib.sha256(emit(which).encode()).hexdigest() == digest

    def test_fig1_surface_matches_kernel(self):
        header, rows = fig1(GridSpec(0.0, 2.0, 8, 0.0, 4.0, 8))
        assert header == ("series", "lam", "q", "value")
        surface = [r for r in rows if r[0] == "surface"]
        assert len(surface) == 64
        for _, lam, q, value in surface:
            assert value == q_value(lam, 1.0, q)
        curve = [r for r in rows if r[0] == "zero_curve"]
        assert len(curve) == 8
        for _, lam, q, residual in curve:
            assert abs(residual) < 1e-9
            assert lam == pytest.approx(solve_lambda(1.0, q).value)

    def test_fig2_unit_weight_curve(self):
        header, rows = fig2()
        unit = [r for r in rows if r[0] == "curve_a=1"]
        assert unit
        assert unit[0][2] == 1.0 and unit[0][3] == 1.0  # starts at (q=1, lam=1)
        assert all(r[3] < 2.0 for r in unit)  # stays below the asymptote

    def test_fig2_has_seven_weight_curves_and_crossover(self):
        _, rows = fig2()
        series = {r[0] for r in rows}
        assert sum(1 for s in series if s.startswith("curve_a=")) == 7
        assert "crossover" in series
        cross = [r for r in rows if r[0] == "crossover"]
        for _, p, q, _ in cross:
            assert q == pytest.approx((p + 1.0) ** 2 - 1.0, rel=1e-12)

    def test_fig3_level_curve_one_is_the_hyperbola(self):
        _, rows = fig3()
        level_one = [r for r in rows if r[0] == "level_c=1"]
        assert level_one
        for _, p, q, c in level_one:
            assert c == 1.0
            assert abs(p * q - 1.0) <= 1e-10

    def test_fig3_surface_boundary_and_plane(self):
        _, rows = fig3(GridSpec(0.0, 3.0, 7, 0.0, 4.1, 6))
        surface = [r for r in rows if r[0] == "surface"]
        for _, p, q, value in surface:
            if p == 0.0 or q == 0.0:
                assert value == 0.0
            else:
                assert 0.0 < value < p + 1.0 + 1e-12
        plane = [r for r in rows if r[0] == "plane"]
        assert all(value == p + 1.0 for _, p, _, value in plane)

    def test_fig5_rows(self):
        header, rows = fig5()
        assert len(rows) == 15  # m <= 3, n <= 5
        by_key = {(m, n): row for m, n, *row in rows}
        unit_center, unit_radius, center, radius, crossing = by_key[(1, 2)]
        assert (unit_center, unit_radius) == (1.0, 1.0)
        phi = solve_lambda(1, 2).value
        assert center == pytest.approx(phi, abs=1e-14)
        assert radius == pytest.approx(phi, abs=1e-14)
        assert crossing == pytest.approx(2 * phi, abs=1e-13)
        for (m, n), row in by_key.items():
            assert 2 * m - 1e-12 <= row[-1] < 2 * (m + 1)

    def test_fig6_and_fig7_quantities(self):
        text6 = emit("fig6")
        assert text6.startswith("quantity,value\n")
        entries = dict(
            line.split(",") for line in text6.strip().splitlines()[1:]
        )
        assert float(entries["lam"]) == pytest.approx(
            solve_lambda(1, 2).value, abs=1e-14
        )
        assert float(entries["shell_b"]) == pytest.approx(1.0, abs=1e-12)
        text7 = emit("fig7")
        entries7 = dict(
            line.split(",") for line in text7.strip().splitlines()[1:]
        )
        assert float(entries7["lam"]) == 1.2
        assert float(entries7["b_one"]) == pytest.approx(1.0, abs=1e-14)

    def test_csv_uses_lf_only(self):
        text = emit("fig5")
        assert "\r" not in text
        assert text.endswith("\n")
