import argparse
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anacci
from anacci.cli import build_parser, main


@pytest.fixture
def low_digit_limit():
    """The interpreter's integer print limit at its floor, 640 digits, so
    that a payload past it stays small; restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_golden_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--p", "1", "--q", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(
            (1 + math.sqrt(5)) / 2, abs=1e-14
        )
        assert payload["regime"] == "super"

    def test_critical_point(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--p", "1", "--q", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 1.0
        assert payload["regime"] == "critical"

    def test_domain_error_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--p", "0", "--q", "2")
        assert code == 2
        assert "error" in err
        code, _, err = run_cli(capsys, "solve", "--p", "inf", "--q", "2")
        assert code == 2
        assert "finite" in err

    def test_zero_below_the_double_range_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--p", "1e-5", "--q", "0.01")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "below the representable range" in err

    def test_usage_error_exits_two(self, capsys):
        assert run_cli(capsys, "solve", "--p", "1")[0] == 2
        assert run_cli(capsys, "nonsense")[0] == 2


class TestInverseCommand:
    def test_float_mode(self, capsys):
        code, out, _ = run_cli(capsys, "inverse", "--lam", "2", "--q", "2")
        assert code == 0
        assert json.loads(out)["p"] == pytest.approx(4.0 / 3.0)

    def test_exact_mode(self, capsys):
        code, out, _ = run_cli(capsys, "inverse", "--lam", "3", "--n", "3", "--exact")
        assert code == 0
        assert json.loads(out)["p"] == "27/13"

    def test_missing_order_errors(self, capsys):
        assert run_cli(capsys, "inverse", "--lam", "2")[0] == 2

    def test_real_and_integer_order_exclude_each_other(self, capsys):
        # --q used to be dropped in silence
        code, out, err = run_cli(capsys, "inverse", "--lam", "2", "--q", "3", "--n", "2")
        assert code == 2
        assert out == ""
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("lam", ["1/0", "3/0"])
    def test_exact_zero_denominator_exits_two(self, capsys, lam):
        code, out, err = run_cli(capsys, "inverse", "--lam", lam, "--n", "2", "--exact")
        assert code == 2
        assert out == ""
        assert err == f"error: zero denominator in {lam!r}\n"

    def test_exact_rational_target(self, capsys):
        code, out, _ = run_cli(capsys, "inverse", "--lam", "6/4", "--n", "2", "--exact")
        assert code == 0
        payload = json.loads(out)
        assert (payload["lam"], payload["p"]) == ("3/2", "9/10")

    def test_high_order_does_not_overflow(self, capsys):
        code, out, _ = run_cli(capsys, "inverse", "--lam", "2", "--n", "2000")
        assert code == 0
        assert json.loads(out)["p"] == 1.0

    @pytest.mark.parametrize("order", [["--q", "2"], ["--n", "2"]])
    def test_underflowed_weight_exits_two(self, capsys, order):
        code, out, err = run_cli(capsys, "inverse", "--lam", "1e-200", *order)
        assert code == 2
        assert out == ""
        assert "below the smallest positive double" in err

    def test_overflowed_weight_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "inverse", "--lam", "1.7e308", "--q", "0.001")
        assert code == 2
        assert out == ""
        assert "above the largest finite double" in err

    @pytest.mark.parametrize("lam, n, message", [
        ("1e400", "1", "weight for lam=1e400, n=1 is above the largest finite double"),
        ("1e-200", "2", "weight for lam=1e-200, n=2 is below the smallest positive double"),
    ])
    def test_exact_weight_outside_the_doubles_exits_two(self, capsys, lam, n, message):
        code, out, err = run_cli(capsys, "inverse", "--exact", "--lam", lam, "--n", n)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_exact_readme_example(self, capsys):
        code, out, _ = run_cli(capsys, "inverse", "--lam", "2", "--n", "2", "--exact")
        assert code == 0
        assert out == (
            '{\n  "lam": "2",\n  "n": 2,\n  "p": "4/3",\n  "p_float": 1.3333333333333333\n}\n'
        )

    def test_exact_real_order_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "inverse", "--lam", "2", "--q", "2", "--exact")
        assert code == 2
        assert out == ""
        assert err == "error: --exact needs an integer order --n\n"

    def test_exact_weight_too_long_to_print_exits_two(self, capsys, tmp_path, low_digit_limit):
        # at n = 800 the exact weight for 7/3 has a part of more than 640 digits
        path = tmp_path / "p.json"
        code, out, err = run_cli(
            capsys, "inverse", "--lam", "7/3", "--n", "800", "--exact", "--output", str(path)
        )
        assert code == 2
        assert out == ""
        assert not path.exists()
        assert err == "error: p is too long to print: over 640 digits\n"

    def test_order_one_returns_the_target(self, capsys):
        code, out, _ = run_cli(capsys, "inverse", "--lam", "1.7e308", "--n", "1")
        assert code == 0
        assert json.loads(out)["p"] == 1.7e308


class TestRecurrenceCommand:
    def test_exact_terms(self, capsys):
        code, out, _ = run_cli(
            capsys, "recurrence", "--p", "2", "--n", "2", "--count", "6", "--exact"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["terms"] == [0, 1, 2, 6, 16, 44]
        assert payload["ratio"]["value"] == pytest.approx(
            1 + math.sqrt(3), abs=1e-10
        )

    def test_custom_init(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "recurrence", "--p", "1", "--n", "2", "--init", "1,1", "--count", "5",
            "--exact",
        )
        assert code == 0
        assert json.loads(out)["terms"] == [1, 1, 2, 3, 5]

    def test_malformed_init_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "recurrence", "--p", "1", "--n", "2", "--init", "1,zap"
        )
        assert code == 2
        assert "init" in err

    def test_empty_init_list_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "recurrence", "--p", "1", "--n", "2", "--init", ",")
        assert code == 2
        assert out == ""
        assert err == "error: could not parse init list ','\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_exact_term_too_long_to_print_exits_two(self, capsys, low_digit_limit, fmt):
        # Fibonacci term 3065 is the first with more than 640 digits
        code, out, err = run_cli(
            capsys, "recurrence", "--p", "1", "--n", "2", "--exact", "--count", "3100",
            "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert err == "error: term 3065 is too long to print: over 640 digits\n"

    def test_exact_zero_denominator_in_init_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "recurrence", "--p", "1", "--n", "2", "--init", "1/0,1", "--exact"
        )
        assert code == 2
        assert out == ""
        assert err == "error: malformed init entry in '1/0,1': zero denominator in '1/0'\n"

    @pytest.mark.parametrize("flags, message", [
        (("--p", "inf"), "finite and > 0"),
        (("--init", "nan,1"), "init"),
    ])
    def test_non_finite_input_exits_two(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "recurrence", "--n", "2", "--p", "1", *flags)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("flags, term", [
        (("--p", "2.5", "--count", "900"), 601),
        (("--p", "1", "--init", "1e308,1e308", "--count", "3"), 2),
    ])
    def test_overflowing_term_exits_two(self, capsys, flags, term):
        code, out, err = run_cli(capsys, "recurrence", "--n", "2", *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: term {term} of the recurrence lies beyond the double range\n"

    def test_nan_tolerance_exits_two(self, capsys):
        # it used to run the estimate and report "raise the budget", exit 0
        code, out, err = run_cli(
            capsys, "recurrence", "--p", "1", "--n", "2", "--tol", "nan"
        )
        assert code == 2
        assert out == ""
        assert err == "error: tol must be finite and >= 0, got nan\n"

    def test_exact_initial_term_past_the_doubles_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "recurrence", "--p", "1.5", "--n", "2", "--init", "0,1" + "0" * 400
        )
        assert code == 2
        assert out == ""
        assert err == "error: term 1 of the recurrence lies beyond the double range\n"

    def test_exact_weight_past_the_doubles_is_reported(self, capsys):
        # exact terms print; the float estimate names the overflowing weight
        code, out, _ = run_cli(
            capsys, "recurrence", "--p", "1" + "0" * 400, "--n", "2", "--count", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["terms"][:3] == [0, 1, 10**400]
        assert payload["ratio"] == {
            "error": "weight for the order-2 recurrence is above the largest finite double"
        }

    def test_overflowing_ratio_estimate_is_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "recurrence", "--p", "1e300", "--n", "2", "--count", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["terms"] == [0.0, 1.0, 1e300]
        assert "beyond the double range" in payload["ratio"]["error"]


class TestAnacciCommand:
    def test_single_value(self, capsys):
        code, out, _ = run_cli(capsys, "anacci", "--m", "1", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(1.8392867552141612, abs=1e-12)
        assert payload["lower"] == 1.5
        # eq. (37): m+1-1/(m+1) < phi(m, n) < m+1
        for m, n, lower, upper in ((1, 2, 1.5, 2.0), (2, 3, 8.0 / 3.0, 3.0)):
            code, out, _ = run_cli(capsys, "anacci", "--m", str(m), "--n", str(n))
            assert code == 0
            payload = json.loads(out)
            assert (payload["lower"], payload["upper"]) == (lower, upper)
            assert lower < payload["value"] < upper

    def test_sequence_output(self, capsys):
        code, out, _ = run_cli(capsys, "anacci", "--seq", "fixed-m", "--m", "1", "--count", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,value"
        assert len(lines) == 4

    @pytest.mark.parametrize("flags, points", [
        (("--seq", "fixed-n", "--n", "3"), [(1, 3), (2, 3), (3, 3)]),
        (("--seq", "kn", "--k", "2"), [(2, 1), (4, 2), (6, 3)]),
        (("--seq", "km", "--k", "2"), [(1, 2), (2, 4), (3, 6)]),
    ])
    def test_sequence_families(self, capsys, flags, points):
        code, out, _ = run_cli(capsys, "anacci", *flags, "--count", "3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(int(m), int(n)) for m, n, _ in rows] == points
        for (m, n), (_, _, value) in zip(points, rows):
            assert float(value) == anacci.anacci((m, n))

    @pytest.mark.parametrize("seq", ["kn", "km"])
    def test_diagonal_step_below_one_exits_two(self, capsys, seq):
        code, out, err = run_cli(capsys, "anacci", "--seq", seq, "--k", "0")
        assert code == 2
        assert out == ""
        assert err == "error: k must be a positive integer, got 0\n"

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_sequence_count_below_one_exits_two(self, capsys, count):
        code, out, err = run_cli(capsys, "anacci", "--seq", "kn", "--count", count)
        assert code == 2
        assert out == ""
        assert err == f"error: count must be a positive integer, got {count}\n"


class TestSceneCommand:
    def test_explicit_factor(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scene", "--body", "ball", "--n", "2", "--size", "1",
            "--offset", "1", "--center", "0", "--lam", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["points"]["B"] == pytest.approx(7.0 / 3.0)
        assert payload["ordering"] == "O<A<B(1)<L(A)<B"

    def test_target_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scene", "--body", "ball", "--n", "2", "--size", "1",
            "--offset", "1", "--center", "0", "--target", "2",
        )
        assert code == 0
        assert json.loads(out)["lam"] == pytest.approx(
            (1 + math.sqrt(5)) / 2, abs=1e-12
        )

    def test_high_dimension_factor(self, capsys):
        code, out, _ = run_cli(
            capsys, "scene", "--n", "400", "--lam", "10", "--offset", "1"
        )
        assert code == 0
        b = json.loads(out)["points"]["B"]
        assert math.isfinite(b) and b == 10.0

    def test_high_dimension_volume(self, capsys):
        code, out, _ = run_cli(
            capsys, "scene", "--n", "400", "--size", "10", "--offset", "10", "--lam", "2"
        )
        assert code == 0
        assert math.isfinite(json.loads(out)["volume"])
        # 10**400 has no double; it printed as Infinity, which is not JSON
        code, out, err = run_cli(
            capsys, "scene", "--body", "cube", "--n", "400", "--size", "10",
            "--center", "1", "--lam", "2",
        )
        assert code == 2
        assert out == ""
        assert err == "error: the cube's volume lies above the largest double\n"

    def test_non_finite_offset_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "scene", "--n", "2", "--offset", "inf", "--center", "inf", "--lam", "2"
        )
        assert code == 2
        assert "axis_offset" in err

    def test_non_finite_factor_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "scene", "--n", "2", "--offset", "1", "--lam", "inf"
        )
        assert code == 2
        assert "finite" in err

    def test_requires_factor_or_target(self, capsys):
        code, _, err = run_cli(capsys, "scene", "--body", "ball", "--n", "2")
        assert code == 2

    def test_factor_and_target_exclude_each_other(self, capsys):
        # --lam used to be dropped in silence
        code, out, err = run_cli(
            capsys, "scene", "--body", "ball", "--n", "2", "--offset", "1", "--center", "0",
            "--lam", "1.5", "--target", "2",
        )
        assert code == 2
        assert out == ""
        assert "not allowed with argument" in err

    def test_monte_carlo_attachment(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scene", "--body", "cube", "--n", "3", "--size", "1",
            "--offset", "0", "--center", "0", "--lam", "1.5",
            "--mc", "--seed", "7", "--samples", "100000",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["mc_estimate"] - payload["points"]["B"]) <= (
            4.0 * payload["mc_stderr"]
        )

    def test_monte_carlo_seed_out_of_range_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys,
            "scene", "--body", "ball", "--n", "2", "--offset", "1", "--lam", "2",
            "--mc", "--seed", "-1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: seed must be an int in [0, 2**128), got -1\n"

    def test_monte_carlo_image_beyond_the_double_range_exits_two(self, capsys):
        # the dilated ball's radius 1e310 has no double: the error names the
        # image and lam, not a size the user never passed
        code, out, err = run_cli(
            capsys,
            "scene", "--body", "ball", "--n", "2", "--size", "1e10", "--center", "0.5",
            "--lam", "1e300", "--mc", "--samples", "10000",
        )
        assert code == 2
        assert out == ""
        assert err.startswith(
            "error: the ball dilated by lam = 1e+300 lies outside the double range"
        )
        assert "Traceback" not in err


    @pytest.mark.parametrize("body", ["ball", "cone"])
    def test_monte_carlo_on_a_huge_image_prints_strict_json(self, capsys, body):
        # the image's radius 1e200 squared has no double; the estimate is
        # formed in the larger body's unit frame and needs none
        code, out, err = run_cli(
            capsys,
            "scene", "--body", body, "--n", "3", "--center", "0.5", "--lam", "1e200",
            "--mc", "--samples", "10000",
        )
        assert (code, err) == (0, "")

        def reject(constant):
            raise ValueError(f"non-finite {constant} in JSON output")

        payload = json.loads(out, parse_constant=reject)
        assert abs(payload["mc_estimate"] - payload["points"]["B"]) <= (
            4.0 * payload["mc_stderr"]
        )

class TestFigCommand:
    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "fig5.csv"
        code, _, _ = run_cli(capsys, "fig", "--which", "fig5", "--output", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.splitlines()[0] == (
            "m,n,unit_center,unit_radius,dilated_center,dilated_radius,intersection"
        )

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "fig", "--which", "fig2", "--output", str(a))
        run_cli(capsys, "fig", "--which", "fig2", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_default(self, capsys):
        code, out, _ = run_cli(capsys, "fig", "--which", "fig6")
        assert code == 0
        assert out.startswith("quantity,value")

    def test_grid_override(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fig", "--which", "fig1", "--p-steps", "4", "--q-steps", "4",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 16 + 4

    def test_bad_grid_exits_two(self, capsys):
        code, _, _ = run_cli(
            capsys, "fig", "--which", "fig1", "--p-min", "5", "--p-max", "1"
        )
        assert code == 2

    @pytest.mark.parametrize("which, flags, axis", [
        ("fig3", ("--q-max", "1e308"), "q"),
        ("fig1", ("--p-max", "inf"), "p"),
        ("fig3", ("--p-steps", "1" + "0" * 400), "p"),
    ])
    def test_window_beyond_the_doubles_names_its_axis(self, capsys, which, flags, axis):
        # the solver used to name lam or q at the first sample past the doubles
        code, out, err = run_cli(capsys, "fig", "--which", which, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: the {axis} window [")

    @pytest.mark.parametrize("flag", ["--p-steps", "--q-steps"])
    def test_steps_above_the_ceiling_exit_two(self, capsys, flag):
        # 10^8 steps ended in a MemoryError from figures._axis
        code, out, err = run_cli(capsys, "fig", "--which", "fig1", flag, "100000000")
        assert code == 2
        assert out == ""
        assert err == f"error: argument {flag}: must be at most 1_000\n"

    def test_steps_at_the_ceiling_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "fig", "--which", "fig1", "--p-steps", "1000", "--q-steps", "2",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 2000 + 2

    def test_too_few_grid_steps_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "fig", "--which", "fig1", "--p-steps", "1")
        assert code == 2
        assert out == ""
        assert "steps must be >= 2" in err

    def test_window_flags_rejected_for_windowless_figure(self, capsys):
        code, _, err = run_cli(capsys, "fig", "--which", "fig6", "--p-min", "5")
        assert code == 2
        assert "fig6" in err
        assert run_cli(capsys, "fig", "--which", "fig6", "--p-min", "0.5")[0] == 2

    def test_unwritable_path_exits_three(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "fig", "--which", "fig5", "--output", str(tmp_path / "no" / "dir.csv"),
        )
        assert code == 3


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "appendices", "--m-max", "8", "--n-max", "4",
        )
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_bounds_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "bounds", "--m-max", "6", "--n-max", "4"
        )
        assert code == 0
        assert "bounds.crossover_equivalence" in out

    def test_geometry_suite_runs_to_n_max(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "geometry", "--n-max", "10", "--samples", "10000"
        )
        assert code == 0
        (line,) = [row for row in out.splitlines() if "apex_centroid_ratio" in row]
        assert "checks=10" in line  # a cone for each n <= 10

    def test_geometry_suite_past_the_power_overflow(self, capsys):
        # 3.0**647 is past the largest double; the lever identity compares
        # where the power is at most 1
        code, out, err = run_cli(
            capsys, "verify", "--suite", "geometry", "--n-max", "700", "--samples", "10000"
        )
        assert code == 0
        assert "Traceback" not in err
        assert "FAIL" not in out


    def test_sizes_below_two_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "monotone", "--m-max", "0")
        assert code == 2
        assert "m_max" in err
        code, _, err = run_cli(capsys, "verify", "--suite", "bounds", "--m-max", "3", "--n-max", "1")
        assert code == 2
        assert "n_max" in err


class TestSizeCeilings:
    # (command, "{}" where the value goes; the flag; its ceiling as printed)
    SIZES = [
        ("recurrence --p 1 --n 2 --count {}", "--count", "100_000"),
        ("recurrence --p 1 --n {}", "--n", "10_000"),
        ("inverse --lam 2 --n {}", "--n", "100_000"),
        ("anacci --seq kn --count {}", "--count", "100_000"),
        ("scene --n 3 --lam 2 --mc --samples {}", "--samples", "1_000_000_000"),
        ("verify --suite bounds --m-max {}", "--m-max", "10_000"),
        ("verify --suite bounds --n-max {}", "--n-max", "10_000"),
        ("verify --suite geometry --samples {}", "--samples", "1_000_000_000"),
    ]

    @pytest.mark.parametrize("shape, flag, ceiling", SIZES)
    @pytest.mark.parametrize("excess", [1, 10**400])
    def test_size_past_its_ceiling_exits_two(self, capsys, shape, flag, ceiling, excess):
        # a count of 10**400 raised MemoryError or OverflowError, and an
        # m-max of 10**400 ran without end
        value = int(ceiling) + excess
        code, out, err = run_cli(capsys, *shape.replace("{}", str(value)).split())
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == f"error: argument {flag}: must be at most {ceiling}"

    @pytest.mark.parametrize("shape, flag, ceiling", SIZES)
    def test_help_states_the_ceiling(self, capsys, shape, flag, ceiling):
        command = shape.split()[0]
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())  # unwrapped
        assert f"at most {ceiling}" in text

    @pytest.mark.parametrize("shape, flag", [
        ("inverse --lam {} --n 2", "--lam"),
        ("inverse --lam {} --n 2 --exact", "--lam"),
        ("recurrence --p {} --n 2", "--p"),
        ("recurrence --p {} --n 2 --exact", "--p"),
        ("recurrence --p 1 --n 2 --init {},1", "--init"),
        ("recurrence --p 1 --n 2 --init {},1 --exact", "--init"),
        ("recurrence --p 1 --n 2 --count {}", "--count"),
    ])
    def test_literal_past_the_digit_limit_names_its_flag(self, capsys, low_digit_limit, shape, flag):
        # the message named the interpreter setting that lifts the limit, or
        # read the literal as the float inf
        code, out, err = run_cli(capsys, *shape.replace("{}", "1" + "0" * 700).split())
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == (
            f"error: argument {flag}: over 640 digits, the limit for reading an integer"
        )


# literals that no value flag may turn into a traceback or into JSON's
# NaN/Infinity; the last is past int()'s default digit limit
_ODD_LITERALS = ("1/0", "3/0", "nan", "inf", "1e309", "-1", "0", "", "0x10", "1_000", "1" * 5000)

# one command per value flag, "{}" where the literal goes
_LITERAL_SHAPES = [
    "inverse --lam {} --q 2",
    "inverse --lam {} --n 2",
    "inverse --lam {} --n 2 --exact",
    "inverse --lam 2 --q {}",
    "inverse --lam 2 --n {}",
    "inverse --lam 3/7 --n {} --exact",
    "recurrence --p {} --n 2",
    "recurrence --p {} --n 2 --exact",
    "recurrence --p 1 --n 2 --init {},1",
    "recurrence --p 1 --n 2 --init {},1 --exact",
    "recurrence --p 1 --n 2 --tol {}",
    "recurrence --p 1 --n 2 --tol {} --exact",
    *(f"scene --body cone --n 3 {flag} {{}} --lam 1.5"
      for flag in ("--size", "--base", "--offset", "--center")),
    "scene --body ball --n 2 --offset 1 --lam {}",
    "scene --body ball --n 2 --offset 1 --target {}",
    *(f"fig --which {which} --p-steps 3 --q-steps 3 {flag} {{}}"
      for which in ("fig1", "fig3") for flag in ("--p-min", "--p-max", "--q-min", "--q-max")),
]


def _no_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("shape", _LITERAL_SHAPES)
def test_no_literal_raises(capsys, shape):
    for literal in _ODD_LITERALS:
        argv = [word.replace("{}", literal) for word in shape.split()]
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2), (literal[:16], err)
        if code == 2:
            assert out == ""
        elif not shape.startswith("fig"):
            json.loads(out, parse_constant=_no_constant)


def _fresh_python(script):
    """Run ``script`` in a new interpreter that imports this checkout's anacci."""
    source = str(Path(anacci.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


def _choices(command, dest):
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return next(
        action.choices for action in subparsers.choices[command]._actions
        if action.dest == dest
    )


# a footprint script prints [exit code, the anacci modules loaded, whether
# numpy is loaded, which of dataclasses and fractions are loaded]
_FOOTPRINT_HEAD = "import json, sys\n"
_FOOTPRINT_TAIL = (
    "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'anacci')\n"
    "stdlib = [m for m in ('dataclasses', 'fractions') if m in sys.modules]\n"
    "print(json.dumps([code, loaded, 'numpy' in sys.modules, stdlib]))\n"
)

_SOLVE = {"anacci.qkernel", "anacci.solver"}
_LATTICE = _SOLVE | {"anacci.lattice"}
_GEOMETRY = _LATTICE | {"anacci.geometry"}

# case -> (argv, or None for a bare ``import anacci``; the anacci submodules
# loaded besides anacci.cli and anacci.errors; whether numpy is loaded)
FOOTPRINTS = {
    "import": (None, set(), False),
    "help": (["--help"], set(), False),
    "solve": (["solve", "--p", "1", "--q", "2"], _SOLVE, False),
    "inverse": (["inverse", "--lam", "2", "--n", "2", "--exact"], _SOLVE, False),
    "recurrence": (["recurrence", "--p", "1", "--n", "3", "--count", "12"],
                   {"anacci.recurrence"}, False),
    # CSV reaches figures.render_csv, and through it no solver
    "recurrence-csv": (["recurrence", "--p", "1", "--n", "3", "--count", "5", "--format", "csv"],
                       {"anacci.recurrence", "anacci.figures"}, False),
    "anacci": (["anacci", "--m", "2", "--n", "2"], _LATTICE, False),
    # a sequence prints CSV through figures.render_csv
    "anacci-seq": (["anacci", "--seq", "kn", "--k", "1", "--count", "6"],
                   _LATTICE | {"anacci.figures"}, False),
    "scene": (["scene", "--body", "ball", "--n", "2", "--offset", "1", "--target", "2"],
              _GEOMETRY, False),
    "scene-mc": (["scene", "--body", "cube", "--n", "3", "--lam", "1.5", "--mc",
                  "--samples", "10000"], _GEOMETRY, True),
    "fig1": (["fig", "--which", "fig1", "--p-steps", "3", "--q-steps", "3"],
             _SOLVE | {"anacci.figures"}, False),
    "fig5": (["fig", "--which", "fig5"], _GEOMETRY | {"anacci.figures"}, False),
    "verify-bounds": (["verify", "--suite", "bounds", "--m-max", "2", "--n-max", "2"],
                      _GEOMETRY | {"anacci.verify"}, False),
    "verify-geometry": (["verify", "--suite", "geometry", "--m-max", "2", "--n-max", "2",
                         "--samples", "10000"], _GEOMETRY | {"anacci.verify"}, True),
}

# case -> the standard modules it loads only where a bare interpreter does:
# no module of the package imports dataclasses, since every record type is
# a named tuple, and only the handlers that use fractions import it
_UNUSED_STDLIB = {
    case: {"dataclasses", "fractions"} if case in ("import", "help") else {"dataclasses"}
    for case in FOOTPRINTS
}


@functools.cache
def _bare_stdlib():
    """Which of dataclasses and fractions an interpreter loads without anacci."""
    bare = _fresh_python(_FOOTPRINT_HEAD + "code = 0\n" + _FOOTPRINT_TAIL)
    return set(json.loads(bare.stdout.splitlines()[-1])[3])


class TestColdStart:
    def test_numpy_is_imported_only_for_monte_carlo(self):
        script = (
            "import sys\n"
            "import anacci.cli\n"
            "assert 'numpy' not in sys.modules, 'after import'\n"
            "code = anacci.cli.main(['solve', '--p', '1', '--q', '2'])\n"
            "assert code == 0, code\n"
            "assert 'numpy' not in sys.modules, 'after solve'\n"
        )
        done = _fresh_python(script)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("case", list(FOOTPRINTS))
    def test_each_command_imports_only_its_layers(self, case):
        argv, layers, numpy = FOOTPRINTS[case]
        if argv is None:
            script, expected = "import anacci\ncode = 0\n", {"anacci"}
        else:
            script = f"import anacci.cli\ncode = anacci.cli.main({argv!r})\n"
            expected = {"anacci", "anacci.cli", "anacci.errors", *layers}
        done = _fresh_python(_FOOTPRINT_HEAD + script + _FOOTPRINT_TAIL)
        assert done.returncode == 0, done.stderr
        code, loaded, numpy_loaded, stdlib = json.loads(done.stdout.splitlines()[-1])
        assert code == 0, done.stderr
        assert set(loaded) == expected
        assert numpy_loaded is numpy
        assert set(stdlib) & _UNUSED_STDLIB[case] <= _bare_stdlib()

    def test_literal_choices_match_their_tables(self):
        # the parser spells these out so that it imports none of the tables
        from anacci import figures, verify
        from anacci.geometry import BodyKind

        assert list(_choices("scene", "body")) == [kind.value for kind in BodyKind]
        assert list(_choices("fig", "which")) == sorted(figures.FIGURES)
        assert list(_choices("verify", "suite")) == [*verify.SUITES, "all"]

    def test_verify_size_defaults_match_run_suite(self):
        # the parser spells out run_suite's defaults so that --help imports no verify
        import inspect

        from anacci import verify

        args = build_parser().parse_args(["verify"])
        defaults = {
            name: param.default
            for name, param in inspect.signature(verify.run_suite).parameters.items()
            if param.default is not inspect.Parameter.empty
        }
        assert sorted(defaults) == ["m_max", "n_max", "samples", "seed"]
        assert {name: getattr(args, name) for name in defaults} == defaults
