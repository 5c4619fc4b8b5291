import json
import math

import pytest

from anacci.cli import main


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


class TestAnacciCommand:
    def test_single_value(self, capsys):
        code, out, _ = run_cli(capsys, "anacci", "--m", "1", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(1.8392867552141612, abs=1e-12)
        assert payload["lower"] == 1.5

    def test_sequence_output(self, capsys):
        code, out, _ = run_cli(capsys, "anacci", "--seq", "fixed-m", "--m", "1", "--count", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,value"
        assert len(lines) == 4


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

    def test_non_finite_factor_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "scene", "--n", "2", "--offset", "1", "--lam", "inf"
        )
        assert code == 2
        assert "finite" in err

    def test_requires_factor_or_target(self, capsys):
        code, _, err = run_cli(capsys, "scene", "--body", "ball", "--n", "2")
        assert code == 2

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
