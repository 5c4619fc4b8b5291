"""The lazy ``anacci`` namespace: each public name resolves, on first read, to
the attribute of its home submodule, and is never stored in the package."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anacci
from anacci import solver

# the public names of the package, by home submodule
HOMES = {
    "errors": (
        "AllZeroInit AnacciError CriticalRegime DegenerateShell InputOutOfRange LambdaOne "
        "NoConvergence NonPositiveInput OEqualsA OOutsideBody OrderOne PTooSmall "
        "TargetUnreachable TermOverflow WeightOverflow WeightUnderflow ZeroUnderflow"
    ),
    "geometry": (
        "BodyKind CenterOrdering ConvexBody DilationScene Representation "
        "axis_interval b_one ball center_ordering centroid cone "
        "cube dilate lambda_from_p mc_centroid pyramid "
        "representation scene_points shell_centroid solve_scene_for_target "
        "unit_ball_volume volume"
    ),
    "lattice": (
        "anacci scaled_seq_A scaled_seq_B seq_diagonal seq_fixed_m seq_fixed_n"
    ),
    "qkernel": "RegionClass classify dq_value eval_P lambda_min q_value",
    "recurrence": "RatioEstimate RecurrenceSpec canonical_init generate ratio_limit",
    "solver": (
        "AnacciConstant bound_crossover dlambda_dp dlambda_dq "
        "inverse_p inverse_p_integer lower_bound_basic lower_bound_refined solve_lambda"
    ),
}
NAMES = {name: home for home, names in HOMES.items() for name in names.split()}


def test_all_lists_every_public_name():
    assert sorted(anacci.__all__) == sorted(NAMES)
    assert set(anacci.__all__) <= set(dir(anacci))


def test_each_name_is_the_attribute_of_its_home():
    wrong = [
        name for name, home in NAMES.items()
        if getattr(anacci, name) is not getattr(importlib.import_module(f"anacci.{home}"), name)
    ]
    assert not wrong


def test_star_import_binds_every_name():
    namespace = {}
    exec("from anacci import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


def test_a_name_rebound_at_home_shows_through(monkeypatch):
    original = solver.solve_lambda
    anacci.solve_lambda  # a read stores nothing in the package
    assert "solve_lambda" not in vars(anacci)
    monkeypatch.setattr(solver, "solve_lambda", len)
    assert anacci.solve_lambda is len
    monkeypatch.undo()
    assert anacci.solve_lambda is original


@pytest.mark.parametrize("name", ["no_such_name", "compare", "horadam_check"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=repr(name)):
        getattr(anacci, name)
    assert not hasattr(anacci, name)


def test_submodules_resolve_after_a_bare_import():
    source = str(Path(anacci.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    script = (
        "import anacci\n"
        f"for home in {sorted(HOMES)!r}:\n"
        "    assert getattr(anacci, home).__name__ == 'anacci.' + home, home\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
