import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


@pytest.fixture
def recorder(tmp_path, monkeypatch):
    """tools/bench_record.py writing into tmp_path, with subprocess.run
    logging each command it is given and answering as git and
    perfbench/run.py would."""
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "BENCHMARK.json").write_text((module.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(module, "ROOT", tmp_path)
    commands = []

    def run(command, cwd, capture_output, text, check=False):
        commands.append(command)
        if command[0] == "git":
            out = "0123456789abcdef" if command[1] == "rev-parse" else ""
        else:
            environment = {"environment": {"python": "3.11.7", "numpy": "2.4", "nproc": 2}}
            metrics = {"mc-oracle/op_p50_us": {"unit": "us", "value": 1600.0}}
            out = f"{json.dumps(environment)}\n{json.dumps({'correct': True, 'metrics': metrics})}\n"
        return subprocess.CompletedProcess(command, 0, out, "")

    monkeypatch.setattr(subprocess, "run", run)
    return module, commands, tmp_path


def seeds(commands):
    """The --seed argument of each perfbench/run.py command."""
    return [command[command.index("--seed") + 1] for command in commands
            if "perfbench/run.py" in command]


def test_pairs_pass_the_seed_to_every_run(recorder):
    module, commands, root = recorder
    assert module.main(["--against", str(root), "--pairs", "2", "--workload", "mc-oracle",
                        "--seed", "2"]) == 0
    assert seeds(commands) == ["2"] * 4
    (path,) = root.glob("BENCH_*")
    assert path.name == "BENCH_0123456_vs_0123456_mc-oracle_seed2.json"
    record = json.loads(path.read_text())
    assert record["seed"] == 2
    assert record["metrics"]["mc-oracle/op_p50_us"]["before"]["runs"] == [1600.0] * 2


def test_the_default_seed_is_one_and_adds_no_suffix(recorder):
    module, commands, root = recorder
    assert module.main([]) == 0
    assert seeds(commands) == ["1"] * 2
    (path,) = root.glob("BENCH_*")
    assert path.name == "BENCH_0123456.json"
    assert json.loads(path.read_text())["seed"] == 1
