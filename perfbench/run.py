"""Benchmark of the anacci library: four closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of solve-stream, reproduce, mc-oracle, cli-cold, or ``all``.
With ``--trace 0`` the last line of output is one JSON object with every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric from
a traced run.  The lines before it record the environment and the details
(tail percentile and sample count, failure causes).  See README.md.

The benchmark measures the sources in ``src/`` of the checkout that holds
it, and exits non-zero without a result when they are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import spans
import workloads
from workloads import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up is measured in this many separate processes and the median reported
SETUP_RUNS = 5
# every process the benchmark starts must end within this many seconds of
# its start, so that a run ends within 180 s
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_tail_us": "us",
    "ok_frac": "frac",
    "max_err_ulp": "ulp",
    "time_to_accuracy_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for layer in spans.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "solver.errors": "count",
        "solver.iters_mean": "count",
        "solver.iters_max": "count",
        "lattice.hit_ratio": "frac",
        "recurrence.terms": "count",
        "figures.rows": "count",
        "verify.checks": "count",
        "verify.failed_families": "count",
        "geometry.mc_samples_per_s": "1/s",
        "geometry.mc_degenerate": "count",
        "geometry.accept_ratio_computed": "frac",
        "cli.bare_interp_s": "s",
        "cli.startup_s": "s",
        "cli.import_s.numpy": "s",
        "cli.import_s.anacci": "s",
        "trace.overhead_frac": "frac",
    })
    for figure in spans.FIGURE_NAMES:
        units[f"figures.emit_s.{figure}"] = "s"
    for suite in spans.SUITE_NAMES:
        units[f"verify.suite_s.{suite}"] = "s"
    return units


PER_LAYER_UNITS = per_layer_units()


class BenchError(Exception):
    """The benchmark could not produce a result."""


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": workloads.THREAD_ENV,
    }


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"the run exceeded {BUDGET_S:g} s")
    return left


def run_worker(env: dict, deadline: float, name: str, seed: int, seconds: float,
               trace: int, setup_only: bool = False) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", name,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} worker did not end within {BUDGET_S:g} s") from None
    if done.returncode != 0:
        raise BenchError(f"{name} worker exited {done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{name} worker printed nothing: {done.stderr.strip()}")
    return json.loads(lines[-1])


def run_workload(env: dict, deadline: float, name: str, seed: int, seconds: float,
                 trace: int) -> dict:
    result = run_worker(env, deadline, name, seed, seconds, trace)
    metrics = dict(result["metrics"])
    if trace:
        units = PER_LAYER_UNITS
    else:
        setups = [result["setup_s"]]
        setups += [run_worker(env, deadline, name, seed, seconds, 0, setup_only=True)["setup_s"]
                   for _ in range(SETUP_RUNS - 1)]
        metrics["setup_s"] = median(setups)
        result["info"]["setup_runs_s"] = setups
        units = END_TO_END_UNITS
    if set(metrics) != set(units):
        raise BenchError(f"{name} metrics {sorted(set(metrics) ^ set(units))} do not match")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
        "info": result["info"],
    }


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.  The
    probe then times the CPU that runs the ops, CLI children included."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def prepare(root: Path, work: str, deadline: float) -> dict:
    """Child environment, after compiling the library once so that the
    first measured import does not also write bytecode."""
    if not (root / "src" / "anacci" / "__init__.py").is_file():
        raise BenchError(f"no anacci sources under {root / 'src'}")
    env = workloads.child_env(root)
    env["PERFBENCH_WORK"] = work
    try:
        done = subprocess.run([sys.executable, "-c", "import anacci.cli"], env=env,
                              capture_output=True, text=True, timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("importing anacci did not end in time") from None
    if done.returncode != 0:
        raise BenchError(f"cannot import anacci: {done.stderr.strip()}")
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    deadline = time.monotonic() + BUDGET_S * len(names)
    pin_to_one_cpu()
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        env = prepare(ROOT, work, deadline)
        results = {}
        for name in names:
            results[name] = run_workload(env, deadline, name, args.seed, args.seconds,
                                         args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"environment": environment(), "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    for name, result in results.items():
        print(json.dumps({"workload": name, "info": result.pop("info")}))
        for key, metric in result["metrics"].items():
            print(f"{name:12s} {key:32s} {metric['value']:>16.6g} {metric['unit']}")
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": metric for name, r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
