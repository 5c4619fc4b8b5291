"""Record one point of the benchmark trajectory as BENCH_<short-sha>.json.

Runs ``perfbench/run.py --workload all --seed N --seconds 25`` of a git
checkout twice: with ``--trace 0`` for the end-to-end metrics and with
``--trace 1`` for the per-layer ones.  Each run's first JSON line (the
environment) and last (the metrics) are kept, together with the Python and
numpy versions, nproc, the git revision and whether the tree was dirty.
The file is written at the root of the repository that holds this script.
``--seed N`` (default 1) is passed to every run and stored in the file, and
a seed other than 1 adds ``_seed<N>`` to the file name.

    python3 tools/bench_record.py                   # measures this checkout
    python3 tools/bench_record.py --checkout DIR    # measures the clone in DIR
    python3 tools/bench_record.py --seed 2          # BENCH_<short-sha>_seed2.json

With ``--against DIR`` it measures a change instead: ``--pairs N``
alternating pairs of end-to-end runs of ``--workload NAME`` (default
``all``), the clone in DIR and the checkout in turn, the first of each pair
alternating between them.  For every metric it stores each side's median
and quartiles, every run's value, and in how many pairs the checkout was
better, by the direction BENCHMARK.json gives, in
BENCH_<short-sha>_vs_<short-sha of DIR>_<workload>.json.

    python3 tools/bench_record.py --against ../parent --pairs 10 --workload mc-oracle

The two runs take about four minutes on a 2-vCPU host, and a pair of one
workload about a minute.  Compare points only from the same host: the file
records nproc and the versions, not the CPU model or the load.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 25


def _git(checkout: Path, *args: str) -> str:
    done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                          check=True)
    return done.stdout.strip()


def _run(checkout: Path, trace: int, seed: int, workload: str = "all") -> dict:
    """The environment line and the metrics line of one benchmark run."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command[1:])} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    return {"environment": json.loads(lines[0]), "result": json.loads(lines[-1])}


def _source(checkout: Path) -> dict:
    return {"revision": _git(checkout, "rev-parse", "HEAD"),
            "dirty": bool(_git(checkout, "status", "--porcelain"))}


def _spread(values: list) -> dict:
    """Median and quartiles, by the inclusive method, of one side's runs."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _directions() -> dict:
    """metric name -> "lower" or "higher", from BENCHMARK.json's end-to-end list."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["better"] for metric in declared["end_to_end"]}


def _path(name: str, seed: int) -> Path:
    """BENCH_<name>.json at the root, with _seed<N> before .json for a seed other than 1."""
    return ROOT / f"BENCH_{name}{'' if seed == 1 else f'_seed{seed}'}.json"


def record_point(checkout: Path, seed: int) -> Path:
    source = _source(checkout)
    end_to_end = _run(checkout, 0, seed)
    per_layer = _run(checkout, 1, seed)
    env = end_to_end["environment"]["environment"]
    record = {
        **source,
        "seed": seed,
        "seconds": SECONDS,
        "python": env["python"],
        "numpy": env["numpy"],
        "nproc": env["nproc"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    path = _path(source["revision"][:7], seed)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path


def record_pairs(checkout: Path, against: Path, pairs: int, workload: str, seed: int) -> Path:
    sides = {"before": against, "after": checkout}
    runs = {side: [] for side in sides}
    for pair in range(pairs):
        order = ("before", "after") if pair % 2 == 0 else ("after", "before")
        for side in order:
            runs[side].append(_run(sides[side], 0, seed, workload))
            print(f"pair {pair + 1}/{pairs}: {side} done", file=sys.stderr, flush=True)
    directions = _directions()
    metrics = {}
    for key, first in runs["after"][0]["result"]["metrics"].items():
        values = {side: [run["result"]["metrics"][key]["value"] for run in runs[side]]
                  for side in sides}
        better = directions[key.rsplit("/", 1)[-1]]
        wins = sum(after < before if better == "lower" else after > before
                   for before, after in zip(values["before"], values["after"]))
        metrics[key] = {
            "unit": first["unit"],
            "better": better,
            "before": {**_spread(values["before"]), "runs": values["before"]},
            "after": {**_spread(values["after"]), "runs": values["after"]},
            "after_better_pairs": wins,
        }
    env = runs["after"][0]["environment"]["environment"]
    record = {
        "workload": workload,
        "pairs": pairs,
        "seed": seed,
        "seconds": SECONDS,
        "python": env["python"],
        "numpy": env["numpy"],
        "nproc": env["nproc"],
        "before": {**_source(against),
                   "correct": [run["result"]["correct"] for run in runs["before"]]},
        "after": {**_source(checkout),
                  "correct": [run["result"]["correct"] for run in runs["after"]]},
        "metrics": metrics,
    }
    name = f"{record['after']['revision'][:7]}_vs_{record['before']['revision'][:7]}"
    path = _path(f"{name}_{workload}", seed)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="git checkout to measure (default: this one)")
    parser.add_argument("--against", type=Path,
                        help="git checkout to compare with, in alternating pairs of runs")
    parser.add_argument("--pairs", type=int,
                        help="pairs of runs with --against (default: 10)")
    parser.add_argument("--workload",
                        help="workload the pairs run (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of every benchmark run (default: 1)")
    args = parser.parse_args(argv)
    if args.against is None:
        if args.pairs is not None or args.workload is not None:
            parser.error("--pairs and --workload need --against")
        path = record_point(args.checkout.resolve(), args.seed)
    else:
        pairs = 10 if args.pairs is None else args.pairs
        if pairs < 1:
            parser.error("--pairs must be at least 1")
        path = record_pairs(args.checkout.resolve(), args.against.resolve(), pairs,
                            args.workload or "all", args.seed)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
