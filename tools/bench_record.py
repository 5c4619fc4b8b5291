"""Record one point of the benchmark trajectory as BENCH_<short-sha>.json.

Runs ``perfbench/run.py --workload all --seed 1 --seconds 25`` of a git
checkout twice: with ``--trace 0`` for the end-to-end metrics and with
``--trace 1`` for the per-layer ones.  Each run's first JSON line (the
environment) and last (the metrics) are kept, together with the Python and
numpy versions, nproc, the git revision and whether the tree was dirty.
The file is written at the root of the repository that holds this script.

    python3 tools/bench_record.py                   # measures this checkout
    python3 tools/bench_record.py --checkout DIR    # measures the clone in DIR

The two runs take about four minutes on a 2-vCPU host.  Compare points
only from the same host: the file records nproc and the versions, not the
CPU model or the load.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
SECONDS = 25


def _git(checkout: Path, *args: str) -> str:
    done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                          check=True)
    return done.stdout.strip()


def _run(checkout: Path, trace: int) -> dict:
    """The environment line and the metrics line of one benchmark run."""
    command = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command[1:])} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    return {"environment": json.loads(lines[0]), "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="git checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    revision = _git(checkout, "rev-parse", "HEAD")
    dirty = bool(_git(checkout, "status", "--porcelain"))
    end_to_end = _run(checkout, 0)
    per_layer = _run(checkout, 1)
    env = end_to_end["environment"]["environment"]
    record = {
        "revision": revision,
        "dirty": dirty,
        "seed": SEED,
        "seconds": SECONDS,
        "python": env["python"],
        "numpy": env["numpy"],
        "nproc": env["nproc"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    path = ROOT / f"BENCH_{revision[:7]}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
