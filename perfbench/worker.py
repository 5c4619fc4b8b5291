"""Run one workload in this process and print one JSON line of results.

    python worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts one worker per measured run and a few set-up-only
workers, so every workload has a process of its own: cold imports and
peak memory belong to it alone.  The environment must put the checkout's
``src`` on ``PYTHONPATH``; the worker refuses an ``anacci`` from elsewhere.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from probe import Probe, trimmed_mean
from workloads import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# probes that scale the set-up time
SETUP_PROBES = 8


def peak_rss_mb(workload) -> float:
    """High-water resident memory of the workload's process so far
    (cli-cold: of its largest CLI child)."""
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload, seconds: float, min_passes: int, traced: bool = False):
    """Closed loop of whole passes until ``seconds`` have elapsed.

    Returns the pass wall times, the (op_seconds, outputs) of each pass, the
    run's probe, and the peak memory after the first pass: set-up plus the
    work done once, before the outputs kept for the checks pile up.
    """
    walls, passes = [], []
    probe = Probe(workload.PROBE)
    begin = time.perf_counter()
    probe.sample()
    while len(walls) < min_passes or time.perf_counter() - begin < seconds:
        t0 = time.perf_counter()
        result = workload.one_pass(traced, probe)
        walls.append(time.perf_counter() - t0)
        passes.append(result)
        if len(walls) == 1:
            first_pass_rss = peak_rss_mb(workload)
    probe.sample()
    return walls, passes, probe, first_pass_rss


def tail(samples):
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile, sample count)."""
    ordered = sorted(samples)
    count = len(ordered)
    if count < 11:
        raise ValueError(f"{count} samples; the tail needs at least 11")
    return ordered[count - 11], 100.0 * (count - 10) / count, count


# Each op sample is scaled to reference seconds by the probes next to it
# (probe.py), and each op position is timed by the trimmed mean of its
# scaled samples across the passes.  The host can switch between a fast and
# a slow speed every few seconds; the fastest sample of an op, or the median
# of such a mix, jumps between the two from run to run, while the mean
# follows the share of time spent at each.  The trim keeps a single stall
# from moving an op's time.
#
# The tail is the highest percentile of these op times with at least 10
# beyond it when there are this many ops or more.  With fewer (reproduce has
# 11, cli-cold 9) it is the slowest op: a percentile with 10 samples beyond
# would need repeated, noisier samples of each op.
TAIL_MIN_OPS = 40


def op_times(per_pass) -> list[float]:
    """For each op position, the trimmed mean of its samples across the
    passes (+inf when one of them is +inf)."""
    return [trimmed_mean([values[i] for values in per_pass]) if all(
                math.isfinite(values[i]) for values in per_pass) else math.inf
            for i in range(len(per_pass[0]))]


def scaled(per_pass, probe) -> list[list[float]]:
    """Each sample of each pass in reference seconds."""
    scales = probe.op_scales()
    count = len(per_pass[0])
    return [[value * scales[k * count + i] for i, value in enumerate(values)]
            for k, values in enumerate(per_pass)]


def pass_seconds(passes, probe) -> float:
    """Time of one pass in reference seconds, the sum of its op times."""
    return sum(op_times(scaled([times for times, _ in passes], probe)))


def end_to_end(workload, passes, probe, verdict, rss_mb: float) -> tuple[dict, dict]:
    times = op_times(scaled([times for times, _ in passes], probe))
    block = getattr(workload, "TAIL_BLOCK", None)
    if block:
        tails = [tail(times[k:k + block]) for k in range(0, len(times), block)]
        tail_value = median([t[0] for t in tails])
        tail_info = {"percentile": tails[0][1], "samples": tails[0][2],
                     "per": f"block of {block} solves", "blocks": len(tails)}
    elif len(times) >= TAIL_MIN_OPS:
        tail_value, percentile, count = tail(times)
        tail_info = {"percentile": percentile, "samples": count, "per": "run"}
    else:
        tail_value = max(times)
        tail_info = {"percentile": 100.0, "samples": len(times), "per": "run"}
    projected = op_times(scaled(verdict.projected, probe))
    wall = sum(times)
    metrics = {
        "wall_s": wall,
        "ops_per_s": len(times) / wall,
        "op_p50_us": median(times) * 1e6,
        "op_tail_us": tail_value * 1e6,
        "ok_frac": 1.0 - verdict.failed / verdict.attempted,
        "max_err_ulp": verdict.max_err_ulp,
        "time_to_accuracy_s": median(projected),
        "peak_rss_mb": rss_mb,
    }
    measured_wall = sum(op_times([times for times, _ in passes]))
    return metrics, {"op_tail": tail_info, "probe": probe_info(probe),
                     "measured_wall_s": measured_wall}


def probe_info(probe) -> dict:
    return {"samples": len(probe.samples), "mean_s": probe.seconds(),
            "min_s": min(probe.samples), "max_s": max(probe.samples)}


def _timed_run(command, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(command, env=env, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def _import_times(env) -> tuple[float, float]:
    """Cumulative import seconds of numpy and of anacci without numpy, from
    ``-X importtime`` of ``import anacci.cli``."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import anacci.cli"],
        env=env, check=True, capture_output=True, text=True, timeout=60,
    )
    numpy_us = anacci_us = 0
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            cumulative = int(fields[1])
        except ValueError:
            continue  # the column header
        package = fields[2]
        if package.strip() == "numpy":
            numpy_us = cumulative
        elif package.startswith(" anacci") and not package.startswith("  "):
            anacci_us += cumulative
    return numpy_us / 1e6, (anacci_us - numpy_us) / 1e6


def cli_probe(reps: int = 5) -> dict:
    """Interpreter and CLI start-up, each the median of ``reps`` processes."""
    env = workloads.child_env(ROOT)
    bare, startup, numpy_s, anacci_s = [], [], [], []
    for _ in range(reps):
        bare.append(_timed_run([sys.executable, "-c", "pass"], env))
        startup.append(_timed_run([sys.executable, "-m", "anacci.cli", "--help"], env))
        numpy_import, anacci_import = _import_times(env)
        numpy_s.append(numpy_import)
        anacci_s.append(anacci_import)
    return {
        "cli.bare_interp_s": median(bare),
        "cli.startup_s": median(startup) - median(bare),
        "cli.import_s.numpy": median(numpy_s),
        "cli.import_s.anacci": median(anacci_s),
    }


def _check_source() -> None:
    import anacci

    source = (ROOT / "src").resolve()
    if source not in Path(anacci.__file__).resolve().parents:
        raise SystemExit(f"anacci imported from {anacci.__file__}, not from {source}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    begin = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    workload.setup()
    setup_s = time.perf_counter() - begin
    # scaled by probes taken right after it; before it, the numpy probe
    # would take numpy's import out of set-up
    setup_probe = Probe(workload.PROBE)
    for _ in range(SETUP_PROBES):
        setup_probe.sample()
    setup_s *= setup_probe.scale()
    if args.workload != "cli-cold":
        _check_source()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        walls, passes, probe, _ = measure(workload, args.seconds / 2, 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_walls, traced_passes, traced_probe, _ = measure(
                workload, args.seconds / 2, 1, traced=True)
        finally:
            tracer.uninstall()
        raw = tracer.raw()
        if getattr(workload, "child_raw", None):
            raw = spans.merge(raw, workload.child_raw)
        metrics = spans.finalize(raw, len(traced_walls))
        metrics["trace.overhead_frac"] = (pass_seconds(traced_passes, traced_probe)
                                          / pass_seconds(passes, probe) - 1.0)
        metrics.update(cli_probe())
        verdict = workload.check(passes + traced_passes)
        info = {"traced_passes": len(traced_walls), "spans": len(tracer.start)}
    else:
        walls, passes, probe, rss_mb = measure(workload, args.seconds, 3)
        verdict = workload.check(passes)
        metrics, info = end_to_end(workload, passes, probe, verdict, rss_mb)
    info.update(passes=len(walls), pass_walls_s=walls)
    info.update(failures=verdict.failures, wrong=verdict.wrong, **verdict.extra)
    for key, value in metrics.items():
        if not math.isfinite(value):
            verdict.wrong[f"metric {key} is {value}"] = 1
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "correct": not verdict.wrong,
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
