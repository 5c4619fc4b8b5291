"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m unittest perfbench/selftest.py

They check that a short run of every workload prints every metric that
BENCHMARK.json names, that traced spans nest and their self times add up
to no more than the wall time, that the tracer patches every import site,
that the oracle reproduces known values, that the solve-stream inputs keep
their regime shares and fixed saturated set, that every probe kind times
and scales, and that the benchmark fails without the library's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


class ShortRuns(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    done = bench("--workload", name, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace))
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for key, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), key)
                        if trace == 0:
                            self.assertGreater(metric["value"], 0.0, key)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            bare = Path(bare)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "solve-stream", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


class Inputs(unittest.TestCase):
    def test_solve_stream_has_equal_regimes_and_a_fixed_saturated_set(self):
        one, two = workloads.solve_stream(1, 5000), workloads.solve_stream(2, 5000)
        self.assertNotEqual(one, two)
        for regime in workloads.SOLVE_REGIMES:
            self.assertEqual(sum(d[2] == regime for d in one), 1000)
        self.assertEqual(sorted(d for d in one if d[2] == "saturated"),
                         sorted(d for d in two if d[2] == "saturated"))
        self.assertEqual(workloads.solve_stream(1, 5000), one)


class HostProbe(unittest.TestCase):
    def test_every_kind_times_and_scales(self):
        for kind in probe.KERNELS:
            with self.subTest(kind=kind):
                timer = probe.Probe(kind)
                for _ in range(3):
                    timer.sample()
                self.assertEqual(len(timer.samples), 3)
                self.assertGreater(timer.scale(), 0.0)
                self.assertAlmostEqual(timer.scale() * timer.seconds(),
                                       probe.REFERENCE_S[kind])

    def test_trimmed_mean_drops_the_extremes(self):
        self.assertEqual(probe.trimmed_mean([1.0] * 9 + [100.0]), 1.0)
        self.assertEqual(probe.trimmed_mean([2.0, 4.0]), 3.0)


class Tracing(unittest.TestCase):
    def setUp(self):
        from anacci import lattice

        lattice.clear_cache()
        self.tracer = spans.Tracer()
        self.tracer.install()

    def tearDown(self):
        self.tracer.uninstall()

    def test_patches_every_import_site(self):
        from anacci import figures, qkernel, solver, verify

        self.assertTrue(hasattr(qkernel.q_value, "__wrapped__"))
        self.assertIs(solver.q_value, qkernel.q_value)
        self.assertTrue(hasattr(figures.FIGURES["fig1"], "__wrapped__"))
        self.assertTrue(hasattr(verify.SUITES["bounds"], "__wrapped__"))
        self.tracer.uninstall()
        self.assertFalse(hasattr(qkernel.q_value, "__wrapped__"))
        self.assertFalse(hasattr(solver.q_value, "__wrapped__"))

    def test_spans_nest_and_self_times_fit_in_wall_time(self):
        from anacci import figures, solver, verify

        begin = time.perf_counter()
        solver.solve_lambda(1, 2)
        figures.emit("fig5")
        verify.run_suite("appendices", m_max=4, n_max=4)
        wall = time.perf_counter() - begin
        tracer = self.tracer
        self.assertGreater(len(tracer.start), 100)
        for index, parent in enumerate(tracer.parent):
            self.assertLessEqual(tracer.start[index], tracer.end[index])
            if parent >= 0:
                self.assertLess(parent, index)
                self.assertLessEqual(tracer.start[parent], tracer.start[index])
                self.assertLessEqual(tracer.end[index], tracer.end[parent])
        own = tracer.self_times()
        self.assertGreaterEqual(min(own), -1e-9)
        self.assertLessEqual(sum(own), wall)
        raw = tracer.raw()
        self.assertGreater(raw["lattice.anacci_calls"], 0)
        self.assertGreater(raw["solver.iters_count"], 0)


class Oracle(unittest.TestCase):
    def test_known_roots(self):
        golden = oracle.root(1, 2)
        self.assertTrue(golden.startswith("1.6180339887498948482045868343656381177203"))
        self.assertEqual(oracle.ulp_error(1.9999999999999851, oracle.root(1, 1e6)), 67.0)
        self.assertEqual(oracle.root(0.5, 2), "1")

    def test_units_table_matches_benchmark_json(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)


if __name__ == "__main__":
    unittest.main()
