"""The four benchmark workloads: inputs from the seed, one timed pass, and
the output checks run after timing.

Every workload is a closed loop on one thread: the next operation starts
when the previous one returns.  A workload object is built from the seed
and the checkout root, then

* ``setup()`` imports the library, builds the inputs and warms up;
* ``one_pass(traced, probe)`` runs one pass and returns
  ``(op_seconds, outputs)``; after each op it calls ``probe.poll`` with the
  op's end time, which times the host now and then, outside every op
  timing (``probe.Probe``);
* ``check(passes)`` inspects every pass's outputs and returns a ``Verdict``.

The library is imported inside ``setup`` so that import cost counts as
set-up time, and layer functions are looked up on their modules at each
pass so that an installed tracer sees the calls.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import spans

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Tolerance, in ulp, for a computed value that comes without a certifying
# bracket (figure CSVs, CLI output, shell centroids); it may only be
# tightened.  The worst such value at the seed is 12.4 ulp, in fig3 at
# q = 0.1.
VALUE_TOL_ULP = 16.0
# A solve-stream panel result is wrong when the reference root lies farther
# than this outside the returned bracket, whatever the value's ulp error.
# The seed's brackets miss by up to 7.3 ulp: q_value can round to exactly 0
# next to the root, and the solver then collapses the bracket onto that point.
BRACKET_TOL_ULP = 16.0
# |ratio estimate - root| bound of the paper's recurrence/root agreement
AGREEMENT_TOL = 1e-10
MC_SIGMAS = 4.0


@dataclass
class Verdict:
    """Outcome of the checks of one run.

    Every pass repeats the same ops on the same inputs, so an op is counted
    once: ``attempted`` is the number of ops in a pass, and an op has failed
    when any of its samples failed.  Counted this way, a run's result does
    not depend on how many passes fitted in its time.
    """

    attempted: int = 0
    failed_ops: set = field(default_factory=set)  # indices of failed ops
    failures: dict = field(default_factory=dict)  # cause -> failed samples
    # answers that were returned but wrong; an op that raised an AnacciError
    # is a failure without being wrong
    wrong: dict = field(default_factory=dict)  # cause -> count
    max_err_ulp: float = 0.0
    # per pass, per op: seconds until the op's answer met its accuracy
    # target, +inf when it failed
    projected: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, op: int, cause: str, wrong: bool = False) -> None:
        self.failed_ops.add(op)
        self.failures[cause] = self.failures.get(cause, 0) + 1
        if wrong:
            self.wrong[cause] = self.wrong.get(cause, 0) + 1

    def error(self, value: float, reference, what: str, tolerance=VALUE_TOL_ULP) -> float:
        """Track the worst ulp error; beyond the tolerance the value is wrong."""
        err = oracle.ulp_error(value, reference)
        self.max_err_ulp = max(self.max_err_ulp, err)
        if err > tolerance:
            cause = f"{what}: {err:.1f} ulp > {tolerance:g}"
            self.wrong[cause] = self.wrong.get(cause, 0) + 1
        return err


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def root_key(p, q) -> str:
    return f"{float(p)!r},{float(q)!r}"


def _failure_name(exc: BaseException) -> str:
    from anacci.errors import AnacciError

    kind = "AnacciError" if isinstance(exc, AnacciError) else "crash"
    return f"{kind}:{type(exc).__name__}"


# ---------------------------------------------------------------------------
# solve-stream


SOLVE_REGIMES = ("super", "sub", "near", "saturated", "lattice")
# natural log of the smallest root the stream accepts (1e-300); a root far
# below it is not representable as a double
_LOG_ROOT_FLOOR = -300.0 * math.log(10.0)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def regime_draw(rng: random.Random, regime: str) -> tuple:
    """One (p, q, regime) draw of the given regime."""
    if regime == "super":
        while True:
            p, q = _log_uniform(rng, 0.1, 10.0), _log_uniform(rng, 0.5, 50.0)
            if p * q > 1.001:
                return p, q, regime
    if regime == "sub":
        while True:
            p = _log_uniform(rng, 1e-3, 1.0)
            q = rng.uniform(1e-2, 0.999) / p
            # the root is at least (p/(p+1))^(1/q)
            if math.log(p / (p + 1.0)) / q >= _LOG_ROOT_FLOOR:
                return p, q, regime
    if regime == "near":
        offset = _log_uniform(rng, 1e-11, 1e-3) * rng.choice((-1.0, 1.0))
        p = _log_uniform(rng, 0.2, 5.0)
        return p, (1.0 + offset) / p, regime
    if regime == "saturated":
        return _log_uniform(rng, 0.1, 10.0), _log_uniform(rng, 1e2, 1e17), regime
    return rng.randint(1, 50), rng.randint(1, 200), regime


def solve_draw(rng: random.Random) -> tuple:
    """One (p, q, regime) draw; every regime is equally likely."""
    return regime_draw(rng, SOLVE_REGIMES[rng.randrange(len(SOLVE_REGIMES))])


def solve_draws(seed: int, count: int) -> list[tuple]:
    rng = random.Random(seed)
    return [solve_draw(rng) for _ in range(count)]


# The saturated points of the stream are one fixed set, the same for every
# seed.  About 6% of them raise NoConvergence (a known defect kept on
# purpose), so the failed share of a pass is the same for every seed.
SATURATED_SET_SEED = 1409_0577


def solve_stream(seed: int, count: int) -> list[tuple]:
    """``count`` draws, an equal number of each regime, in seeded order."""
    rng = random.Random(seed)
    fixed = random.Random(SATURATED_SET_SEED)
    per_regime = count // len(SOLVE_REGIMES)
    draws = [regime_draw(fixed if regime == "saturated" else rng, regime)
             for regime in SOLVE_REGIMES for _ in range(per_regime)]
    rng.shuffle(draws)
    return draws


# the named cases of the roadmap: golden, super, sub, near-critical, saturated
SOLVE_ANCHORS = ((1, 2), (5, 40), (0.3, 1.5), (1 + 1e-9, 1), (1, 1e6))
# the reference panel is the anchors plus the first draws of this seed
PANEL_SEED = 0
PANEL_DRAWS = 500


def solve_panel() -> list[tuple]:
    """(p, q, regime) of the points whose solves are checked against the
    precomputed 50-digit roots."""
    anchors = [(p, q, "anchor") for p, q in SOLVE_ANCHORS]
    return anchors + solve_draws(PANEL_SEED, PANEL_DRAWS)


class SolveStream:
    """Single ``solver.solve_lambda`` calls over a seeded mix of regimes."""

    name = "solve-stream"
    PROBE = "python"  # probe.KERNELS
    # The tail is taken per block of 1000 solves in stream order: p99 with
    # 10 samples beyond it, and the median over blocks is reported.  Over a
    # whole run it would be the 11th-worst host interruption among ~1e5.
    TAIL_BLOCK = 1000
    STREAM = 5_000
    WARMUP = 500

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def setup(self) -> None:
        from anacci import errors, solver

        self.solver, self.errors = solver, errors
        self.draws = solve_stream(self.seed, self.STREAM)
        for p, q, _ in self.draws[: self.WARMUP]:
            try:
                solver.solve_lambda(p, q)
            except errors.AnacciError:
                pass

    def one_pass(self, traced: bool, probe):
        solve = self.solver.solve_lambda
        clock = time.perf_counter
        # flat arrays keep the retained outputs small next to the library
        times, values, raised = array("d"), array("d"), []
        for p, q, _ in self.draws:
            t0 = clock()
            try:
                value = solve(p, q).value
            except Exception as exc:  # recorded and checked after timing
                t1 = clock()
                raised.append((len(values), _failure_name(exc)))
                value = math.nan
            else:
                t1 = clock()
            times.append(t1 - t0)
            values.append(value)
            probe.poll(t1)
        return times, (values, raised)

    def check(self, passes) -> Verdict:
        verdict = Verdict(attempted=len(self.draws))
        for times, (values, raised) in passes:
            failed_at = set()
            for index, name in raised:
                failed_at.add(index)
                cause = f"{name}@{self.draws[index][2]}"
                verdict.fail(index, cause, wrong=cause.startswith("crash"))
            for index, value in enumerate(values):
                if index not in failed_at and not math.isfinite(value):
                    failed_at.add(index)
                    verdict.fail(index, "non-finite", wrong=True)
            verdict.projected.append(
                [math.inf if i in failed_at else t for i, t in enumerate(times)])
        reference = load_reference()["roots"]
        panel_failed = 0
        worst = dict.fromkeys(("anchor",) + SOLVE_REGIMES, 0.0)
        worst_miss = 0.0
        for p, q, regime in solve_panel():
            try:
                result = self.solver.solve_lambda(p, q)
            except self.errors.AnacciError:
                panel_failed += 1
                continue
            ref = reference[root_key(p, q)]
            what = f"solve({p!r}, {q!r})"
            err = verdict.error(result.value, ref, what, tolerance=math.inf)
            worst[regime] = max(worst[regime], err)
            miss = oracle.bracket_miss_ulp(result.bracket_lo, result.bracket_hi, ref)
            worst_miss = max(worst_miss, miss)
            if miss > BRACKET_TOL_ULP:
                verdict.wrong[f"{what}: root {miss:.1f} ulp outside its bracket"] = 1
        verdict.extra["panel_points"] = len(solve_panel())
        verdict.extra["panel_failed"] = panel_failed
        verdict.extra["panel_max_err_ulp"] = worst
        verdict.extra["panel_max_bracket_miss_ulp"] = worst_miss
        return verdict


# ---------------------------------------------------------------------------
# reproduce


FIGURES = ("fig1", "fig2", "fig3", "fig5", "fig6", "fig7")
SUITES = ("bounds", "monotone", "appendices", "geometry")
# the README's verify sizes
M_MAX, N_MAX = 50, 10
AGREEMENT_MAX = 10
AGREEMENT_TERMS = 500
# columns of fig1-fig3 that hold solved ratio limits: series -> (p, q, value)
_SOLVED_COLUMNS = {
    "fig1": {"zero_curve": (None, 2, 1)},
    "fig2": {"curve_a=": (1, 2, 3), "crossover": (1, 2, 3)},
    "fig3": {"surface": (1, 2, 3)},
}


def solved_points(which: str, rows):
    """(p, q, solved value) of the CSV rows of fig1-fig3 that hold a ratio
    limit at p, q > 0 (fig3's p = 0 and q = 0 edges are 0 by continuity)."""
    for row in rows:
        for prefix, (p_col, q_col, v_col) in _SOLVED_COLUMNS.get(which, {}).items():
            if row[0].startswith(prefix):
                p = 1.0 if p_col is None else float(row[p_col])
                q = float(row[q_col])
                if p > 0.0 and q > 0.0:
                    yield p, q, float(row[v_col])


class Reproduce:
    """One pass regenerates the paper's figure data and verify suites from
    a cold lattice cache, then checks recurrence/root agreement."""

    name = "reproduce"
    PROBE = "python"  # probe.KERNELS

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.ops = [("emit", f) for f in FIGURES] + [("suite", s) for s in SUITES]
        self.ops.append(("agreement", None))

    def setup(self) -> None:
        from anacci import figures, lattice, recurrence, verify

        self.figures, self.lattice = figures, lattice
        self.recurrence, self.verify = recurrence, verify
        figures.emit("fig6")
        verify.run_suite("appendices", m_max=2, n_max=2, seed=self.seed)
        lattice.clear_cache()

    def _agreement(self):
        recurrence, anacci = self.recurrence, self.lattice.anacci
        out = []
        for m in range(1, AGREEMENT_MAX + 1):
            for n in range(1, AGREEMENT_MAX + 1):
                spec = recurrence.RecurrenceSpec(m, n, recurrence.canonical_init(n))
                estimate = recurrence.ratio_limit(spec, 1e-12, AGREEMENT_TERMS).value
                terms = recurrence.generate(spec, AGREEMENT_TERMS)
                out.append((m, n, estimate, terms[-2], terms[-1], anacci((m, n))))
        return out

    def _run(self, kind, arg):
        if kind == "emit":
            return self.figures.emit(arg)
        if kind == "suite":
            return self.verify.run_suite(arg, m_max=M_MAX, n_max=N_MAX, seed=self.seed)
        return self._agreement()

    def one_pass(self, traced: bool, probe):
        clock = time.perf_counter
        self.lattice.clear_cache()
        times, outputs = [], []
        for kind, arg in self.ops:
            t0 = clock()
            try:
                out = self._run(kind, arg)
            except Exception as exc:  # recorded and checked after timing
                out = exc
            t1 = clock()
            times.append(t1 - t0)
            outputs.append(out)
            probe.poll(t1)
        return times, outputs

    def check(self, passes) -> Verdict:
        verdict = Verdict(attempted=len(self.ops))
        reference = load_reference()
        first_csv: dict = {}
        for times, outputs in passes:
            projected = []
            verdict.projected.append(projected)
            for op, ((kind, arg), out, seconds) in enumerate(zip(self.ops, outputs, times)):
                failures_before = sum(verdict.failures.values())
                what = arg or kind
                if isinstance(out, Exception):
                    verdict.fail(op, f"{_failure_name(out)}@{what}", wrong=True)
                elif kind == "emit":
                    if arg not in first_csv:
                        first_csv[arg] = (out, self._check_csv(arg, out, reference, verdict))
                    text, problem = first_csv[arg]
                    if out != text:
                        problem = "bytes differ between passes"
                    if problem:
                        verdict.fail(op, f"{arg}: {problem}", wrong=True)
                elif kind == "suite":
                    failed = [r.name for r in out if not r.passed]
                    if failed:
                        verdict.fail(op, f"verify {arg}: {','.join(failed)}", wrong=True)
                else:
                    worst = max(
                        max(abs(est - phi), abs(last / prev - phi))
                        for _, _, est, prev, last, phi in out
                    )
                    exact = all(isinstance(t, int) for row in out for t in row[3:5])
                    verdict.extra["agreement_worst"] = worst
                    if not (worst <= AGREEMENT_TOL and exact):
                        verdict.fail(op, f"agreement: worst {worst:.2e}", wrong=True)
                failed = sum(verdict.failures.values()) > failures_before
                projected.append(math.inf if failed else seconds)
        return verdict

    @staticmethod
    def _check_csv(which, text, reference, verdict):
        """Row count and finiteness of one figure; ulp error of solved values."""
        body = list(csv.reader(io.StringIO(text)))[1:]
        if len(body) != reference["figure_rows"][which]:
            return f"{len(body)} rows, expected {reference['figure_rows'][which]}"
        for row in body:
            for cell in row:
                try:
                    number = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(number):
                    return f"non-finite value in row {row}"
        roots = reference["roots"]
        for p, q, value in solved_points(which, body):
            verdict.error(value, roots[root_key(p, q)], f"{which} lam({p!r}, {q!r})")
        return None


# ---------------------------------------------------------------------------
# mc-oracle


MC_KINDS = ("ball", "cube", "cone", "pyramid")
MC_DIMS = (2, 8, 12, 16)
MC_LAMS = (0.5, 1.2, 2.0)
MC_SAMPLES = 200_000
MC_TARGET_STDERR = 1e-3


def mc_scene_params():
    """(kind, n, lam, size, axis_offset, O): unit bodies with O on the
    boundary, the ball at center 1 with O = 0 and the others with O at the
    near face or apex."""
    for kind in MC_KINDS:
        offset = 1.0 if kind == "ball" else 0.0
        for n in MC_DIMS:
            for lam in MC_LAMS:
                yield kind, n, lam, 1.0, offset, 0.0


class MonteCarlo:
    """One ``geometry.mc_centroid`` estimate per scene over a fixed grid."""

    name = "mc-oracle"
    PROBE = "numpy"  # probe.KERNELS

    def __init__(self, seed: int, root: Path):
        self.key = seed

    def setup(self) -> None:
        from anacci import geometry

        self.geometry = geometry
        self.params = list(mc_scene_params())
        self.scenes = [
            geometry.DilationScene(getattr(geometry, kind)(n, size, offset), center, lam)
            for kind, n, lam, size, offset, center in self.params
        ]
        geometry.mc_centroid(self.scenes[0], self.key, 10_000)

    def one_pass(self, traced: bool, probe):
        mc = self.geometry.mc_centroid
        clock = time.perf_counter
        times, outputs = [], []
        for scene in self.scenes:
            t0 = clock()
            try:
                out = mc(scene, self.key, MC_SAMPLES)
            except Exception as exc:  # recorded and checked after timing
                out = exc
            t1 = clock()
            times.append(t1 - t0)
            outputs.append(out)
            probe.poll(t1)
        return times, outputs

    def check(self, passes) -> Verdict:
        verdict = Verdict(attempted=len(self.scenes))
        exact = [oracle.shell_centroid(kind, n, size, offset, center, lam)
                 for kind, n, lam, size, offset, center in self.params]
        for scene, params, b in zip(self.scenes, self.params, exact):
            value = self.geometry.shell_centroid(scene)
            verdict.error(value, b, f"shell_centroid{params[:3]}")
        for times, outputs in passes:
            projected = []
            verdict.projected.append(projected)
            for op, (params, out, b, seconds) in enumerate(zip(self.params, outputs, exact, times)):
                cause, wrong = self._problem(out, float(b))
                if cause:
                    verdict.fail(op, f"{cause}@{params[0]} n={params[1]} lam={params[2]}", wrong)
                    projected.append(math.inf)
                else:
                    projected.append(seconds * (out[1] / MC_TARGET_STDERR) ** 2)
        return verdict

    @staticmethod
    def _problem(out, exact: float):
        """(cause, wrong) of a failed estimate, or (None, False)."""
        if isinstance(out, Exception):
            name = _failure_name(out)
            return name, name.startswith("crash")
        mean, stderr = out
        if not (math.isfinite(mean) and math.isfinite(stderr)):
            return "non-finite", True
        if stderr == 0.0:
            return "zero stderr", False
        if abs(mean - exact) > MC_SIGMAS * stderr:
            return f"beyond {MC_SIGMAS:g} sigma", False  # statistical, not wrong
        return None, False


# ---------------------------------------------------------------------------
# cli-cold


# the README's CLI examples, in order
CLI_EXAMPLES = (
    ("solve", "--p", "1", "--q", "2"),
    ("inverse", "--lam", "2", "--n", "2", "--exact"),
    ("recurrence", "--p", "1", "--n", "3", "--count", "12"),
    ("anacci", "--m", "2", "--n", "2"),
    ("anacci", "--seq", "kn", "--k", "1", "--count", "6"),
    ("scene", "--body", "ball", "--n", "2", "--size", "1", "--offset", "1",
     "--center", "0", "--target", "2"),
    ("scene", "--body", "cube", "--n", "3", "--center", "0", "--lam", "1.5",
     "--mc", "--seed", "42"),
    ("fig", "--which", "fig5", "--output", "fig5.csv"),
    ("verify", "--suite", "all", "--m-max", "50", "--n-max", "10"),
)


THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
}


def child_env(root: Path) -> dict:
    """Environment of every subprocess: the checkout's sources, one thread."""
    env = dict(os.environ)
    source = str(root / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(THREAD_ENV)
    return env


class CliCold:
    """The README examples, each a fresh ``python -m anacci.cli`` process."""

    name = "cli-cold"
    PROBE = "spawn"  # probe.KERNELS
    TIMEOUT = 60

    def __init__(self, seed: int, root: Path):
        self.env = child_env(root)
        self.work = Path(os.environ["PERFBENCH_WORK"])
        self.passes = 0
        self.child_raw = None

    def _call(self, args, cwd, traced=False, trace_out=None):
        if traced:
            command = [sys.executable, str(HERE / "cli_traced.py"), *args]
            env = dict(self.env, PERFBENCH_SPANS=str(trace_out))
        else:
            command, env = [sys.executable, "-m", "anacci.cli", *args], self.env
        return subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=self.TIMEOUT)

    def setup(self) -> None:
        done = self._call(["--help"], self.work)
        if done.returncode != 0:
            raise RuntimeError(f"anacci --help failed: {done.stderr.strip()}")

    def one_pass(self, traced: bool, probe):
        cwd = self.work / f"pass-{self.passes}"
        self.passes += 1
        cwd.mkdir()
        trace_out = cwd / "spans.json"
        clock = time.perf_counter
        times, outputs = [], []
        for args in CLI_EXAMPLES:
            t0 = clock()
            done = self._call(args, cwd, traced, trace_out)
            t1 = clock()
            times.append(t1 - t0)
            outputs.append((done.returncode, done.stdout, cwd))
            probe.poll(t1)
            if traced and trace_out.exists():
                with open(trace_out, encoding="utf-8") as handle:
                    raw = json.load(handle)
                trace_out.unlink()
                self.child_raw = raw if self.child_raw is None else spans.merge(self.child_raw, raw)
        return times, outputs

    def check(self, passes) -> Verdict:
        verdict = Verdict(attempted=len(CLI_EXAMPLES))
        reference = load_reference()
        for times, outputs in passes:
            projected = []
            verdict.projected.append(projected)
            for op, (args, (code, stdout, cwd), seconds) in enumerate(
                    zip(CLI_EXAMPLES, outputs, times)):
                try:
                    problem = self._check_one(args, code, stdout, cwd, reference, verdict)
                except (ValueError, KeyError, IndexError) as exc:
                    problem = f"unparseable output ({exc})"
                if problem:
                    verdict.fail(op, f"{args[0]}: {problem}", wrong=True)
                projected.append(math.inf if problem else seconds)
        return verdict

    @staticmethod
    def _check_one(args, code, stdout, cwd, reference, verdict):
        """What is wrong with one example's output, or None."""
        if code != 0:
            return f"exit code {code}"
        command, roots = args[0], reference["roots"]
        if command == "fig":
            with open(cwd / "fig5.csv", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))[1:]
            expected = reference["figure_rows"]["fig5"]
            return None if len(rows) == expected else f"fig5.csv has {len(rows)} rows"
        if command == "verify":
            last = stdout.strip().splitlines()[-1]
            done, total = last.split()[0].split("/")
            return None if done == total and "families passed" in last else last
        if args[:3] == ("anacci", "--seq", "kn"):
            rows = list(csv.DictReader(io.StringIO(stdout)))
            for row in rows:
                m, n = int(row["m"]), int(row["n"])
                verdict.error(float(row["value"]), roots[root_key(m, n)], f"cli phi({m}, {n})")
            return None if len(rows) == 6 else f"{len(rows)} sequence rows"
        payload = json.loads(stdout)
        if command == "solve":
            verdict.error(payload["value"], roots[root_key(1, 2)], "cli solve")
        elif command == "anacci":
            verdict.error(payload["value"], roots[root_key(2, 2)], "cli anacci")
        elif command == "scene" and "--target" in args:
            verdict.error(payload["lam"], roots[root_key(1, 2)], "cli scene lam")
        elif command == "scene":
            b = oracle.shell_centroid("cube", 3, 1.0, 0.0, 0.0, 1.5)
            verdict.error(payload["points"]["B"], b, "cli scene B")
        return None


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


WORKLOADS = {w.name: w for w in (SolveStream, Reproduce, MonteCarlo, CliCold)}
