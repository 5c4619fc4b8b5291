"""Span tracing of the anacci layers, installed from outside the library.

``Tracer.install`` replaces every public function of each layer module with
a wrapper that records one span per call, at every place the function is
bound: its own module, each module that imported it by name, and the
module-level dispatch tables (``figures.FIGURES``, ``verify.SUITES``).  So a
``q_value`` call made by the solver is traced as well as one made directly.

A span is (name, start, end, parent, raised).  Spans stay in memory, in
flat arrays, until ``raw`` folds them into mergeable sums; ``finalize``
turns those sums into the per-layer metrics, per measured pass.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

LAYERS = ("qkernel", "solver", "lattice", "recurrence", "geometry", "figures", "verify")
# modules that bind layer functions by name, beyond the layers themselves
_IMPORT_SITES = ("anacci", "anacci.cli")
FIGURE_NAMES = ("fig1", "fig2", "fig3", "fig5", "fig6", "fig7")
SUITE_NAMES = ("bounds", "monotone", "appendices", "geometry")


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # name id -> (layer, function)
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.raised = bytearray()
        self.notes: dict[int, object] = {}  # span -> what a hook kept
        self._stack = [-1]
        self._patched: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, layer: str, func):
        name_id = len(self.names)
        self.names.append((layer, func.__name__))
        hook = _HOOKS.get((layer, func.__name__))
        start, end, parent, names = self.start, self.end, self.parent, self.name
        raised, stack, clock = self.raised, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1])
            names.append(name_id)
            raised.append(0)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                end[index] = clock()
                stack.pop()
                raised[index] = 1
                if hook is not None:
                    self.notes[index] = hook(args, kwargs, None, exc)
                raise
            end[index] = clock()
            stack.pop()
            if hook is not None:
                self.notes[index] = hook(args, kwargs, result, None)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Patch every binding of every public layer function."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"anacci.{layer}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[value] = self.wrap(layer, value)
        sites = [importlib.import_module(name) for name in _IMPORT_SITES]
        sites += [importlib.import_module(f"anacci.{layer}") for layer in LAYERS]
        for module in sites:
            for attr, value in list(vars(module).items()):
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._patch(value, key, item, wrappers[item])
                elif inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, value, wrappers[value])

    def _patch(self, owner, key, original, wrapper) -> None:
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._patched.append((owner, key, original, wrapper))

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def raw(self) -> dict:
        """Sums over all spans, mergeable across processes with ``merge``."""
        out = _empty_raw()
        own = self.self_times()
        layer_of = [layer for layer, _ in self.names]
        func_of = [func for _, func in self.names]
        for index, name_id in enumerate(self.name):
            layer, func = layer_of[name_id], func_of[name_id]
            duration = self.end[index] - self.start[index]
            parent = self.parent[index]
            parent_id = self.name[parent] if parent >= 0 else -1
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own[index]
            note = self.notes.get(index)
            if layer == "solver":
                if self.raised[index] and (parent < 0 or layer_of[parent_id] != "solver"):
                    out["solver.errors"] += 1
                if func == "solve_lambda":
                    if note is not None:
                        out["solver.iters_sum"] += note
                        out["solver.iters_count"] += 1
                        out["solver.iters_max"] = max(out["solver.iters_max"], note)
                    if parent >= 0 and func_of[parent_id] == "anacci":
                        out["lattice.solves"] += 1
            elif layer == "lattice" and func == "anacci":
                out["lattice.anacci_calls"] += 1
            elif layer == "recurrence" and note is not None:
                out["recurrence.terms"] += note
            elif layer == "figures":
                if func == "emit" and note in FIGURE_NAMES:
                    out[f"figures.emit_s.{note}"] += duration
                elif func in FIGURE_NAMES and note is not None:
                    out["figures.rows"] += note
            elif layer == "verify" and func.startswith("suite_"):
                suite = func[len("suite_"):]
                if suite in SUITE_NAMES:
                    out[f"verify.suite_s.{suite}"] += duration
                if note is not None:
                    out["verify.checks"] += note[0]
                    out["verify.failed_families"] += note[1]
            elif layer == "geometry" and func == "mc_centroid" and note is not None:
                samples, scene, degenerate = note
                out["geometry.mc_samples"] += samples
                out["geometry.mc_s"] += duration
                out["geometry.mc_degenerate"] += degenerate
                out["geometry.accept_ratio_sum"] += accept_ratio_computed(scene)
                out["geometry.accept_ratio_count"] += 1
        return out


# sums reported per traced pass
_PER_PASS = (
    [f"{layer}.{what}" for layer in LAYERS for what in ("calls", "self_s")]
    + ["solver.errors", "recurrence.terms", "figures.rows", "verify.checks",
       "verify.failed_families", "geometry.mc_degenerate"]
    + [f"figures.emit_s.{f}" for f in FIGURE_NAMES]
    + [f"verify.suite_s.{s}" for s in SUITE_NAMES]
)
# sums that only feed a mean or a ratio
_SUMMED = _PER_PASS + [
    "solver.iters_sum", "solver.iters_count", "lattice.solves", "lattice.anacci_calls",
    "geometry.mc_samples", "geometry.mc_s", "geometry.accept_ratio_sum",
    "geometry.accept_ratio_count",
]


def _empty_raw() -> dict:
    out = dict.fromkeys(_SUMMED, 0)
    out["solver.iters_max"] = 0
    return out


def merge(a: dict, b: dict) -> dict:
    out = {key: a[key] + b[key] for key in _SUMMED}
    out["solver.iters_max"] = max(a["solver.iters_max"], b["solver.iters_max"])
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def finalize(raw: dict, passes: int) -> dict:
    """Per-layer metrics: sums per traced pass, means and ratios as they are."""
    out = {key: raw[key] / passes for key in _PER_PASS}
    out["solver.iters_mean"] = _ratio(raw["solver.iters_sum"], raw["solver.iters_count"])
    out["solver.iters_max"] = raw["solver.iters_max"]
    calls = raw["lattice.anacci_calls"]
    out["lattice.hit_ratio"] = 1.0 - raw["lattice.solves"] / calls if calls else 0.0
    out["geometry.mc_samples_per_s"] = _ratio(raw["geometry.mc_samples"], raw["geometry.mc_s"])
    out["geometry.accept_ratio_computed"] = _ratio(
        raw["geometry.accept_ratio_sum"], raw["geometry.accept_ratio_count"])
    return out


# -- hooks: what a span keeps from its call, beyond its timing ---------------


def _iterations(args, kwargs, result, exc):
    return None if result is None else result.iterations


def _terms_generated(args, kwargs, result, exc):
    return None if result is None else len(result)


def _terms_iterated(args, kwargs, result, exc):
    return None if result is None else result.k_used + 1


def _emit_which(args, kwargs, result, exc):
    return args[0] if args else kwargs.get("which")


def _figure_rows(args, kwargs, result, exc):
    return None if result is None else len(result[1])


def _suite_counts(args, kwargs, result, exc):
    if result is None:
        return None
    return sum(r.count for r in result), sum(not r.passed for r in result)


def _mc_call(args, kwargs, result, exc):
    from anacci.errors import DegenerateShell

    params = dict(zip(("scene", "seed", "samples"), args))
    params.update(kwargs)
    return params["samples"], params["scene"], int(isinstance(exc, DegenerateShell))


def accept_ratio_computed(scene) -> float:
    """Shell volume over the volume of the larger body's bounding box.

    Computed from the public ``volume`` and ``axis_interval``; the lateral
    box extent is the body's full width across the axis.
    """
    from anacci import geometry

    # the untraced originals, so this bookkeeping records no spans
    dilate = inspect.unwrap(geometry.dilate)
    volume = inspect.unwrap(geometry.volume)
    axis_interval = inspect.unwrap(geometry.axis_interval)
    body = scene.body
    dilated = dilate(body, scene.O, scene.lam)
    big = dilated if scene.lam > 1.0 else body
    lo, hi = axis_interval(big)
    kind = big.kind.value
    width = {"ball": 2.0 * big.size, "cube": big.size, "cone": 2.0 * big.base,
             "pyramid": big.base}[kind]
    box = (hi - lo) * width ** (big.n - 1)
    return abs(volume(dilated) - volume(body)) / box


_HOOKS = {
    ("solver", "solve_lambda"): _iterations,
    ("recurrence", "generate"): _terms_generated,
    ("recurrence", "ratio_limit"): _terms_iterated,
    ("figures", "emit"): _emit_which,
    **{("figures", name): _figure_rows for name in FIGURE_NAMES},
    **{("verify", f"suite_{name}"): _suite_counts for name in SUITE_NAMES},
    ("geometry", "mc_centroid"): _mc_call,
}
