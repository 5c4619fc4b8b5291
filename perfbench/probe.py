"""Host-speed probe: a fixed piece of work, timed again and again through
a run.

On a shared host the speed of this one changes by up to a factor of two,
in stretches of a second to minutes, and other tenants set it, not the
program.  A probe shares no code with the library, so its time measures
the host alone.  Each workload runs its probe after an op whenever
``INTERVAL_S`` have passed since the last one, outside every op timing,
and the benchmark reports each op's time scaled to a host on which one
probe takes ``REFERENCE_S[kind]``:

    reported = measured * REFERENCE_S[kind] / median of the probes around the op

A change to the library moves the measured times and leaves the probe
alone, so it shows in full; a slower or faster stretch of the host moves
both and cancels.  Work of different kinds slows by different amounts, so
each workload uses the probe kind closest to its ops: pure-Python float
work for the solver and the paper's sweeps, numpy sampling for the Monte
Carlo oracle, and an interpreter start for the CLI processes.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from array import array

# Time of one probe of each kind on a 2-vCPU VM (Python 3.11, numpy 2.4)
# at its faster speed: the host whose time the reported figures are given in.
REFERENCE_S = {"python": 0.0017, "numpy": 0.0012, "spawn": 0.065}
# time after a probe before the next op end triggers another
INTERVAL_S = 0.1
# an op is scaled by the median of this many probes before it and as many
# after it: enough to outvote a single odd probe, few enough to follow a
# change of the host's speed within a second or so
WINDOW = 4
# share of the slowest and of the fastest samples a trimmed mean leaves out
TRIM = 0.1


def trimmed_mean(values) -> float:
    ordered = sorted(values)
    cut = int(TRIM * len(ordered))
    kept = ordered[cut:len(ordered) - cut]
    return math.fsum(kept) / len(kept)


def _power_gap(x: float, q: float) -> float:
    return x ** q - x ** (q - 1.0) - 1.0


def python_kernel(n: int = 3000) -> float:
    """Float powers and logs, calls, a raised exception, a dict and string
    formatting: the kinds of work the library's Python layers do."""
    total = 0.0
    for i in range(1, n):
        x = 1.0 + i * 1e-4
        total += math.log(abs(_power_gap(x, 2.0 + i % 7)) + 1.0) / (x + 1.0)
        if i % 97 == 0:
            try:
                raise ValueError(i)
            except ValueError:
                total -= 1e-9
    counts: dict = {}
    cells = []
    for i in range(n // 4):
        counts[i % 101] = counts.get(i % 101, 0.0) + i * 0.5
        cells.append(f"{i},{i * 0.5!r}")
    return total + sum(counts.values()) + len(",".join(cells))


def numpy_kernel(blocks: int = 16, rows: int = 1000, dims: int = 8) -> float:
    """Hit-or-miss sampling as in a Monte Carlo estimate: Philox uniforms,
    a box test, a mask and two sums.  The blocks stay below the allocator's
    mmap threshold, so the probe leaves the heap, and the peak memory of
    the workload, as it found them."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=7))
    total = 0.0
    for _ in range(blocks):
        u = rng.random((rows, dims))
        hits = (u.sum(axis=1) < dims / 2) & (u[:, 0] > 0.1)
        xs = u[hits, 0]
        total += float(xs.sum()) + float((xs * xs).sum())
    return total


def spawn_kernel() -> None:
    """A bare interpreter start, as each CLI process begins with."""
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)


KERNELS = {"python": python_kernel, "numpy": numpy_kernel, "spawn": spawn_kernel}


class Probe:
    """Probe times of one run, and the end time of each op between them."""

    def __init__(self, kind: str):
        self.kind = kind
        self.kernel = KERNELS[kind]
        self.samples = array("d")
        self.starts = array("d")  # perf_counter time each probe began
        self.op_ends = array("d")  # perf_counter time each op ended, in run order
        self.due = 0.0  # perf_counter time of the next probe

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.starts.append(t0)
        self.due = t1 + INTERVAL_S

    def poll(self, now: float) -> None:
        """Record an op that ended at ``now``, and probe if ``INTERVAL_S``
        has passed since the last probe."""
        self.op_ends.append(now)
        if now >= self.due:
            self.sample()

    def op_scales(self) -> list[float]:
        """For each op in run order, the factor that turns its seconds into
        reference seconds, from the probes around it.  The run must begin
        and end with a probe."""
        reference = REFERENCE_S[self.kind]
        scales, before, local = [], 0, None
        for end in self.op_ends:
            while self.starts[before + 1] < end:
                before += 1
                local = None
            if local is None:
                window = self.samples[max(0, before + 1 - WINDOW):before + 1 + WINDOW]
                local = reference / statistics.median(window)
            scales.append(local)
        return scales

    def seconds(self) -> float:
        """Trimmed mean of the probe times."""
        return trimmed_mean(self.samples)

    def scale(self) -> float:
        """Factor that turns this run's seconds into reference seconds."""
        return REFERENCE_S[self.kind] / self.seconds()
