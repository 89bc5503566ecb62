"""Host-speed reference for the benchmark's end-to-end timings.

The benchmark runs on small shared virtual machines whose speed drifts by
tens of percent over minutes, as neighbours load the same physical cores,
caches and memory.  Wall time and CPU time drift together, so neither alone
separates the program from the host.

Each workload names a reference kernel: a fixed piece of work of the same
kind as its operations (numpy draws and passes over arrays, scalar Python
arithmetic and float formatting, or a fresh interpreter importing numpy)
that calls nothing in privacy_lab.  The timed loop runs the kernel between
operations, never inside one, at most once per `EVERY_S` seconds.  A host
factor is a kernel time over the kernel's nominal time (`NOMINAL_S`, its
median on a quiet 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4).  The
host's speed swings within seconds, so each operation's time is divided by
the factor of the latest kernel sample, taken just before it, and the
end-to-end timings are computed from those scaled times: they read as
seconds on that quiet host.  Each set-up, a fresh process started before
the loop, is scaled by the spawn kernel timed just before it, since every
set-up starts an interpreter and imports numpy.  The detail line keeps
every timing as measured, with the run's median factor.

A change to the library does not run inside the kernels, so it moves the
scaled timings as it moves the measured ones, unless it leaves work running
between operations (a busy background thread), which the kernels would feel.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent


def numpy_kernel() -> None:
    """Draws and passes over 4 MB arrays, like Monte Carlo chunks and their
    reduction; small enough to leave a workload's peak RSS where it was."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(20240601))
    for _ in range(4):
        a = rng.standard_normal(500_000)
        b = a * 1.5 + 0.25
        float(b.sum() + (b * a).sum())


def python_kernel() -> None:
    """Scalar float arithmetic, calls and float formatting, like the closed forms and renderers."""
    total = 0
    for k in range(1, 20_000):
        x = math.sqrt(k * 1.25) / (1.0 + k * 1e-3)
        total += len(repr(x * x - math.log1p(x)))


def spawn_kernel() -> None:
    """A fresh interpreter that imports numpy, like a CLI invocation's start-up."""
    subprocess.run(
        [sys.executable, "-c", "import numpy"], cwd=ROOT, stdin=subprocess.DEVNULL, check=True
    )


NOMINAL_S = {numpy_kernel: 0.038, python_kernel: 0.016, spawn_kernel: 0.105}
EVERY_S = 0.5  # at this rate kernel samples take 1-20% of a run's time


class HostReference:
    """Timed samples of one kernel."""

    def __init__(self, kernel: Callable[[], None]):
        self.kernel = kernel
        self.samples: list[float] = []
        self._last = -math.inf

    def tick(self) -> None:
        """Time the kernel once, unless it ran less than EVERY_S seconds ago."""
        if time.perf_counter() - self._last < EVERY_S:
            return
        t0 = time.perf_counter()
        self.kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    @property
    def latest(self) -> float:
        """Latest kernel time over its nominal time: above 1 on a slow host."""
        return self.samples[-1] / NOMINAL_S[self.kernel]

    @property
    def factor(self) -> float:
        """Median kernel time over its nominal time."""
        return statistics.median(self.samples) / NOMINAL_S[self.kernel]
