"""Reference speed for the calclab benchmark's times.

The shared host the benchmark was written on changes speed by up to about
2x, over spans from a second to minutes, as other tenants' load comes and
goes; CPU time stretches with it.  Raw times of two runs of the same code
can therefore differ by a quarter or more.  So every time in the
end-to-end metrics is scaled to a reference speed: a fixed probe that runs
no calclab code is timed next to the measured work, and a measured time is
multiplied by

    reference / (mean of the probe times just before and just after it).

A change to calclab moves the scaled times as it moves the raw ones; a
change of the host's speed moves the probe too and cancels.  There are two
probes, because the host does not slow all work alike: in-process cases
are scaled by a compute probe (a pure-Python loop and a small LAPACK call),
timed after every case; fresh processes (set-up and cli-oneshot cases) by
a process probe (a fresh interpreter importing numpy, which is most of
what a `python -m calclab.cli` process does before calclab's own code
runs).  Raw times are kept in the run's result record next to the scaled
ones.
"""

import bisect
import subprocess
import sys
import time

import numpy as np

# Median probe times on the reference host (2-vCPU shared x86-64 VM, Xeon,
# Python 3.11, numpy 2.4, BLAS capped at one thread).
COMPUTE_REFERENCE_S = 0.0022
PROCESS_REFERENCE_S = 0.22

_M = np.random.default_rng(0).standard_normal((40, 40))
_M = _M @ _M.T


def compute_probe_s() -> float:
    """Seconds one run of the fixed in-process probe takes now."""
    start = time.perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i
    for _ in range(10):
        np.linalg.eigvalsh(_M)
    return time.perf_counter() - start


def process_probe(env: dict, cwd) -> callable:
    """A probe that times a fresh interpreter importing numpy."""

    def probe_s() -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env, check=True)
        return time.perf_counter() - start

    return probe_s


class Speed:
    """Probe samples over a phase, and the scale factor for any interval in it.

    `every_s` is the least time between two samples taken by maybe_sample().
    """

    def __init__(self, probe, reference_s: float, every_s: float = 0.0) -> None:
        self.probe, self.reference_s, self.every_s = probe, reference_s, every_s
        probe()  # warm-up: first calls load code and fill caches
        self.ends: list[float] = []
        self.times: list[float] = []
        self.sample()

    def sample(self) -> None:
        took = self.probe()
        self.ends.append(time.perf_counter())
        self.times.append(took)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.ends[-1] >= self.every_s:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """The reference over the mean probe time around [start, end]."""
        before = max(0, bisect.bisect_right(self.ends, start) - 1)
        after = min(len(self.ends) - 1, bisect.bisect_left(self.ends, end))
        return 2.0 * self.reference_s / (self.times[before] + self.times[after])
