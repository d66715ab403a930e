"""Host speed, sampled while the benchmark's rounds run.

The benchmark runs on a few virtual CPUs of a shared host, and the speed that
host gives to the same work drifts by about +-25% over tens of seconds. A
`Sampler` measures that drift: while a round runs, a SIGALRM handler in the
main thread times a fixed probe every `interval` seconds. The probe does the
three kinds of work gainflow does, on fixed inputs and without gainflow: a
pure-Python loop, NumPy/LAPACK calls on 2 x 2 matrices, and dense 100 x 100
solves. No change to the program can change its cost; only the host (and the
library versions) can. The handler's own wall and CPU time are counted, so
the benchmark can take them out of the round's time.

`slowdown(samples)` is the median probe time over `NOMINAL_PROBE_S`, the
median probe time measured on the reference host; above 1 the host ran
slower than it did there. The end-to-end timings are divided by it, which
states them at the reference host's speed.

NumPy is imported on the first probe, not with this module, so that the
caller can set the BLAS thread count before NumPy loads.
"""

from __future__ import annotations

import signal
import statistics
import time

# Median time of `probe()` on the reference host of README.md, with one
# BLAS thread.
NOMINAL_PROBE_S = 4.0e-3


def probe() -> float:
    import numpy as np

    total = 0
    for i in range(15_000):
        total += i * i % 7
    a = np.array([[-2.0, 1.0], [0.3, -1.0]])
    b = np.array([[1.0], [0.5]])
    for _ in range(20):
        total += np.linalg.eigvals(a).real.sum() + np.linalg.solve(a, b).sum()
        total += (a @ a.T + np.eye(2)).sum()
    dense = 50.0 * np.eye(100) + np.sin(np.arange(10_000.0)).reshape(100, 100)
    for _ in range(4):
        total += np.linalg.solve(dense, np.ones((100, 1))).sum()
    return total


def probe_seconds() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def slowdown(samples: list[float]) -> float:
    return statistics.median(samples) / NOMINAL_PROBE_S


class Sampler:
    """Times `probe()` every `interval` seconds of wall time between `start`
    and `stop`, from a SIGALRM handler in the main thread."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.samples: list[float] = []
        self.wall = 0.0  # wall and process CPU time spent in the handler
        self.cpu = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        probe()
        wall = time.perf_counter() - wall0
        self.samples.append(wall)
        self.wall += wall
        self.cpu += time.process_time() - cpu0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
