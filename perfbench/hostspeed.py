"""Host-speed calibration for the gldpsim benchmark.

The benchmark runs on a few cores of a shared host whose speed changes by
tens of percent within a second and drifts over minutes; CPU time changes
with wall time, so raw timings move with the host rather than with the
program. The benchmark therefore times a fixed kernel at the boundaries of
every timed span (an experiment's set-up, each of its rounds, its output)
and scales each span by ``REFERENCE_S / kernel time``, using the kernel runs
at its two ends. Timings are reported in seconds of a host on which the
kernel takes ``REFERENCE_S``; kernel time itself is never counted. The
kernel mixes what the simulator spends its time on (small matmuls issued
one call at a time, a vectorised pass over an array, JSON encoding of
floats, dict-heavy Python) and calls no gldpsim code, so a change to the
simulator cannot move it. Raw wall times are kept next to the scaled ones
in the benchmark's detail file.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Typical kernel time on a 2.1 GHz Xeon vCPU in a quiet phase of its host
# (9-10 ms with numpy 2.4, OpenBLAS 0.3.31); only the unit of the reported
# seconds depends on it.
REFERENCE_S = 0.010


class HostSpeed:
    """Times the calibration kernel and scales spans by its speed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # Inputs and outputs are allocated once and small enough to stay in
        # cache, so the kernel's time does not depend on the allocator or
        # cache state the preceding span left behind.
        self._weight = rng.standard_normal((16, 64))
        self._batch = rng.standard_normal((2, 16))
        self._hidden = np.empty((2, 64))
        self._wide = rng.standard_normal((400, 64))
        self._center = self._wide.mean(axis=0)
        self._gap = np.empty_like(self._wide)
        self._records = [[float(v) for v in rng.standard_normal(64)] for _ in range(20)]
        self.kernel_seconds: list[float] = []
        self.kernel()  # first-call set-up inside numpy

    def kernel(self) -> float:
        """Run the fixed kernel once; return and record its wall time."""
        started = time.perf_counter()
        for _ in range(800):
            np.matmul(self._batch, self._weight, out=self._hidden)
            np.maximum(self._hidden, 0.0, out=self._hidden)
            self._hidden.sum()
        for _ in range(80):
            np.subtract(self._wide, self._center, out=self._gap)
            np.square(self._gap, out=self._gap)
            self._gap.sum()
        for _ in range(5):
            json.dumps(self._records)
        counts: dict[int, int] = {}
        for i in range(20_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        seconds = time.perf_counter() - started
        self.kernel_seconds.append(seconds)
        return seconds

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between kernel runs ``before`` and ``after``."""
        return seconds * REFERENCE_S / ((before + after) / 2.0)


class Stopwatch:
    """Times one sample as spans, each scaled on its own.

    ``start()`` runs the kernel and starts a span; every ``mark()`` ends the
    current span, runs the kernel and starts the next; ``stop()`` ends the
    span. ``seconds`` is the raw time of the spans since ``reset()`` and
    ``scaled`` their scaled time; the kernel runs count in neither.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.seconds = 0.0
        self.scaled = 0.0
        self.spans = 0
        self._before = 0.0
        self._started = 0.0

    def reset(self) -> None:
        self.seconds = self.scaled = 0.0
        self.spans = 0

    def start(self) -> None:
        self._before = self.speed.kernel()
        self._started = time.perf_counter()

    def mark(self) -> None:
        self.stop()
        self._started = time.perf_counter()

    def stop(self) -> None:
        seconds = time.perf_counter() - self._started
        after = self.speed.kernel()
        self.seconds += seconds
        self.scaled += self.speed.scale(seconds, self._before, after)
        self.spans += 1
        self._before = after
