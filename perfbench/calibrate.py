"""Host-speed calibration for the end-to-end times.

A virtual machine that shares its host can change speed by up to 2x for
ten seconds or more at a time; on a 2-core Xeon VM the medians of two runs
of the same code differed by 40%.  A fixed kernel that never calls nclp runs right before
every timed item.  Each item's wall time is scaled by REFERENCE_MS over the
median kernel time of the five kernels around it, which turns it into
milliseconds at a fixed reference speed.  On that VM this cut the spread of
2-second medians of one item from 1.5-1.9x to 1.1-1.35x.  The raw wall times are
kept next to the scaled ones in every result file.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# Kernel time at the reference speed: about its time on an idle 2-core
# Xeon VM.  Only ratios to it matter.
REFERENCE_MS = 2.0
NEIGHBOURS = 2


class Calibration:
    """The kernel mixes what the workloads do: small LAPACK SVDs, elementwise
    numpy, a BLAS matmul, JSON and pure Python."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._large = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self._grid = np.linspace(0.01, 0.99, 1000)
        self._doc = {"rows": [[[0.5, -0.25]] * 16] * 16}

    def measure_ms(self) -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            np.linalg.svd(self._small)
        for _ in range(20):
            np.logaddexp(np.log(self._grid) * 1.5, 0.0).argmax()
        for _ in range(2):
            self._large @ self._large
        for _ in range(3):
            json.loads(json.dumps(self._doc))
        total = 0
        for i in range(3000):
            total += i * i
        return (time.perf_counter() - t0) * 1e3

    def speed_factor(self, samples: int = 5) -> float:
        """REFERENCE_MS over the median of a few kernel runs made now."""
        return REFERENCE_MS / statistics.median(self.measure_ms() for _ in range(samples))


def scaled(latencies_ms: list[float], kernel_ms: list[float]) -> list[float]:
    """Each latency times REFERENCE_MS over the median of its neighbours' kernels."""
    out = []
    for i, latency in enumerate(latencies_ms):
        local = kernel_ms[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1]
        out.append(latency * REFERENCE_MS / statistics.median(local))
    return out
