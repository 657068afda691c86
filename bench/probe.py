"""Machine-speed probe for a shared, noisy host.

The host's speed drifts by tens of percent within a minute, and npivband's
own work drifts with it. The probe times a fixed numpy-only kernel between
operations: seeded normal draws and a cache-resident matrix product, shaped
like the bootstrap hot path, then a fresh 32 MB array that is written and
read twice, shaped like the large variance fields. Each measured duration is
rescaled to the speed at which the probe takes ``REF_S`` seconds, so a slower
host is divided out while npivband's share of the work is not. The array is
freed before the next operation, so it does not raise peak memory.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time the reported durations are scaled to; close to the probe's
#: time on an idle 2-core x86-64 host with one BLAS thread.
REF_S = 0.045

_N = 2000
_DRAWS = 128


class SpeedProbe:
    def __init__(self) -> None:
        self.rows = np.random.default_rng(0).standard_normal((256, _N))
        self.samples: list[float] = []

    def run(self) -> float:
        start = time.perf_counter()
        draws = np.empty((_N, _DRAWS))
        for b in range(_DRAWS):
            draws[:, b] = np.random.default_rng(np.random.SeedSequence((0, b))).standard_normal(_N)
        np.abs(self.rows @ draws).max(axis=0)
        big = np.full((2048, _N), 1.0)
        for cols in (slice(0, 16), slice(16, 32)):
            np.abs(big @ draws[:, cols]).max(axis=0)
        del big
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor taking a duration measured between two probes to reference seconds."""
        return REF_S / (0.5 * (before + after))
