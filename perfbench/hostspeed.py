"""A fixed reference kernel that measures how fast the host runs right now.

On a small shared VM the speed of the CPU drifts by 20-40% over minutes, as
other tenants come and go, so two runs of the same code minutes apart can
differ by that much in wall time. The gated times divide that drift out: the
run times this kernel between every two passes (and set-ups), and each pass's
wall time is scaled by ``REF_SECONDS / ref`` where ``ref`` is the mean of the
kernel times on either side of it. The result reads as seconds on a host at
the reference speed.

The kernel never calls the program, so a change to the program moves the
scaled figure in the same proportion as the wall time. Its work mirrors the three
kinds of work the workloads do: a pure-Python loop over label sets, a loop
of small numpy operations (the per-point updates) and large array passes
(encode, refresh, ranking). Its inputs are fixed, so its work never changes.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's median time on a quiet 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4, BLAS pinned to one thread). Only the unit of the scaled figures
# depends on it.
REF_SECONDS = 0.36

# One timing runs the kernel this many times, so that the reference's own
# jitter stays small next to the drift it tracks.
REPEATS = 3


class Reference:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.sets = [
            frozenset(rng.choice(16, size=1 + i % 3, replace=False).tolist()) for i in range(4000)
        ]
        self.queries = [set(s) for s in self.sets[:40]]
        self.rows = rng.standard_normal((20_000, 64))
        self.proj = rng.standard_normal((64, 64))
        self.keys = rng.integers(0, 64, 100_000)
        self.vec = rng.standard_normal(64)
        self.small = rng.standard_normal((64, 32))

    def _python(self) -> int:
        n = 0
        for q in self.queries:
            for d in self.sets:
                if q & d:
                    n += 1
        return n

    def _small_numpy(self) -> float:
        x = self.vec
        for _ in range(3000):
            y = x @ self.small
            x = x + 1e-3 * np.where(y >= 0, 1.0, -1.0).sum()
        return float(x[0])

    def _large_numpy(self) -> int:
        # Five passes over a small block keep the kernel's memory out of the
        # peak RSS that the workloads report.
        n = 0
        for _ in range(5):
            n += int(np.packbits(self.rows @ self.proj > 0, axis=1)[0, 0])
        return n + int(np.argsort(self.keys, kind="stable")[0])

    def seconds(self) -> float:
        """Wall time of REPEATS runs of the kernel."""
        t0 = perf_counter()
        for _ in range(REPEATS):
            self._python()
            self._small_numpy()
            self._large_numpy()
        return perf_counter() - t0


def scaled_median(pairs) -> float:
    """Median over (wall seconds, reference seconds) pairs of the scaled wall time."""
    return float(np.median([wall * REF_SECONDS / ref for wall, ref in pairs]))
