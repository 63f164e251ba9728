"""A fixed reference computation that measures the host's momentary speed.

On a shared host the same code runs up to about 1.6 times slower for tens
of seconds at a time. The benchmark times this kernel right before and
right after each repetition and scales the repetition's time by
`NOMINAL_S / kernel time`, so a slow spell slows both and cancels. The
kernel is independent of the package, so a change to the package moves
the scaled time exactly as it moves the raw time.

The kernel mixes the three kinds of work the package does: an interpreted
loop, many small numpy calls, and one pass over an array larger than the
last-level cache.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on an unloaded 2-vCPU x86-64 VM (Python 3.11, numpy 2.4);
# scaled times read as seconds on that machine.
NOMINAL_S = 0.011


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random((64, 4))
        self.big = rng.random(1 << 20)  # 8 MiB

    def _kernel(self) -> float:
        acc = 0.0
        small = self.small
        for i in range(1200):
            row = small[i % 64]
            hits = np.nonzero((small[:, 0] <= row[1]) & (small[:, 2] >= row[3]))[0]
            for j in hits[:4].tolist():
                acc += min(small[j, 0], small[j, 1]) * (i % 7)
        return acc + float(np.cumsum(self.big)[-1])

    def seconds(self, repeats: int = 3) -> float:
        """Median time of `repeats` kernel runs."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
