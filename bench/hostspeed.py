"""Host speed over a run, from fixed calibration work timed between scenarios.

On a shared host the same pass takes up to a third longer when neighbours
are busy, and the busy phases last minutes, longer than a run.  A fixed
block of interpreter work and an integer matrix product, timed before each
scenario, slows down with them.  `factor()` is the reference block time over
the run's mean block time; multiplying a measured time by it gives seconds
at the reference host's speed.  The block does not touch teelab, so a change
to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median over 15 tuning runs of the mean block time in a run, on the reference
# host: 2-core KVM Xeon, Python 3.11.7, numpy 2.4.6.
REFERENCE_BLOCK_S = 0.115

_MATRIX = np.random.default_rng(0).integers(0, 3, size=(320, 320), dtype=np.int64)


def _block() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc ^= ((acc << 1) | i) & 0xFFFFFFFFFFFF
    for _ in range(2):
        (_MATRIX @ _MATRIX.T) % 3
    return time.perf_counter() - start


class HostSpeed:
    def __init__(self):
        self.blocks: list[float] = []
        self.spent = 0.0  # seconds spent calibrating, to take out of an enclosing wall time

    def sample(self, seconds: float) -> None:
        """Run calibration blocks for about `seconds`, at least one."""
        start = time.perf_counter()
        self.blocks.append(_block())
        while time.perf_counter() < start + seconds:
            self.blocks.append(_block())
        self.spent += time.perf_counter() - start


def factor(blocks: list[float]) -> float:
    """Reference block time over the mean of the blocks timed during a run."""
    return REFERENCE_BLOCK_S / statistics.fmean(blocks)
