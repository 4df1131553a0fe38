"""Machine-speed reference for timing on a shared host.

On a shared 2-vCPU VM the same operation's CPU time swings by 20-40%
over seconds (wall time equals CPU time, so this is not steal time).
``Clock`` measures a fixed reference kernel, independent of the program
under test, in blocks of its own between operations, and scales each
operation's wall time by ``REFERENCE_MS / reference time`` around it.

The kernel runs with the garbage collector off, on a small working set
that it allocates once, so a program that grows the heap or makes more
garbage does not slow the reference; ``bench/README.md`` records a
synthetic memory-heavy slowdown that scaling leaves in full.
"""

import gc
import statistics
import time

import numpy as np

# the median block over five 25 s family runs on a shared 2-vCPU VM
# (x86-64, OpenBLAS 0.3.31, one thread); scaled times read as wall times
# on that machine when it runs at that speed
REFERENCE_MS = 1.4
# reference samples in one block; the block's time is their median
BLOCK = 3
# operation time between two blocks
EVERY_NS = 200_000_000


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [rng.standard_normal((n, n)) + n * np.eye(n) for n in (4, 8, 16, 32)]
        self._large = rng.standard_normal((150, 150)) + 150 * np.eye(150)

    def sample_ns(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            acc = 0.0
            for _ in range(10):
                for m in self._small:
                    acc += float(np.linalg.solve(m, m[:, 0])[0])
                    acc += sum(float(v) for v in m[0])
            acc += float(np.linalg.solve(self._large, self._large[:, 0])[0])
            elapsed = time.perf_counter_ns() - start
        finally:
            if enabled:
                gc.enable()
        if not np.isfinite(acc):
            raise FloatingPointError("reference kernel lost its inputs")
        return elapsed


class Clock:
    """Operation times, with reference blocks every ``every_ns`` of
    operation time."""

    def __init__(self, reference=None, every_ns=EVERY_NS):
        self.reference = Reference() if reference is None else reference
        self.every_ns = every_ns
        self.blocks = []
        self.ops = []
        self._since = 0
        self.block()

    def block(self):
        self.blocks.append(statistics.median(self.reference.sample_ns() for _ in range(BLOCK)))
        self._since = 0

    def add(self, key, elapsed_ns):
        """Record one operation; run a block once enough time has passed."""
        self.ops.append((key, elapsed_ns, len(self.blocks) - 1))
        self._since += elapsed_ns
        if self._since >= self.every_ns:
            self.block()

    def close(self):
        """End the run with a block, so every operation has one after it."""
        if self.ops and self.ops[-1][2] == len(self.blocks) - 1:
            self.block()

    def scale(self, index):
        """Factor for an operation timed between blocks ``index`` and
        ``index + 1``: the reference speed is their mean."""
        around = self.blocks[index:index + 2]
        return REFERENCE_MS * 1e6 / statistics.fmean(around)

    def scaled(self):
        """{key: [scaled ns, ...]}."""
        out = {}
        for key, elapsed, index in self.ops:
            out.setdefault(key, []).append(elapsed * self.scale(index))
        return out
