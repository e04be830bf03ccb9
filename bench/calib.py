"""Machine-speed calibration for a shared, noisy host.

On the 2-core machine this benchmark was written on, the same Python loop
ran at speeds up to 40 % apart from one half-minute to the next, most
likely because other tenants share the physical cores.  CPU time drifts
the same way, so it is no help.  A run therefore times a fixed unit of
work, interleaved with the program's work, and multiplies each measured
time by ``reference / median(unit seconds)`` over the samples taken
around it: the figures read as if the machine ran at its reference
speed.  The speed also changes within seconds, so the median is local,
not one per run.  A change to the program leaves the unit alone, so it
moves the scaled figures as much as the raw ones.

Interpreter-bound and memory-bound work do not speed up and slow down
alike, so there are two units.  ``python`` (object allocation, recursion,
attribute reads, tuple hashing, dicts) is the mix the checker's loops are
made of.  ``numpy`` (table lookups by fancy indexing over arrays of a few
MB) is what the lattice sweeps of the models workload spend their time on.
Measured over three minutes of windows, scaling the sweeps by the python
unit left more spread than no scaling at all; the numpy unit halved it.
"""

from __future__ import annotations

import statistics
import time

# program seconds between two calibration samples, and the samples that
# make one item's local speed estimate
EVERY_S = 0.05
WIDTH = 11


class _Node:
    __slots__ = ("down", "value")

    def __init__(self, down, value):
        self.down = down
        self.value = value


def _build(n):
    return None if n == 0 else _Node(_build(n - 1), n)


def python_unit():
    seen = {}
    for i in range(500):
        node, total = _build(20), 0
        while node is not None:
            total += node.value
            node = node.down
        key = (i % 37, total % 11, isinstance(node, _Node))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


_ARRAYS = []


def numpy_unit():
    import numpy as np
    if not _ARRAYS:
        rng = np.random.default_rng(0)
        _ARRAYS.extend((rng.integers(0, 96, size=(96, 96)),
                        rng.integers(0, 96, size=200_000),
                        rng.integers(0, 96, size=200_000)))
    table, x, y = _ARRAYS
    for _ in range(3):
        x = table[x, y]
    return int(x[0])


# unit -> (function, its median seconds on the reference machine:
# 2 cores, Python 3.11.7, numpy 2.4.6)
UNITS = {"python": (python_unit, 0.0030), "numpy": (numpy_unit, 0.0035)}


class Speed:
    """Calibration samples of one pass, for each of ``units``.  ``due(i,
    seconds)`` is called after item i took ``seconds`` and samples once
    EVERY_S seconds of program time have passed since the last sample."""

    def __init__(self, units=("python",)):
        self.samples = {u: [] for u in units}
        self.after = []         # index of the item each sample follows
        self._since = 0.0

    def sample(self, after=-1):
        for unit, samples in self.samples.items():
            t0 = time.perf_counter()
            UNITS[unit][0]()
            samples.append(time.perf_counter() - t0)
        self.after.append(after)

    def due(self, i, program_s):
        self._since += program_s
        if self._since >= EVERY_S:
            self._since = 0.0
            self.sample(i)

    def local_scales(self, n_items, width=WIDTH):
        """unit -> per item, the factor that turns its measured time into
        reference-speed time: reference / median of the ``width`` samples
        nearest the item, so that speed phases shorter than a pass are
        followed."""
        out = {}
        for unit, samples in self.samples.items():
            ref = UNITS[unit][1]
            factors, j = [], 0
            for i in range(n_items):
                while j < len(self.after) and self.after[j] < i:
                    j += 1
                lo = max(0, min(j - width // 2, len(samples) - width))
                factors.append(ref / statistics.median(samples[lo:lo + width]))
            out[unit] = factors
        return out
