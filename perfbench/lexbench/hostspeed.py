"""Host speed: a fixed piece of reference work, timed between the steps
of every round.

The benchmark runs on shared hosts whose speed drifts: the same pure
Python loop takes from 0.65 to 1.0 s on a 2-vCPU Xeon VM (2.0 GHz) over
a minute, in phases of seconds to tens of seconds. A 40-second run
cannot average that out, so raw timings of two runs of the same code
differ by up to 30%. The end-to-end timings are therefore reported at a
fixed reference speed. A round probes the host before it starts, before
each triple and after it ends. Each stretch between two probes counts
REFERENCE_S over the mean of their probe times per second of clock
time. The probes' own time is left out of every timing.

The probe is the benchmark's own code. It never calls lexcf, so a change
to the program moves the scaled timings as it moves the raw ones; only
the host's speed cancels.
"""

import math
import statistics
import time

import numpy as np

# Median chunk time of probe() on the host the bounds were set on (the
# VM above): scaled timings equal raw ones at that speed.
REFERENCE_S = 0.008
CHUNKS = 9

_GRID = np.linspace(0.0, 1.0, 64)


def _chunk():
    """Interpreter work on small tuples, a dict and short numpy arrays,
    in about the mix lexcf's search loop runs."""
    counts = {}
    acc = 0.0
    for i in range(9000):
        key = (i * 7919) % 257
        counts[key] = counts.get(key, 0) + 1
        pair = (key, i & 7)
        acc += pair[0] * 0.5 - pair[1]
    row = _GRID
    for _ in range(300):
        row = np.abs(row - _GRID.mean()) / (1.0 + row.sum() * 1e-3)
    return acc + float(row[0]) + len(counts)


def probe():
    """Median time of CHUNKS runs of the reference work, in seconds."""
    times = []
    for _ in range(CHUNKS):
        start = time.perf_counter()
        _chunk()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Probes:
    """The probes taken during one round: (start, end, probe time)."""

    def __init__(self):
        self.marks = []

    def take(self):
        start = time.perf_counter()
        seconds = probe()
        self.marks.append((start, time.perf_counter(), seconds))

    def seconds(self, a, b, scaled=True):
        """Clock time from reading a to reading b, less the probes taken
        in between; scaled, at the reference speed."""
        if not self.marks:
            return b - a
        m = self.marks
        stretches = [(-math.inf, m[0][0], m[0][2])]
        stretches += [(e0, s1, (p0 + p1) / 2.0) for (_, e0, p0), (s1, _, p1) in zip(m, m[1:])]
        stretches.append((m[-1][1], math.inf, m[-1][2]))
        total = 0.0
        for lo, hi, probe_s in stretches:
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0.0:
                total += overlap * (REFERENCE_S / probe_s if scaled else 1.0)
        return total
