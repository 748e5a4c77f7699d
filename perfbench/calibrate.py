"""Host-speed calibration: timings in seconds of a reference-speed host.

The benchmark runs on shared hosts whose speed drifts with other
tenants' load: over minutes by up to 2x, on every workload at once, so
whole runs read slow or fast together.  To take that drift out, every
timed unit (a sweep job, a cold report section, a warm regeneration, a
set-up probe, a serve cycle) is followed, outside its timing, by
*calibration slices*: a fixed task owned by the benchmark — an
interpreter-bound dict loop and a numpy gather — that no program change
can speed up or slow down.  The slices sample the host's speed at that
moment; a unit's reported time is its measured time scaled by
``REFERENCE_SLICE_S`` over the mean of the slices that followed it (a
serve cycle: the slices on either side of it).  A program that gets
slower still reads slower: the slices do not run its code.
"""

from __future__ import annotations

import statistics
import time

#: Slice time of the reference host: a unit that took ``t`` seconds
#: while slices took ``s`` reads as ``t * REFERENCE_SLICE_S / s``.
REFERENCE_SLICE_S = 0.010
#: Calibration time after a unit, as a share of the unit's time (at
#: least one slice follows every unit).
SHARE = 0.10

_LOOP_ITERATIONS = 30_000
_GATHER_SOURCE = 1 << 19
_GATHER_INDICES = 1 << 17


def speed_factor(slice_seconds) -> float:
    """How much slower than the reference host the slices ran."""
    return statistics.fmean(slice_seconds) / REFERENCE_SLICE_S


def normalise(seconds: float, factor: float) -> float:
    """A unit's time on the reference host, given its speed factor."""
    return seconds / factor


class Calibrator:
    """Runs calibration slices after measured units and keeps their times."""

    def __init__(self) -> None:
        import numpy as np
        rng = np.random.default_rng(0)
        self._source = rng.random(_GATHER_SOURCE)
        self._indices = rng.integers(0, _GATHER_SOURCE, _GATHER_INDICES)
        #: every slice time of the run, in order
        self.slices: list[float] = []

    def _slice(self) -> float:
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        total = 0
        for i in range(_LOOP_ITERATIONS):
            table[i & 1023] = i
            total += table.get((i * 7) & 1023, 0)
        self._source[self._indices].sum()
        return time.perf_counter() - t0

    def after(self, seconds: float) -> float:
        """Calibrate right after a unit that took ``seconds``: run slices
        for at least ``SHARE`` of that time, and at least one; return
        the unit's speed factor."""
        times: list[float] = []
        while not times or sum(times) < SHARE * seconds:
            times.append(self._slice())
        self.slices.extend(times)
        return speed_factor(times)

    def run_factor(self) -> float:
        """Speed factor over every slice of the run so far."""
        return speed_factor(self.slices) if self.slices else 1.0
