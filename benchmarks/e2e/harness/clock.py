"""Wall-clock measurement on a shared, noisy host.

The reference box's timing noise is one-sided and slow: the CPU has a
stable floor and, for seconds to minutes at a time, runs 5-25 % slower
when a neighbour shares the hardware (process CPU time slows with it, so
it is not preemption).  A mean or median over a ten-second run inherits
that (10 % run-to-run on a bad day).  Two defences, both applied to
every wall metric; together they bring it to about 2 %:

* **host speed** — a short pure-Python calibration loop (no code from
  ``src/``, so no change to the program can move it) runs between the
  timed parts all through a run, and durations are scaled by the host's
  speed against ``REFERENCE_RATE`` into reference-box seconds.  Work
  done in this process is scaled by the speed *around each part* (the
  lower quartile of the four nearest samples).  ``tcp-mixed`` keeps two
  processes busy, which one thread's loop between phases cannot see, so
  it is scaled by the run's *quiet* speed (the lowest decile of all
  samples) — enough to take out the drift that outlasts a run.
* **quiet time** — a wall duration is measured as a sequence of parts
  (ladder steps, quarters of a phase), the whole sequence is repeated
  once per round, and the reported duration is the sum over parts of
  the *fastest* repeat, in reference-box seconds: what the work costs
  when the host is quiet.  All work is counted; only the slow episodes
  that the scaling did not catch are dropped.
"""

from __future__ import annotations

import heapq
import time
from typing import Sequence

#: Calibration iterations per second on the quiet 2-core reference box.
REFERENCE_RATE = 1.78e6
_ITERATIONS = 20_000


def calibrate() -> float:
    """Seconds for a fixed generator/heap/dict workout — the kind of
    work the simulator's kernel does, in plain stdlib Python (~11 ms)."""
    heap: list = []
    table: dict = {}

    def ticks():
        for index in range(_ITERATIONS):
            yield index

    start = time.perf_counter()
    for index in ticks():
        heapq.heappush(heap, ((index * 7919) % 10007, index))
        table[index & 1023] = (index, heap[0])
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


def _low(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[int(share * len(ordered))]


def _factor(calibration_seconds: float) -> float:
    """Host speed relative to the reference box (1.0 = the same)."""
    return _ITERATIONS / calibration_seconds / REFERENCE_RATE


class PartClock:
    """Collects one round's timed parts and the calibration samples
    between them.

    Create it right before the first part; call :meth:`close` right
    after each part with its wall seconds (or with the consecutive parts
    of one phase: together they are one *bracket*).  Every call takes
    the calibration sample that ends this bracket and begins the next,
    so calibration never runs inside a timed part.
    """

    def __init__(self) -> None:
        self.samples = [calibrate()]
        self.brackets: list = []

    def close(self, *walls: float) -> None:
        self.samples.append(calibrate())
        self.brackets.append(list(walls))

    def speed(self) -> float:
        """The round's median host speed (1.0 = the reference box)."""
        return _factor(_low(self.samples, 0.5))

    def scaled_locally(self) -> list:
        """Every bracket in reference-box seconds, by the host speed
        around it: the lower quartile of the four nearest samples."""
        return [[wall * _factor(_low(self.samples[max(0, index - 1):
                                                  index + 3], 0.25))
                 for wall in walls]
                for index, walls in enumerate(self.brackets)]


def scaled_by_quiet_speed(clocks: Sequence[PartClock]) -> list:
    """Every clock's brackets in reference-box seconds, all by the one
    quiet speed of the whole run: the lowest decile of all samples."""
    factor = _factor(_low([sample for clock in clocks
                           for sample in clock.samples], 0.10))
    return [[[wall * factor for wall in walls] for walls in clock.brackets]
            for clock in clocks]


def quiet_seconds(repeats: Sequence[Sequence[float]]) -> float:
    """Sum over parts of the fastest repeat.  ``repeats[r][p]`` is the
    duration of part ``p`` in repeat ``r``; repeats may differ in length
    by a trailing part (only common parts are compared)."""
    parts = min(len(repeat) for repeat in repeats)
    return sum(min(repeat[part] for repeat in repeats)
               for part in range(parts))
