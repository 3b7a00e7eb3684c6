"""Machine-speed reference loop and the idle check that guards it.

The host's speed drifts in phases that last seconds (a pure-Python loop
flips between ~13 and ~20 ms), so a raw wall-clock time says as much
about the phase as about the program. Every timed operation is
therefore also expressed in *reference units*: its time divided by the
time of a small fixed pure-Python loop measured right next to it.

A reading is only valid while the program is idle. The check: across
the reading, the process's CPU time (all threads) must equal the
reading thread's own CPU time, up to the host's clock-accounting skew.
If another thread of the program ran, the attempt is discarded and
retried; a reading whose every attempt fails is a violation, which the
run reports as a failure.
"""

from __future__ import annotations

import time
from typing import Optional

#: kernel size; one kernel pass takes ~75 µs on a 2-vCPU cloud VM
KERNEL_ITERATIONS = 100
#: kernel passes per reading; the reading is their minimum
REPEATS = 3
#: CPU time other threads may burn during a reading, as a share of the
#: reading thread's own. Even a single-threaded process shows up to
#: ~70 µs (~16 %) of clock-accounting skew about once in 3,000 readings;
#: a worker thread busy alongside burns about the whole reading.
IDLE_TOLERANCE = 0.4
#: readings attempted before a busy program is declared; a transient
#: skew passes on the next attempt, a busy thread stays busy
ATTEMPTS = 3


class _Item:
    __slots__ = ("key", "value", "name")

    def __init__(self, key: int, value: int, name: str):
        self.key = key
        self.value = value
        self.name = name

    def weight(self) -> int:
        return self.key + self.value


def ref_kernel(n: int = KERNEL_ITERATIONS) -> int:
    """Dict, str, small-object and method-call work in the interpreter,
    the mix the engine's own code runs."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = i & 31
        table[key] = table.get(key, 0) + i
        acc += len(str(i))
    items = [_Item(i, 2 * i, f"x{i}") for i in range(n)]
    groups: dict[int, list] = {}
    for item in items:
        groups.setdefault(item.key & 15, []).append(item)
        if item.name.startswith("x1"):
            acc += item.weight()
    return acc + len(groups)


class RefClock:
    """Takes reference readings and keeps them for the run details."""

    def __init__(self):
        self.readings: list[float] = []
        #: attempts refused by the idle check, and readings that failed
        #: every attempt
        self.discarded = 0
        self.violations = 0

    def read(self) -> Optional[float]:
        """One reading in seconds, or None when the program stayed busy
        through :data:`ATTEMPTS` attempts."""
        for _ in range(ATTEMPTS):
            reading = self._attempt()
            if reading is not None:
                self.readings.append(reading)
                return reading
            self.discarded += 1
        self.violations += 1
        return None

    def _attempt(self) -> Optional[float]:
        process0 = time.process_time()
        thread0 = time.thread_time()
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            ref_kernel()
            best = min(best, time.perf_counter() - start)
        thread1 = time.thread_time()
        process1 = time.process_time()
        own = thread1 - thread0
        if (process1 - process0) - own > IDLE_TOLERANCE * own:
            return None
        return best


def between(before: Optional[float], after: Optional[float]) -> Optional[float]:
    """The reference time of an operation timed between two readings
    (the valid one if only one is; None if neither is)."""
    valid = [r for r in (before, after) if r is not None]
    return sum(valid) / len(valid) if valid else None
