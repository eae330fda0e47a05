"""Machine-speed calibration: a fixed piece of interpreter work, timed next
to the measured work.

On a shared host the speed of a vCPU swings by up to about 1.5x for seconds
or minutes at a time, as other tenants load the sibling hardware thread. A
fixed unit of pure-Python work timed next to a measured stretch slows down
with it. Every reported time is the measured time multiplied by
``NOMINAL_S`` over the mean time of the units around it: the time the work
would take on a machine that runs one unit in ``NOMINAL_S``. The reference
work does not use ``ultratree``, so a change to the package moves the
reported times as it moves the measured ones.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# one unit takes about this long on a quiet 2-vCPU VM; it only sets the scale
NOMINAL_S = 0.0005
# calibrate this often during measured work, so a swing is caught within it
EVERY_S = 0.05


def _reference_work():
    """A fixed mix of the work the package does: Fraction arithmetic and
    comparison, dict updates, nested lists and sorting."""
    total = Fraction(0)
    for i in range(60):
        a = Fraction(i % 7, 1 + i % 5)
        total = max(total, a) + a / 3
    counts = {}
    for i in range(400):
        key = (i * 7919) % 101
        counts[key] = counts.get(key, 0) + i
    rows = [[(i * j) % 13 for j in range(24)] for i in range(24)]
    best = min(min(r) + max(r) for r in rows)
    names = sorted(str(i * 31 % 97) for i in range(300))
    return total, best, len(names), len(counts)


def unit_s(units: int = 2) -> float:
    """Mean CPU time of one unit of reference work over ``units`` units,
    after one untimed unit that brings its code and data back into cache.

    CPU time of this thread, not wall time: during a pool sweep the workers
    keep both vCPUs busy, and the wall time of a calibration would count
    the time it waits for them."""
    _reference_work()
    start = time.thread_time()
    for _ in range(units):
        _reference_work()
    return (time.thread_time() - start) / units


def factor(unit_times) -> float:
    """Scale for a time measured among calibrations of these unit times."""
    return NOMINAL_S * len(unit_times) / sum(unit_times)


def warm_up(seconds: float = 0.2) -> None:
    """Run units until the first ones' cold-start cost is gone."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        unit_s()


class During:
    """Calibrations taken from a SIGALRM handler every ``EVERY_S`` seconds
    while the block runs, for work that cannot be split (a sweep, a
    set-up).

    ``units`` holds the unit times; ``spent_s`` is the time the handler
    took, to be taken off the measured time.
    """

    def __init__(self):
        self.units: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.units.append(unit_s())
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
