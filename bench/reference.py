"""A fixed pure-Python computation that measures how fast the machine is now.

On a shared machine the speed of the interpreter drifts by up to 2x over
seconds to minutes (other tenants on the same cores), so raw wall times of
the same work differ by more than any change worth detecting.  Speedometer
times this computation before, during (every 0.1 s) and after a unit of
work, and divides the unit's wall time by the mean; the quotient is the
unit's cost in reference units, which stays put while the machine speeds
up and slows down.  The work mixes what cfmmrep's hot loops do (calls, attribute reads,
float math through `math`, dict updates, float formatting) so that both slow
down alike.

Changing this code rescales every reference-unit metric: leave it as it is.
"""

import math
import signal
import statistics
import time


class _Cell:
    __slots__ = ("lo", "hi", "slope")

    def __init__(self, lo, hi, slope):
        self.lo, self.hi, self.slope = lo, hi, slope


def _integrand(cells, q):
    total = 0.0
    for cell in cells:
        if cell.lo <= q < cell.hi:
            total += cell.slope / q
    return total


def reference_work(n: int = 600):
    cells = [_Cell(0.1 * i + 0.05, 0.1 * i + 0.15, 1.0 / (i + 1)) for i in range(8)]
    acc, rows, table = 0.0, [], {}
    for i in range(n):
        q = 0.06 + 0.79 * (i / n)
        acc += math.log1p(_integrand(cells, q)) * math.exp(-q) + math.sqrt(q)
        table[i % 37] = table.get(i % 37, 0.0) + acc
        if i % 16 == 0:
            rows.append(f"{acc:.17g}")
    return acc, len(rows)


def reference_seconds() -> float:
    """Wall time of one run of the reference work (about 0.5 ms)."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class Speedometer:
    """Times units of work together with the machine's current speed.

    While a unit runs, a SIGALRM interval timer runs the reference work
    every `interval` seconds.  The handler runs in the main thread between
    bytecodes, so no thread is started; the time it takes is taken out of
    the unit's wall time.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self._samples = []
        self._spent = 0.0

    def _tick(self, signum, frame):
        seconds = reference_seconds()
        self._samples.append(seconds)
        self._spent += seconds

    def run(self, fn, *args):
        """(fn(*args), wall seconds of fn, mean reference seconds meanwhile)."""
        self._samples, self._spent = [reference_seconds()], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - start - self._spent
            signal.signal(signal.SIGALRM, previous)
        self._samples.append(reference_seconds())
        return result, elapsed, statistics.fmean(self._samples)
