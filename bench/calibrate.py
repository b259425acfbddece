"""A fixed reference kernel that tracks the host's speed during a run.

On a shared host the CPU speed a process gets drifts by 20-35% over
seconds to minutes, so the same request takes longer in one minute
than in the next.  A run times this kernel every SAMPLE_EVERY seconds
between its requests.  The kernel is plain `Fraction` elimination, the
kind of arithmetic planelift does, and calls nothing of planelift, so
no change to the package can change its cost.  `scale(t0, dt)` turns a
request's measured time into its time at nominal speed, using the
kernel samples taken while the request ran and up to WINDOW seconds
either side of it.
"""

import bisect
import random
import statistics
from fractions import Fraction

# Seconds between two samples of the kernel, and how far either side
# of a request its samples count for that request.
SAMPLE_EVERY = 0.1
WINDOW = 1.0
# The kernel's time at nominal host speed: its median time on a 2-vCPU
# virtual machine (Intel Xeon, 2.0 GHz, CPython 3.11.7) in a quiet
# minute.  Times are reported as if every run had that speed.
NOMINAL_S = 0.0035
SIZE = 9


def _matrix():
    rng = random.Random(0)
    return [[Fraction(rng.randrange(-2 ** 40, 2 ** 40),
                      rng.randrange(1, 2 ** 20)) for _ in range(SIZE)]
            for _ in range(SIZE)]


def kernel(rows):
    """Determinant by Fraction elimination (the pivots never vanish for
    the fixed matrix)."""
    a = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(SIZE):
        det *= a[col][col]
        for i in range(col + 1, SIZE):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


class Calibrator:
    """Kernel samples of one run: when each was taken and how long it
    took."""

    def __init__(self, clock):
        self.clock = clock
        self.rows = _matrix()
        self.want = kernel(self.rows)
        self.times = []
        self.samples = []
        self.last = None

    def sample(self):
        t0 = self.clock()
        det = kernel(self.rows)
        self.last = self.clock()
        self.times.append(t0)
        self.samples.append(self.last - t0)
        if det != self.want:
            raise RuntimeError("reference kernel gave a different answer")

    def maybe_sample(self):
        if self.last is None or self.clock() - self.last >= SAMPLE_EVERY:
            self.sample()

    def median(self):
        return statistics.median(self.samples)

    def factor(self):
        """How many times NOMINAL_S the kernel took over the whole run,
        by its median."""
        return self.median() / NOMINAL_S

    def scale(self, t0, dt):
        """A request that started at t0 and took dt seconds, at nominal
        speed: dt divided by the median kernel time over the request
        and WINDOW seconds either side, over NOMINAL_S.  The nearest
        sample stands in when none falls in that span."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW)
        hi = bisect.bisect_right(self.times, t0 + dt + WINDOW)
        if lo == hi:
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return dt * NOMINAL_S / statistics.median(self.samples[lo:hi])
