"""Machine speed during a pass, from a fixed reference kernel.

On a shared virtual machine the same pass can take twice as long from one
minute to the next, in CPU time as much as in wall time, because of load
outside the machine.  `RefSpeed` runs a small reference kernel every
PERIOD_S seconds of a pass from a SIGALRM handler (in the main thread, so no
extra thread) and records when it ran and how long it took.  `factor()`
then gives the factor that takes the pass's time to seconds at the nominal
speed, where the kernel takes NOMINAL_KERNEL_S: each stretch of the pass
between two samples is scaled by NOMINAL_KERNEL_S over the kernel time of
the sample that ends it (a running median of SMOOTH samples), so a pass
during which the machine changes speed is scaled by the speed it ran at.
The result moves with the program's speed but hardly with the machine's.

The kernel is the benchmark's own code: a stencil-like gather, NaN masking
and steepest-pair selection on a 33 x 33 grid, like one half-sweep of the
solver, so that it slows down with the machine as the solver does, yet no
change to inflap can make it faster or slower.  Each sample runs the kernel
twice and times the second run, so that the caches the pass left behind do
not count.  The handler's own time is subtracted from the pass time.

`setup_scale()` times the same kernel right after a process's set-up, so
that a set-up time can be given in seconds at the nominal speed too.  There
the kernel runs after the work, not during it, and set-up work (reading and
unmarshalling modules) slows down less than the kernel in the machine's slow
state, so the ratio is taken to the power SETUP_EXPONENT.  Over three sets
of ten runs, 0.75 gave set medians within 5 % of each other, the plain ratio
within 12 %.
"""

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
SMOOTH = 5
# median kernel time on the 2-vCPU Intel Xeon VM where the bounds were set
NOMINAL_KERNEL_S = 160e-6
SETUP_EXPONENT = 0.75
SETUP_KERNEL_RUNS = 51


class RefSpeed:
    """Context manager sampling the reference kernel during one pass."""

    def __init__(self):
        grid = np.random.default_rng(1).random((37, 37))
        self._grid = grid
        self._mask = grid[2:35, 2:35] > 0.1
        self._arms = np.empty((8, 33, 33))
        self.samples = []
        self.spent_s = 0.0

    def kernel(self):
        t0 = perf_counter()
        g, mask, arms = self._grid, self._mask, self._arms
        for k in range(8):
            i, j = k % 3, (5 * k) % 4
            p = np.where(mask, g[i:i + 33, j:j + 33], np.nan)
            m = np.where(mask, g[4 - i:37 - i, 4 - j:37 - j], np.nan)
            arms[k] = (p - m) / (2.0 + k)
        score = np.where(np.isnan(arms), -np.inf, np.abs(arms))
        np.take_along_axis(arms, np.argmax(score, axis=0)[None], axis=0)
        return perf_counter() - t0

    def _sample(self):
        t0 = perf_counter()
        self.kernel()
        self.samples.append((t0, self.kernel()))
        self.spent_s += perf_counter() - t0

    def _on_alarm(self, signum, frame):
        self._sample()

    def __enter__(self):
        self.samples = []
        self.spent_s = 0.0
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._end = perf_counter()
        if not self.samples:
            self._sample()
        return False

    def factor(self):
        """Time-weighted mean of NOMINAL_KERNEL_S / kernel time."""
        times = [k for _, k in self.samples]
        h = SMOOTH // 2
        smooth = [statistics.median(times[max(0, i - h):i + h + 1])
                  for i in range(len(times))]
        edges = [self._start] + [t for t, _ in self.samples[:-1]] \
            + [max(self._end, self.samples[-1][0])]
        weights = [b - a for a, b in zip(edges, edges[1:])]
        total = sum(weights)
        if total <= 0.0:
            return NOMINAL_KERNEL_S / smooth[-1]
        return sum(w * NOMINAL_KERNEL_S / k
                   for w, k in zip(weights, smooth)) / total


def setup_scale():
    """Factor that takes a set-up time measured just now to nominal speed.

    One warm-up run of the kernel, then the median of SETUP_KERNEL_RUNS
    timed runs.
    """
    ref = RefSpeed()
    ref.kernel()
    runs = [ref.kernel() for _ in range(SETUP_KERNEL_RUNS)]
    return (NOMINAL_KERNEL_S / statistics.median(runs)) ** SETUP_EXPONENT
