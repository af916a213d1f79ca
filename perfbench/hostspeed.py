"""Host speed, sampled while the benchmark runs, to take a shared host's
drift out of the gated times.

On a few vCPUs of a shared host the same code runs up to 30% faster or
slower within seconds and from one minute to the next (other tenants,
clock and cache contention), and a run of 30 s cannot average that
away.  So a run times a fixed kernel, which uses no paleykit code,
every SAMPLE_INTERVAL_S seconds while it measures, takes the kernel's
time out of the ops' times, and scales them by the host's mean speed
relative to a reference host on which the kernel takes REF_KERNEL_S.
The scaled time is what the ops would take on the reference host: a
change to paleykit moves it in full, a change of host speed does not.

The kernel mixes what paleykit spends its time on: exact Fraction
arithmetic (simplex pivots, lattice sums) and small numpy work (batched
complex SVDs and trigonometric grids).
"""

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# kernel time on the reference host; on 2 vCPUs of a shared x86-64 VM
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31) it took 6-11 ms
REF_KERNEL_S = 0.01
SAMPLE_INTERVAL_S = 0.25

_rng = np.random.default_rng(12345)
_MATS = _rng.standard_normal((240, 8, 8)) + 1j * _rng.standard_normal((240, 8, 8))
_GRID = np.linspace(0.0, 2.0 * np.pi, 51 * 51, endpoint=False)
_FREQS = np.arange(1.0, 9.0)


def kernel():
    """One fixed unit of work; returns a value so nothing is skipped."""
    total = Fraction(0)
    for k in range(2):
        rows = [[Fraction((3 * i + 5 * j + k) % 11 - 5, 1 + (i + 2 * j) % 7) for j in range(10)]
                for i in range(7)]
        for p in range(7):
            piv = rows[p][p] or Fraction(1)
            rows[p] = [v / piv for v in rows[p]]
            for i in range(7):
                if i != p and rows[i][p]:
                    f = rows[i][p]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[p])]
        total += sum(rows[-1])
    s = np.linalg.svd(_MATS, compute_uv=False).sum()
    e = np.exp(1j * np.outer(_GRID, _FREQS)).sum(axis=1)
    return float(total) + float(s) + float(np.abs(e).max())


class HostClock:
    """Kernel times, sampled between ops or, while started, by a timer
    inside them.

    Sampling by SIGALRM runs the kernel between two bytecodes of
    whatever the main thread is running, every SAMPLE_INTERVAL_S of wall
    time, so a long op is sampled all through instead of only at its
    ends.  The host's speed changes within a second (the kernel's time
    jumps between two levels about 1.6x apart), so only many samples
    spread over the whole measurement give its mean speed."""

    def __init__(self):
        self.samples = []  # (perf_counter at the start, kernel seconds)
        self.sampling_s = 0.0  # all time spent in the kernel so far
        self._previous = None

    def sample(self, *_signal_args):
        t = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t
        self.samples.append((t, dt))
        self.sampling_s += dt

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def speed(self, since=0):
        """Mean host speed over samples[since:], relative to the
        reference host: the mean of REF_KERNEL_S / kernel time.  With
        samples even in wall time this is the time-mean of the speed,
        so wall seconds times it are seconds on the reference host."""
        return statistics.mean(REF_KERNEL_S / dt for _, dt in self.samples[since:])

    def median_s(self, since=0):
        return statistics.median(dt for _, dt in self.samples[since:])
