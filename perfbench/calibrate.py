"""Machine-speed calibration for the benchmark's time metrics.

On a shared host, other tenants slow everything down by up to about 1.8x for
seconds to minutes at a time (measured on a 2-vCPU virtual machine). A fixed
kernel that does what pbh spends its time on (small numpy arrays, fancy
indexing, bincount, short-lived Python objects) slows down by nearly the same
factor, and does not use pbh, so no change to pbh moves it. While a part is
measured, a timer signal times the kernel every 0.1 s; the part's time is
rescaled by the mean of REFERENCE_S / kernel time over those samples and the
two taken just before and after it. That gives seconds at a fixed machine
speed; raw seconds are recorded alongside.
"""

import signal
import statistics
import time

import numpy as np

# median kernel time on the reference machine when it is quiet; only sets the
# scale, so rescaled times read as seconds on that machine
REFERENCE_S = 0.0017

_I = np.arange(84) % 20
_J = (np.arange(84) * 7) % 20
_K = (np.arange(84) * 3) % 20
_A = np.linspace(0.5, 1.5, 20)


class _Box:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c


def _kernel():
    x = _Box(_A)
    for _ in range(400):
        y = _Box(np.bincount(_K, weights=x.c[_I] * _A[_J], minlength=20))
        z = _Box(y.c + x.c)
        z.c[0] += 1.0
        x = _Box(z.c * 0.5)
    return x.c[0]


def kernel_seconds(repeats: int = 3) -> float:
    """Median seconds of one calibration kernel call."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedSampler:
    """Times the kernel from SIGALRM every `interval` seconds while active."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.kernels = []   # kernel seconds, in time order
        self.cost = 0.0     # seconds spent in the signal handler

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        self.kernels.append(kernel_seconds(1))
        self.cost += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn):
        """Call fn(); returns (its result, raw seconds, seconds at reference speed).

        Raw seconds exclude the time the handler spent inside the call.
        """
        before = kernel_seconds()
        i0, c0 = len(self.kernels), self.cost
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        inside, cost = self.kernels[i0:], self.cost - c0
        after = kernel_seconds()
        raw -= cost
        return out, raw, raw * speed(before, *inside, after)


def speed(*kernels: float) -> float:
    """Mean speed relative to the reference over kernel timings; multiply a
    raw time taken while they were sampled by this."""
    return statistics.fmean(REFERENCE_S / k for k in kernels)
