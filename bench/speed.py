"""Host speed reference: a fixed kernel timed around and inside every job.

The shared host this benchmark runs on changes speed by up to 1.9x, in
phases of a second to minutes, and the program's run time follows it.  A
worker therefore times this kernel before its first job, after every job
and, through a ``Meter``, every 50 ms of CPU time inside a job; a job's
latency is then reported in *reference seconds*: its wall time, less the
time spent sampling, scaled by ``REF_S / kernel time``, the kernel time
being the median of the samples taken just before, during and just after
the job.  On a host where the kernel takes exactly ``REF_S``, reference
seconds are wall seconds.

The kernel does what the package's hot loops do (Kronecker-packed digit
products mod p, list building, small objects) but never imports the
package, so no change to the package can change it.  It runs with the
garbage collector off, so the size of the package's caches does not leak
into it, and only while the worker runs no other thread.
"""

from __future__ import annotations

import gc
import signal
import statistics
import threading
import time

REF_S = 0.001          # kernel time that defines one reference second
SAMPLES = 5
PERIOD_S = 0.05        # CPU time between two samples inside a job

_MASK = (1 << 32) - 1


class _Digits:
    __slots__ = ("d",)

    def __init__(self, d):
        self.d = d

    def __mul__(self, other):
        a, b = self.d, other.d
        pa = 0
        for x in reversed(a):
            pa = (pa << 32) | x
        pb = 0
        for x in reversed(b):
            pb = (pb << 32) | x
        prod = pa * pb
        out = []
        for _ in range(len(a)):
            out.append((prod & _MASK) % 5)
            prod >>= 32
        return _Digits(out)

    def __add__(self, other):
        return _Digits([(x + y) % 5 for x, y in zip(self.d, other.d)])


def kernel(n=16):
    """A truncated series product of n terms of 16 digits each."""
    xs = [_Digits([(i * j + 3) % 5 for j in range(16)]) for i in range(n)]
    acc = None
    for k in range(n):
        for i in range(k + 1):
            term = xs[i] * xs[k - i]
            acc = term if acc is None else acc + term
    return acc.d


def sample(count=SAMPLES):
    """`count` kernel times, taken with the garbage collector off."""
    if threading.active_count() != 1:
        raise RuntimeError("another thread is running; the speed reference "
                           "would measure it too")
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(count):
            t0 = time.perf_counter()
            kernel()
            out.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return out


class Meter:
    """Samples the kernel every PERIOD_S of this process's CPU time.

    Used as a context manager around one job: ``samples`` holds the
    kernel times and ``spent`` the wall time the sampling took, which the
    caller takes off the job's latency.  A job that waits on a child
    process uses no CPU time here and gets no samples; a period of 0
    takes none.
    """

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.extend(sample(1))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._saved = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._saved)
        return False


def to_ref(seconds, samples):
    """`seconds` of wall time, in reference seconds at the sampled speed."""
    return seconds * REF_S / statistics.median(samples)
