"""Machine-speed probe: times measured on a shared machine, made comparable.

The machines this benchmark runs on change speed by up to 2x for minutes
at a time (other tenants, clock boost); every kind of code slows together,
and no hardware cycle counter is exposed.  So every timed section also
times a fixed reference kernel (plain Python and small numpy arrays, no
dcopt code) right before it, right after it and every PROBE_INTERVAL
seconds inside it (SIGALRM).  A section's time is reported at the reference
speed: measured seconds, minus the probes' own time, times
KERNEL_REFERENCE_S / (mean kernel time during the section).

A change to dcopt moves the section's time and not the kernel's, so it
shows in full.  The measured seconds and the kernel times are printed
alongside.
"""

import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL = 0.1  # seconds between probes inside a section
# The kernel's median time on a 2 vCPU Intel Xeon VM in its slower phase; it
# only sets the scale of the reported seconds.
KERNEL_REFERENCE_S = 0.0018

_A = np.arange(40.0)
_B = np.ones(40)


def kernel():
    """Seconds one pass of the reference kernel takes right now."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(150):
        v = _A * 1.5 + _B
        acc += float(np.sum(v * v)) + float(v @ _A)
        acc += len(repr(k)) + {"k": k}["k"] % 7
    return time.perf_counter() - t0


class Probe:
    """Times sections of work at the reference speed."""

    def __init__(self):
        self.samples = []
        self.paused = 0.0  # seconds spent in probes inside the section

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.paused += time.perf_counter() - t0

    def section(self, fn, periodic=True):
        """Run fn(); returns (seconds at reference speed, measured seconds,
        mean kernel seconds, fn's result).  Measured seconds exclude the
        probes run inside the section; periodic=False probes only before
        and after it, for sections whose inner timings must not contain
        probes."""
        self.samples = [kernel()]
        self.paused = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        if periodic:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.samples.append(kernel())
        measured = t1 - t0 - self.paused
        speed = statistics.mean(self.samples)
        return measured * KERNEL_REFERENCE_S / speed, measured, speed, out
