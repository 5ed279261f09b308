"""Machine-speed probe: rescales measured CPU time to a reference speed.

The benchmark runs on virtual machines that share their host.  There the
same code can run 1.5 times slower from one second to the next: a fixed
40 ms loop, timed back to back for two minutes, switched between about 28
and 42 ms, in stretches of a fraction of a second to a minute.  CPU time
slows with it, so without a correction the share of a run that fell in the
slow stretches, not the program, sets the run's time.

The probe runs a small fixed kernel of interpreter work (integer and float
arithmetic, list sorting) from a wall-clock interval timer.  Its samples
therefore fall evenly over the same seconds as the program's own work, and
their mean time, over the kernel's time at the reference speed, is how much
slower than the reference the machine ran meanwhile.  CPU time divided by
that factor is CPU time at the reference speed.  The kernel's own time is
taken out of the measured time first.

The kernel needs no import beyond the standard library, so the probe can
time ``import dudasim`` without loading numpy first.  The probe starts no
thread or process.  Python runs the handler between bytecodes of the main
thread, so a long call into native code delays a sample but does not lose
it.
"""

from __future__ import annotations

import signal
import time

# Thread time of one ``kernel()`` call at the reference speed: the fast state
# of the 2-core Xeon (Sapphire Rapids, KVM) virtual machine the benchmark was
# defined on.  A constant, so rescaled times of two commits compare directly.
KERNEL_REF_S = 0.8e-3


def kernel() -> float:
    s, x = 0, 1.0
    for i in range(4000):
        s += i * i % 7
        x = x * 0.999 + 1.0 / (i + 1)
    values = [(i * 7919) % 1009 for i in range(1000)]
    values.sort()
    return s + x + values[0]


class SpeedProbe:
    """Samples machine speed while started.  ``slowdown`` is the mean kernel
    time over ``KERNEL_REF_S``.  ``kernel_s`` (thread time) and ``wall_s``
    are the probe's own cost, to subtract from what was measured while it
    ran."""

    def __init__(self, interval_s: float = 0.05):
        self.interval_s = interval_s
        self.samples = 0
        self.kernel_s = 0.0
        self.wall_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.thread_time()
        kernel()
        c1 = time.thread_time()
        self.samples += 1
        self.kernel_s += c1 - c0
        self.wall_s += time.perf_counter() - w0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @property
    def slowdown(self) -> float:
        if self.samples == 0:
            return 1.0
        return self.kernel_s / self.samples / KERNEL_REF_S
