"""CPU-speed sampling, so that times are reported at one fixed reference speed.

On a shared host the speed of a CPU can change by a factor of two for
seconds at a time, and CPU time changes with it, so neither wall time nor
CPU time of a pass repeats.  The speed of one kind of pure-Python work
relative to another stays steady, though.  While a ``Sampler`` is active, a
profiling timer interrupts the process after every ``interval_s`` of its CPU
time and times a fixed chunk of multiprecision arithmetic.  A span of CPU
time ``t`` over which the chunks ran at speeds ``REF_CHUNK_S / c_i`` costs
``t * mean(REF_CHUNK_S / c_i)`` reference seconds: the seconds the same work
takes when the chunk takes ``REF_CHUNK_S``.  CPU time spent in the chunks
themselves is left out.

This module imports nothing of zetachain, so a set-up probe can start it
before ``import zetachain``; it imports only mpmath's low-level layer,
which ``import zetachain`` loads anyway.
"""

from __future__ import annotations

import signal
import statistics
import time

from mpmath.libmp import from_str, mpf_add, mpf_div, mpf_mul, mpf_sub

INTERVAL_S = 0.02
# the chunk's CPU time at the fast speed of the 2-vCPU KVM host this
# benchmark was built on (Python 3.11.7, mpmath 1.3.0); any fixed value would do
REF_CHUNK_S = 0.00027
_PREC = 180  # bits, about 54 digits
_X = from_str("1.2345678901234567890123456789", _PREC)
_Y = from_str("0.98765432109876543210987654321", _PREC)


def _chunk() -> tuple:
    """Arithmetic of mpmath's low-level layer, the kind of work the library does.

    The ``mpf_*`` functions are pure: they take the precision as an argument
    and touch no global state or cache, so running them inside a signal
    handler, in the middle of a library call, changes nothing the library
    sees.  Integer-only work tracked the library's speed less closely.
    """
    a = _X
    for _ in range(60):
        b = mpf_mul(a, _Y, _PREC, "n")
        a = mpf_add(b, _X, _PREC, "n")
        c = mpf_div(a, _Y, _PREC, "n")
        a = mpf_sub(c, b, _PREC, "n")
    return a


class Sampler:
    """Context manager that samples CPU speed while it is active."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.speeds: list[float] = []
        self.chunk_cpu = 0.0
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        c0 = time.thread_time()
        _chunk()
        dt = time.thread_time() - c0
        self.chunk_cpu += dt
        self.speeds.append(REF_CHUNK_S / dt)

    def __enter__(self) -> "Sampler":
        self._old_handler = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old_handler)

    def mark(self) -> tuple[float, float, int]:
        """A starting point for ``reference_s``."""
        return time.thread_time(), self.chunk_cpu, len(self.speeds)

    def reference_s(self, start: tuple[float, float, int] = (0.0, 0.0, 0)) -> float:
        """Reference seconds of the CPU time used since ``start``.

        The default start is the start of the main thread, whose CPU time
        ``time.thread_time`` counts from interpreter start-up on.  Thread
        time, not process time: while a process-wide CPU timer is armed,
        Linux advances the process clock only at scheduler ticks.
        """
        cpu0, chunk0, n0 = start
        speeds = self.speeds[n0:]
        if not speeds:
            raise RuntimeError("no speed sample in the span; it is shorter than the sampling interval")
        work = time.thread_time() - cpu0 - (self.chunk_cpu - chunk0)
        return work * statistics.fmean(speeds)
