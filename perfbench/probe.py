"""Machine-speed probe: time a region in seconds at a fixed reference speed.

The benchmark runs on hosts shared with other tenants.  There a core's speed
changes from second to second and from one minute to the next, by up to 2x,
as neighbours come and go on the same physical core; the same solve, timed
twice in one minute, can differ by 20 %.  A median over a run absorbs the
fast changes, not the slow ones.

While a region runs, a SIGALRM timer interrupts it every ``INTERVAL_S``
seconds, and the handler times a fixed piece of pure Python: bit operations
on two ~700-byte ints, the solver's bit-vector kernel at the size of a
`deep` set (~12 us).  It is also timed once just before and once just after
the region.  The probe's own time is taken out of the region's wall time,
and the rest is scaled by ``REFERENCE_S`` over the probe's mean time, its
slowest tenth dropped: the region's time had every probe taken
``REFERENCE_S``.  A change to the program moves that time as it moves wall
time, but a spell in which the whole core runs slow moves the probe as well,
and cancels.  Of the probes tried (this one, dict and small-int operations,
random reads of a 3 MB list), this one tracked the solves' slowdowns best.

The handler runs in the process's one thread, between bytecodes; no thread
or process is started.  The probe allocates nothing the garbage collector
tracks, so it does not shift when the program's collections run.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.005
# The probe's time on an unloaded core of the 2-vCPU Xeon VM the benchmark
# was defined on; a unit choice, so that scaled times read close to the wall
# times of a quiet machine.
REFERENCE_S = 12e-6

# two ~700-byte ints, the size of a `deep` set's bit vector
_X = (1 << 5600) - 12345
_Y = (1 << 5500) // 7
perf_counter = time.perf_counter


def _work():
    n = 0
    for _ in range(16):
        n += ((_X | _Y) & ~_Y).bit_length()
    return n


class SpeedProbe:
    """Times regions; see the module docstring."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, *_):
        t0 = perf_counter()
        _work()
        self.samples.append(perf_counter() - t0)

    def time(self, fn, *args):
        """(fn(*args), wall seconds, seconds at reference speed)."""
        self.samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            t0 = perf_counter()
            result = fn(*args)
            wall = perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(self.samples[1:])
        self._sample()
        # the slowest tenth of the probes is dropped: a probe the host
        # preempted reads hundreds of times its usual time
        kept = sorted(self.samples)[: max(1, len(self.samples) * 9 // 10)]
        scaled = max(wall - inside, 0.0) * REFERENCE_S / statistics.fmean(kept)
        return result, wall, scaled
