"""How fast is this host right now?  A yardstick run *during* the timing.

The sandbox's cores are shares of a busy machine: a single-threaded process
runs 1.1 to 2 times slower than on the quiet host, in stretches of seconds
to tens of minutes (no steal time is reported; it is contention below the
hypervisor).  Raw medians of two runs of the same code differ by up to 40%,
which no median over one run's operations removes.

So the worker keeps a yardstick going while it measures: an interval timer
interrupts the process every ``INTERVAL_S`` and the handler times two fixed
units of work, about 3% of the process's time — an interpreter loop and a
pass of numpy over 6 MB, because contention slows the two kinds of work by
different amounts and the program is a mix of both.  The host's slowdown
at that moment is the weighted mean of ``measured / nominal`` over the two
units, and its speed the inverse; the time-weighted mean speed over an
interval turns the interval's wall seconds into **speed-corrected seconds**
— what the interval would have taken at nominal speed.

``ARRAY_WEIGHT`` is one constant for every workload.  Least squares of
``raw seconds ~ a * loop slowdown + b * array slowdown`` over 600 operations
of the five workloads, taken in four stretches of different host load, put
``b / (a + b)`` between 0.12 and 0.29 for each of them; under heavy memory
contention the array unit slows more than any workload does, and a larger
weight over-corrects.  Yardstick samples taken *between* operations instead
of inside them do not work at all (correlation with the operation 0.5).
"""

import bisect
import operator
import signal
import time

import numpy as np

#: seconds the two units take on the quiet 2-core sandbox the benchmark was
#: sized on; fixed constants, so that a run made entirely in a slow stretch
#: is corrected like any other
NOMINAL_LOOP_S = 0.00019
NOMINAL_ARRAY_S = 0.00047
#: the array unit's share of the host's slowdown (the loop unit has the rest)
ARRAY_WEIGHT = 0.2
#: seconds between two yardstick samples
INTERVAL_S = 0.025

_A = np.random.default_rng(0).random(262144)
_B = _A.copy()
_SUM = np.empty_like(_A)
_WHERE = np.random.default_rng(1).integers(0, _A.size, 65536)
_TAKEN = np.empty(_WHERE.size)


def loop_unit():
    total = 0
    for i in range(5000):
        total += i * i % 7
    return total


def array_unit():
    np.add(_A, _B, out=_SUM)
    np.take(_A, _WHERE, out=_TAKEN)


class SpeedProbe:
    """Samples the two units on an interval timer from ``start`` to
    ``stop``."""

    def __init__(self):
        #: (when the sample began, seconds it took, slowdown of the loop
        #: unit, slowdown of the array unit)
        self.samples = []

    def _tick(self, signum=None, frame=None):
        begun = time.perf_counter()
        loop_unit()
        between = time.perf_counter()
        array_unit()
        ended = time.perf_counter()
        self.samples.append((begun, ended - begun,
                             (between - begun) / NOMINAL_LOOP_S,
                             (ended - between) / NOMINAL_ARRAY_S))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        # the handler stays: a signal already on its way must find one
        signal.setitimer(signal.ITIMER_REAL, 0)

    def corrected(self, begun, ended):
        """The interval ``begun..ended``: its speed-corrected ``seconds``,
        and the host's ``slowdown`` during it with that of either unit.

        The work done in a stretch of wall time is that time times the
        host's speed, so each sample is weighted by the wall time since
        the sample before; the seconds spent in the handler are taken out.
        """
        first, last = (bisect.bisect_left(self.samples, edge,
                                          key=operator.itemgetter(0))
                       for edge in (begun, ended))
        samples = self.samples[first:last]
        if not samples:   # shorter than the timer's interval: sample now
            self._tick()
            samples = [(ended, 0.0) + self.samples.pop()[2:]]
        work = probing = loop = array = 0.0
        previous = begun
        for when, seconds, loop_slowdown, array_slowdown in samples:
            weight = when - previous
            work += weight / ((1.0 - ARRAY_WEIGHT) * loop_slowdown
                              + ARRAY_WEIGHT * array_slowdown)
            loop += weight * loop_slowdown
            array += weight * array_slowdown
            probing += seconds
            previous = when
        covered = previous - begun
        return {"seconds": (ended - begun - probing) * work / covered,
                "slowdown": covered / work,
                "loop_slowdown": loop / covered,
                "array_slowdown": array / covered}
