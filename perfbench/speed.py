"""Core-speed sampler, so timings can be stated at a nominal core speed.

On a shared machine the speed of a core drifts by up to 2x within
minutes and changes within seconds, so raw seconds of two runs minutes
apart are not comparable.  While it runs, the sampler times a tiny fixed
probe every INTERVAL_S of wall time (on SIGALRM, between bytecodes of the
main thread) and scales each timed window by the mean probe speed inside
it.  The probes' own time is removed from the window.

The probe is an interpreter loop on a few small integers and touches no
array, so its speed does not depend on what the measured program left in
the caches: a change to the program's memory footprint does not change
the scale.  test_perfbench checks that the probe reads the same inside
workloads with very different footprints.
"""

from __future__ import annotations

import signal
import time

PROBE_ITERATIONS = 5_000
# Typical seconds of one probe inside a walklab run on the reference
# machine (2-core Xeon); it only sets the unit of nominal seconds.
PROBE_NOMINAL_S = 0.00027
INTERVAL_S = 0.1


class SpeedSampler:
    """Probe times of one process; ``scaled`` turns a window's seconds into nominal seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _probe(self, signum, frame) -> None:
        t0 = time.monotonic()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        self.starts.append(t0)
        self.durations.append(time.monotonic() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds of [t0, t1) without probes, the same at nominal speed).

        A window without a probe of its own uses every probe of the process.
        """
        own = [d for s, d in zip(self.starts, self.durations) if t0 <= s < t1]
        seconds = t1 - t0 - sum(own)
        probes = own or self.durations or [PROBE_NOMINAL_S]
        return seconds, seconds * PROBE_NOMINAL_S * sum(1.0 / d for d in probes) / len(probes)
