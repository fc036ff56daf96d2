"""Host-speed probe: scales host seconds to seconds at a reference speed.

On the shared 2-CPU hosts this benchmark was tuned on, each CPU runs at
one of two speeds about 2x apart and flips between them every few
seconds, independently of the other CPU (a fixed pure-Python chunk takes
~11 ms or ~21 ms; steal time stays near 0, so the process is not
descheduled: the CPU itself is slower, as when another tenant loads the
sibling hardware thread).  A CC pass spans several flips, so raw pass
times swing 2.6-5.4 s and the median of a 36-s run moves by ~25% from
run to run.

:class:`SpeedProbe` measures that speed while the workload runs.  It
starts one thread per CPU the workload is pinned to; each thread pins
itself to its CPU, wakes every :data:`PERIOD_S`, times one
:func:`reference_chunk` and records ``(end time, duration)``.  The
chunk is ~0.15 ms of interpreter work, so the probe costs under 1% of
the CPU.  :meth:`SpeedProbe.scale` turns the samples taken during an
interval into the factor that converts host seconds spent in that
interval into reference seconds: the time-average of
``REF_CHUNK_S / duration``.  A pass whose work is fixed then reads the
same whatever share of it ran in the slow state, while a change to the
program's own speed shows in full.

The sweep's pool forks its workers while the probe threads run.  The
threads import nothing once started and hold no lock a worker uses, so
a worker cannot inherit one of their locks in a held state.
"""

from __future__ import annotations

import os
import statistics
import threading
from time import perf_counter

__all__ = ["PERIOD_S", "REF_CHUNK_S", "SpeedProbe", "reference_chunk"]

#: Time between probe samples on each CPU.
PERIOD_S = 0.02
#: Duration of one :func:`reference_chunk` at the reference speed: the
#: fast state of the 2-CPU host the bounds were set on (Python 3.11.7).
REF_CHUNK_S = 150e-6


def reference_chunk() -> None:
    """A fixed piece of interpreter work: small-int arithmetic, list and dict updates."""
    slots = [0] * 64
    counts: dict[int, int] = {}
    for i in range(1000):
        k = (i * 7 + 3) & 63
        slots[k] += 1
        counts[k] = counts.get(k, 0) + i


class SpeedProbe:
    """Samples the speed of ``cpus`` from background threads while in a ``with`` block."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.samples: list[tuple[float, float]] = []  # (end time, chunk seconds)
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), name=f"speed-probe-{cpu}",
                             daemon=True)
            for cpu in self.cpus
        ]

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # on Linux, pid 0 pins the calling thread only
        while not self._stop.wait(PERIOD_S):
            t0 = perf_counter()
            reference_chunk()
            t1 = perf_counter()
            self.samples.append((t1, t1 - t0))

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per host second over ``[start, end]`` (``perf_counter`` times).

        An interval too short to hold a sample uses the samples nearest its middle.
        """
        durations = [d for t, d in self.samples if start <= t <= end]
        if not durations:
            if not self.samples:
                raise RuntimeError("speed probe has no samples")
            mid = (start + end) / 2
            nearest = min(abs(t - mid) for t, _ in self.samples)
            durations = [d for t, d in self.samples if abs(t - mid) <= nearest + PERIOD_S]
        return statistics.fmean(REF_CHUNK_S / d for d in durations)
