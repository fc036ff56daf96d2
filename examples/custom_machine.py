#!/usr/bin/env python
"""Custom machines — the paper's closing question, explored.

The conclusions announce the (then-upcoming) third-generation Cray
multithreaded machine built from commodity parts: "In particular, the
memory system will not be as flat as in the MTA-2.  We will reconduct
our studies on this architecture as soon as it is available."

This example *registers an analytic model of that hypothetical machine
as a backend*: one ``register()`` call puts ``mta-next-model`` alongside
the built-ins, so the same declarative workloads, the sweep runner, and
``repro run --backend mta-next-model`` all reach it with no further
wiring.  (``mta-next`` names one machine: its cycle-level engine is the
built-in ``mta-next-engine``, :mod:`repro.sim.mta_next`.)  The study
itself is then a parameter sweep over backend options —

* ``mta-next-model`` variants with *higher memory latency* (a less-flat
  commodity memory system) and with *fewer hardware streams*;
* the stock ``smp-model`` with an L3-class cache, resized through a
  nested config override;

— showing which architectural parameter the irregular kernels actually
care about (answer: on a latency-tolerant machine, almost none of
them, as long as streams × lookahead keeps pace with the latency).

Run:  python examples/custom_machine.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.backends import Workload, register
from repro.backends.analytic import AnalyticBackend
from repro.core import CRAY_MTA2, Job, run_jobs

N = 1 << 18
P = 8
SEED = 0


def make_mta_next_model(*, config=None, config_name=None):
    """Factory for the analytic model of the third-generation machine.

    Starts from the MTA-2 and lets every job override the parameters
    the commodity redesign would change (latency, stream budget).
    """
    from repro.core import MTAMachine

    return AnalyticBackend(
        "mta-next-model",
        "Hypothetical commodity-parts Cray (MTA-2 derivative)",
        MTAMachine,
        {"rank": "mta-walks", "cc": "sv-mta"},
        CRAY_MTA2,
        config_overrides=config,
        config_name=config_name,
    )


# One call makes the machine a first-class citizen: `repro backends`
# lists it, `repro run --backend mta-next-model` reaches it, and the sweep
# runner caches its results like any built-in.  replace=True keeps the
# example re-runnable inside one process.
register(
    "mta-next-model",
    make_mta_next_model,
    level="model",
    kinds=("rank", "cc", "bfs", "msf", "tree"),
    description="Hypothetical commodity-parts Cray (MTA-2 derivative)",
    replace=True,
)


def mta_latency_sweep() -> None:
    print("== Hypothetical MTAs: memory latency sweep (list ranking, p=8) ==")
    print(f"{'latency':>8} {'needed streams':>15} {'time':>10} {'util':>7}")
    latencies = (100, 200, 400, 800)
    jobs = [
        Job(
            Workload("rank", P, SEED, {"n": N, "list": "random"}),
            "mta-next-model",
            backend_options={
                "config": {"name": f"MTA-lat{lat}", "mem_latency_cycles": float(lat)}
            },
        )
        for lat in latencies
    ]
    for lat, res in zip(latencies, run_jobs(jobs, cache=False), strict=False):
        cfg = replace(CRAY_MTA2, mem_latency_cycles=float(lat))
        print(
            f"{lat:>8} {cfg.saturating_streams:>15.0f}"
            f" {res.seconds * 1e3:>8.2f}ms {res.utilization:>6.1%}"
        )
    print("-> with 128 streams and lookahead 2, latencies beyond ~256 cycles"
          " exceed what the streams can hide and utilization collapses\n")


def mta_streams_sweep() -> None:
    print("== Hypothetical MTAs: hardware-stream budget (CC, p=8) ==")
    print(f"{'streams':>8} {'time':>10} {'util':>7}")
    stream_counts = (8, 16, 32, 64, 128)
    jobs = [
        Job(
            Workload("cc", P, 2, {"graph": "random", "n": 1 << 16, "m": 8 << 16}),
            "mta-next-model",
            backend_options={
                "config": {"name": f"MTA-s{streams}", "streams_per_proc": streams}
            },
        )
        for streams in stream_counts
    ]
    for streams, res in zip(stream_counts, run_jobs(jobs, cache=False), strict=False):
        print(f"{streams:>8} {res.seconds * 1e3:>8.2f}ms {res.utilization:>6.1%}")
    print("-> performance is 'a function of parallelism' only while the"
          " hardware can hold enough of it\n")


def smp_big_cache() -> None:
    print("== Hypothetical SMP: an L3-class 64 MB cache (random-list ranking) ==")
    sizes_mb = (4, 16, 64)
    jobs = [
        Job(
            Workload("rank", P, 5, {"n": 1 << 20, "list": "random"}, {"rng": 0}),
            "smp-model",  # the stock backend takes the same nested overrides
            backend_options={
                "config": {
                    "name": f"E4500-{mb}MB",
                    "l2": {"size_words": (mb << 20) // 4, "line_words": 16},
                }
            },
        )
        for mb in sizes_mb
    ]
    for mb, res in zip(sizes_mb, run_jobs(jobs, cache=False), strict=False):
        print(f"  L2 = {mb:>3} MB: {res.seconds * 1e3:>8.2f} ms")
    print("-> a cache big enough to swallow the working set rescues the SMP —"
          " the paper's point that its performance is a locality property,\n"
          "   not an algorithm property\n")


if __name__ == "__main__":
    mta_latency_sweep()
    mta_streams_sweep()
    smp_big_cache()
