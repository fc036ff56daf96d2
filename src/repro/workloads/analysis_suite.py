"""The registered paper programs, as analyzable workload/backend pairs.

``repro analyze --all`` (and the CI ``analyze`` job) sweeps this list:
every shipped kernel with a written op-tuple program — list ranking on
the MTA engine (Alg. 1) for both of Fig. 1's list classes, Helman–JáJá
ranking on the SMP engine, Shiloach–Vishkin connected components on
both engines (Fig. 2 / Alg. 3), and the latency-hiding chase
microbenchmark.  Sizes are small — the analyzer observes every issued
op, and detector coverage does not improve with scale — but keep
``p >= 2`` so there is real concurrency to check.
"""

from __future__ import annotations

from ..core.workload import Workload

__all__ = ["paper_programs"]

#: Analysis-suite scale: big enough for contended FA queues and multiple
#: SV iterations, small enough to analyze in seconds.
_N_RANK = 1024
_N_CC = 256
_M_CC = 1024
_SEED = 20050615  # match the figure specs


def paper_programs() -> list[tuple[str, Workload, str]]:
    """``(name, workload, backend)`` for every registered paper program."""
    mta_opts = {"streams_per_proc": 16}
    return [
        (
            "fig1/rank/mta/random",
            Workload(kind="rank", p=2, seed=_SEED,
                     params={"n": _N_RANK, "list": "random"}, options=mta_opts),
            "mta-engine",
        ),
        (
            "fig1/rank/mta/ordered",
            Workload(kind="rank", p=2, seed=_SEED,
                     params={"n": _N_RANK, "list": "ordered"}, options=mta_opts),
            "mta-engine",
        ),
        (
            "fig1/rank/smp/helman-jaja",
            Workload(kind="rank", p=2, seed=_SEED,
                     params={"n": _N_RANK, "list": "random"}),
            "smp-engine",
        ),
        (
            "fig2/cc/mta/sv",
            Workload(kind="cc", p=2, seed=_SEED,
                     params={"graph": "random", "n": _N_CC, "m": _M_CC},
                     options=mta_opts),
            "mta-engine",
        ),
        (
            "fig2/cc/smp/sv",
            Workload(kind="cc", p=2, seed=_SEED,
                     params={"graph": "random", "n": _N_CC, "m": _M_CC}),
            "smp-engine",
        ),
        (
            "table1/chase",
            Workload(kind="chase", p=1, seed=_SEED,
                     params={"chasers": 8}, options={"steps": 12}),
            "mta-engine",
        ),
    ]
