"""Spec → job expansion: the paper's sweeps as runner job lists.

Each function expands one figure/table spec from :mod:`.specs` into the
flat list of :class:`~repro.core.runner.Job`\\ s the sweep runner
executes.  Per-job seeds come from
:func:`~repro.core.runner.derive_seed` over (spec seed, grid params),
so any subset of the sweep — run serially, in a pool, or from cache —
reproduces the identical numbers.

``tags`` on each job carry the figure's presentation labels (the
``machine``/``list``/``source`` columns of the legacy result tables);
they never affect execution or caching.
"""

from __future__ import annotations

import dataclasses

from ..core.runner import Job, derive_seed
from ..core.workload import Workload
from .specs import FIG1_SPEC, FIG2_SPEC, TABLE1_SPEC, Fig1Spec, Fig2Spec, Table1Spec

__all__ = [
    "MACHINE_LABELS",
    "fig1_jobs",
    "fig2_jobs",
    "table1_jobs",
    "tiny_fig1_spec",
    "tiny_fig2_spec",
    "tiny_table1_spec",
    "jobs_for",
]

#: Backend name → the short series label used in the paper-shaped tables.
MACHINE_LABELS = {
    "smp-model": "smp",
    "mta-model": "mta",
    "cluster-model": "cluster",
    "smp-engine": "smp-engine",
    "mta-engine": "mta-engine",
}


def fig1_jobs(
    spec: Fig1Spec | None = None,
    *,
    backends: tuple[str, ...] = ("mta-model", "smp-model"),
) -> list[Job]:
    """Fig. 1: list ranking, every (list class, n, p) on every backend."""
    spec = spec if spec is not None else FIG1_SPEC
    jobs: list[Job] = []
    for cls in spec.list_classes:
        for n in spec.sizes:
            params = {"n": int(n), "list": cls}
            seed = derive_seed(spec.seed, params)
            for p in spec.procs:
                for be in backends:
                    jobs.append(
                        Job(
                            Workload("rank", int(p), seed, params),
                            be,
                            tags={
                                "figure": "fig1",
                                "machine": MACHINE_LABELS.get(be, be),
                                "list": cls,
                                "n": int(n),
                                "p": int(p),
                            },
                        )
                    )
    return jobs


def fig2_jobs(
    spec: Fig2Spec | None = None,
    *,
    backends: tuple[str, ...] = ("mta-model", "smp-model"),
    include_sequential: bool = True,
) -> list[Job]:
    """Fig. 2: connected components over m = 4n…20n.

    Parallel jobs carry ``instrument_p = 1``: the kernel executes once
    at one processor and its scalar step costs are redistributed to the
    job's ``p`` — the paper-accurate (and 4× cheaper) protocol the
    legacy benchmark used.
    """
    spec = spec if spec is not None else FIG2_SPEC
    jobs: list[Job] = []
    for m in spec.edge_counts:
        params = {"graph": "random", "n": int(spec.n), "m": int(m)}
        seed = derive_seed(spec.seed, params)
        if include_sequential:
            jobs.append(
                Job(
                    Workload("cc", 1, seed, params, {"algorithm": "union-find"}),
                    "smp-model",
                    tags={"figure": "fig2", "machine": "seq", "m": int(m), "p": 1},
                )
            )
        for be in backends:
            for p in spec.procs:
                jobs.append(
                    Job(
                        Workload("cc", int(p), seed, params, {"instrument_p": 1}),
                        be,
                        tags={
                            "figure": "fig2",
                            "machine": MACHINE_LABELS.get(be, be),
                            "m": int(m),
                            "p": int(p),
                        },
                    )
                )
    return jobs


def table1_jobs(
    spec: Table1Spec | None = None,
    *,
    model_rank_n: int | None = None,
    model_cc_n: int | None = None,
) -> list[Job]:
    """Table 1: MTA utilization, engine-measured and model-predicted.

    Engine jobs execute real thread swarms at reduced per-processor
    scale; model jobs evaluate the analytic machine at paper scale
    (20M-node lists, n = 1M graphs by default — override the two
    ``model_*`` sizes for quick runs).
    """
    from .specs import paper_scale_fig1

    spec = spec if spec is not None else TABLE1_SPEC
    if model_rank_n is None:
        model_rank_n = max(paper_scale_fig1().sizes)
    if model_cc_n is None:
        model_cc_n = 1 << 20
    engine_opts = {
        "streams_per_proc": int(spec.streams_per_proc),
        "nodes_per_walk": int(spec.nodes_per_walk),
    }
    jobs: list[Job] = []

    for p in spec.procs:
        n = int(spec.nodes_per_proc * p)
        for cls in ("random", "ordered"):
            params = {"n": n, "list": cls}
            jobs.append(
                Job(
                    Workload("rank", int(p), derive_seed(spec.seed, params), params,
                             engine_opts),
                    "mta-engine",
                    tags={"table": "table1", "source": "engine",
                          "kernel": f"list-{cls}", "p": int(p), "n": n},
                )
            )
        n_cc = int(spec.cc_n_per_proc * p)
        params = {"graph": "random", "n": n_cc, "m": int(spec.cc_edge_multiplier * n_cc)}
        jobs.append(
            Job(
                Workload("cc", int(p), derive_seed(spec.seed, params), params,
                         {"streams_per_proc": int(spec.streams_per_proc)}),
                "mta-engine",
                tags={"table": "table1", "source": "engine",
                      "kernel": "cc", "p": int(p), "n": n_cc},
            )
        )

    for cls in ("random", "ordered"):
        params = {"n": int(model_rank_n), "list": cls}
        seed = derive_seed(spec.seed, params)
        for p in spec.procs:
            jobs.append(
                Job(
                    Workload("rank", int(p), seed, params, {"instrument_p": 1}),
                    "mta-model",
                    tags={"table": "table1", "source": "model",
                          "kernel": f"list-{cls}", "p": int(p), "n": int(model_rank_n)},
                )
            )
    params = {"graph": "random", "n": int(model_cc_n), "m": int(20 * model_cc_n)}
    seed = derive_seed(spec.seed, params)
    for p in spec.procs:
        jobs.append(
            Job(
                Workload("cc", int(p), seed, params, {"instrument_p": 1}),
                "mta-model",
                tags={"table": "table1", "source": "model",
                      "kernel": "cc", "p": int(p), "n": int(model_cc_n)},
            )
        )
    return jobs


# -- reduced grids for smoke tests and CI ---------------------------------------


def tiny_fig1_spec() -> Fig1Spec:
    """A seconds-scale Fig. 1 grid for CLI smoke tests and CI."""
    return dataclasses.replace(FIG1_SPEC, sizes=(256, 1024), procs=(1, 2))


def tiny_fig2_spec() -> Fig2Spec:
    return dataclasses.replace(
        FIG2_SPEC, n=1024, edge_multipliers=(4, 8), procs=(1, 2)
    )


def tiny_table1_spec() -> Table1Spec:
    return dataclasses.replace(
        TABLE1_SPEC, procs=(1, 2), nodes_per_proc=2000, cc_n_per_proc=400
    )


def jobs_for(name: str) -> list[Job]:
    """Named sweeps for the CLI: ``repro sweep --spec <name>``."""
    from ..errors import ConfigurationError

    makers = {
        "fig1": lambda: fig1_jobs(),
        "fig2": lambda: fig2_jobs(),
        "table1": lambda: table1_jobs(),
        "fig1-tiny": lambda: fig1_jobs(tiny_fig1_spec()),
        "fig2-tiny": lambda: fig2_jobs(tiny_fig2_spec()),
        "table1-tiny": lambda: table1_jobs(
            tiny_table1_spec(), model_rank_n=4096, model_cc_n=1024
        ),
    }
    try:
        return makers[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown sweep {name!r} (available: {', '.join(sorted(makers))})"
        ) from None
