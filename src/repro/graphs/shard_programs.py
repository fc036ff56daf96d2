"""Owner-computes Shiloach–Vishkin CC for the sharded runtime.

The unsharded MTA program (:func:`repro.graphs.programs.simulate_mta_cc`)
keeps the component array ``D`` in a shared Python list that worker
generators mutate directly — wall-clock-nondeterministic the moment two
kernels host the threads.  This variant keeps every algorithm word
*inside the engine*: ``D`` lives in engine-owned value words
(``GV``/``PV`` — :mod:`repro.sim.isa`), so cross-shard reads round-trip
over the message channel and concurrent grafts of one root are resolved
by the owner in deterministic arrival order.  The result is the shard
runtime's contract: for a fixed partition count the labels, the merged
report, and every contention counter are byte-identical for any worker
count and either executor (``docs/SHARDING.md``).

Work decomposition is owner-computes 1-D partitioning:

* vertices split contiguously into ``k`` shards; shard ``j`` owns the
  ``D`` words, counters, and graft flag of its range (its arena in the
  :class:`~repro.sim.shard.PartitionPlan`'s explicit ``addr_bounds``);
* the ``2m`` directed edges split contiguously; shard ``j``'s streams
  self-schedule over its edge chunk with a *local* fetch-add counter —
  the reads ``D[u]``, ``D[v]``, ``D[D[v]]`` and the graft write
  ``D[D[v]] = D[u]`` go wherever the owner lives;
* shortcutting is fully owner-local except the parent chase.

The orchestrator (plain Python between phases, like the C code's
``while (graft)``) reads the merged value words back from each
:class:`~repro.sim.shard.ShardResult` and seeds the next phase.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError, WorkloadError, require_positive
from ..sim import isa
from ..sim.stats import combine_reports
from .edgelist import EdgeList
from .programs import CCSim
from .types import normalize_labels

__all__ = ["ShardCCSim", "simulate_sharded_cc", "cc_partition_layout"]


@dataclass
class ShardCCSim(CCSim):
    """A :class:`~repro.graphs.programs.CCSim` plus shard-runtime counters.

    ``shard_detail`` accumulates the per-phase coordinator counters
    (rounds, routed messages, per-shard cycles) across every
    graft/shortcut phase of the run.
    """

    shard_detail: dict = field(default_factory=dict)


# -- address layout ----------------------------------------------------------------
#
# One contiguous arena per shard so the partition plan's address bounds
# line up with vertex ownership:
#
#   arena j:  [ D words of vertices vb[j]..vb[j+1] |
#               E words of edges    eb[j]..eb[j+1] (2 each) |
#               graft counter | shortcut counter | graft flag ]
#
# The layout is a plain picklable tuple (vb, eb, bases, pb) so the SPMD
# builders can compute any global address on any worker.


def cc_partition_layout(n: int, m2: int, p: int, k: int):
    """``(layout, addr_bounds)`` for ``n`` vertices and ``m2`` directed edges."""
    vb = [n * j // k for j in range(k + 1)]
    eb = [m2 * j // k for j in range(k + 1)]
    pb = [p * j // k for j in range(k + 1)]
    bases = []
    bounds = [0]
    base = 0
    for j in range(k):
        bases.append(base)
        base += (vb[j + 1] - vb[j]) + 2 * (eb[j + 1] - eb[j]) + 3
        bounds.append(base)
    return (vb, eb, bases, pb), bounds


def _d_addr(layout, i: int) -> int:
    vb, _, bases, _ = layout
    j = bisect_right(vb, i) - 1
    return bases[j] + (i - vb[j])


def _e_addr(layout, i: int) -> int:
    """Address of the first of edge ``i``'s two endpoint words."""
    vb, eb, bases, _ = layout
    j = bisect_right(eb, i) - 1
    return bases[j] + (vb[j + 1] - vb[j]) + 2 * (i - eb[j])


def _ctr_addr(layout, j: int, which: int) -> int:
    vb, eb, bases, _ = layout
    return bases[j] + (vb[j + 1] - vb[j]) + 2 * (eb[j + 1] - eb[j]) + which


def _flag_addr(layout, j: int) -> int:
    return _ctr_addr(layout, j, 2)


# -- thread programs ---------------------------------------------------------------


def _graft_worker(eu, ev, layout, j, chunk):
    _, eb, _, _ = layout
    lo, hi = eb[j], eb[j + 1]
    count = hi - lo
    ctr = _ctr_addr(layout, j, 0)
    local_graft = False
    while True:
        start = yield isa.fetch_add(ctr, chunk)
        if start >= count:
            break
        for i in range(lo + start, lo + min(start + chunk, count)):
            u = eu[i]
            v = ev[i]
            ea = _e_addr(layout, i)
            yield isa.load(ea)
            yield isa.load(ea + 1)
            du = yield isa.get_value(_d_addr(layout, u))
            dv = yield isa.get_value(_d_addr(layout, v))
            ddv = yield isa.get_value(_d_addr(layout, dv))
            yield isa.compute(1)
            if du < dv and dv == ddv:
                # the owner applies racing grafts in arrival order
                yield isa.put_value(_d_addr(layout, dv), du)
                local_graft = True
    if local_graft:
        yield isa.put_value(_flag_addr(layout, j), 1)


def _shortcut_worker(layout, j, chunk):
    vb, _, _, _ = layout
    lo, hi = vb[j], vb[j + 1]
    count = hi - lo
    ctr = _ctr_addr(layout, j, 1)
    while True:
        start = yield isa.fetch_add(ctr, chunk)
        if start >= count:
            break
        for i in range(lo + start, lo + min(start + chunk, count)):
            di = yield isa.get_value(_d_addr(layout, i))
            while True:
                ddi = yield isa.get_value(_d_addr(layout, di))
                yield isa.compute(1)
                if di == ddi:
                    break
                yield isa.put_value(_d_addr(layout, i), ddi)
                di = ddi


# -- SPMD builders (module-level: picklable for the mp executor) -------------------


def _seed_phase(ctx, d, layout, k):
    """Common per-phase setup: D words, counters, flags (owned subset)."""
    for i, value in enumerate(d):
        ctx.set_value(_d_addr(layout, i), value)
    for j in range(k):
        ctx.set_counter(_ctr_addr(layout, j, 0), 0)
        ctx.set_counter(_ctr_addr(layout, j, 1), 0)
        ctx.set_value(_flag_addr(layout, j), 0)


def graft_builder(ctx, eu, ev, d, layout, workers_per_part, chunk):
    k = len(workers_per_part)
    _seed_phase(ctx, d, layout, k)
    pb = layout[3]
    for j in range(k):
        procs = pb[j + 1] - pb[j]
        for w in range(workers_per_part[j]):
            ctx.spawn(_graft_worker(eu, ev, layout, j, chunk),
                      pb[j] + w % procs)


def shortcut_builder(ctx, d, layout, workers_per_part, chunk):
    k = len(workers_per_part)
    _seed_phase(ctx, d, layout, k)
    pb = layout[3]
    for j in range(k):
        procs = pb[j + 1] - pb[j]
        for w in range(workers_per_part[j]):
            ctx.spawn(_shortcut_worker(layout, j, chunk),
                      pb[j] + w % procs)


# -- orchestrator ------------------------------------------------------------------


def accumulate_shard_detail(acc: dict, detail: dict) -> dict:
    """Fold one phase's coordinator counters into a running total."""
    if not acc:
        acc.update({"k": detail["k"], "workers": detail["workers"],
                    "rounds": 0, "msgs_routed": 0, "msgs_sent": 0,
                    "msgs_processed": 0, "checkpoints": 0,
                    "per_shard": [dict(s) for s in detail["per_shard"]]})
        for s in acc["per_shard"]:
            s["cycles"] = 0
            s["msgs_sent"] = 0
            s["msgs_processed"] = 0
    for key in ("rounds", "msgs_routed", "msgs_sent", "msgs_processed",
                "checkpoints"):
        acc[key] += detail[key]
    for tot, s in zip(acc["per_shard"], detail["per_shard"], strict=False):
        tot["cycles"] += s["cycles"]
        tot["msgs_sent"] += s["msgs_sent"]
        tot["msgs_processed"] += s["msgs_processed"]
    return acc


def simulate_sharded_cc(
    g: EdgeList,
    p: int = 1,
    *,
    shards: int = 2,
    workers: int | None = None,
    executor: str = "inline",
    remote_latency: int | None = None,
    streams_per_proc: int = 100,
    edges_per_chunk: int = 16,
    max_iter: int = 64,
    params: dict | None = None,
    base=None,
    budget: int | None = None,
) -> ShardCCSim:
    """Execute owner-computes SV-CC on the sharded runtime.

    Deterministic for a fixed ``shards`` count: labels, merged reports,
    and counters are byte-identical for any ``workers`` and either
    ``executor``.  ``params`` are machine construction overrides
    (``streams_per_proc`` is folded in); ``base`` picks the machine
    class (default :class:`~repro.sim.mta_engine.MTAMachine`).
    """
    from ..sim.shard import PartitionPlan, run_sharded

    n = g.n
    if n == 0:
        raise WorkloadError("empty graph")
    k = int(shards)
    if k < 1:
        raise WorkloadError(f"shards must be >= 1, got {k}")
    if p < k:
        raise WorkloadError(f"p={p} must be >= shards={k}")
    if n < k:
        raise WorkloadError(f"n={n} must be >= shards={k}")
    require_positive(streams_per_proc=streams_per_proc, edges_per_chunk=edges_per_chunk)
    sym = g.symmetrized()
    eu = sym.u.tolist()
    ev = sym.v.tolist()
    m2 = len(eu)

    layout, bounds = cc_partition_layout(n, m2, p, k)
    vb, eb, _, pb = layout
    plan = PartitionPlan(bounds[-1], p, k, addr_bounds=bounds, proc_bounds=pb)
    params = dict(params or {})
    params.setdefault("streams_per_proc", int(streams_per_proc))
    if k > 1 and params.get("n_banks"):
        # run_sharded rejects it too; this is the workload-level error
        raise WorkloadError(
            "bank modeling (n_banks) is incompatible with sharding:"
            " shard timing needs the flat hashed-memory model"
        )
    chunk = int(edges_per_chunk)
    vchunk = max(4, chunk)
    graft_w = [max(1, min((pb[j + 1] - pb[j]) * params["streams_per_proc"],
                          eb[j + 1] - eb[j])) for j in range(k)]
    short_w = [max(1, min((pb[j + 1] - pb[j]) * params["streams_per_proc"],
                          vb[j + 1] - vb[j])) for j in range(k)]

    common = dict(workers=workers, executor=executor, base=base,
                  params=params, remote_latency=remote_latency,
                  budget=budget)
    d = list(range(n))
    reports = []
    detail: dict = {}
    iterations = 0
    while True:
        iterations += 1
        if iterations > max_iter:
            raise SimulationError(
                f"sharded SV-CC exceeded {max_iter} iterations"
            )
        res = run_sharded(plan, builder=graft_builder,
                          builder_args=(eu, ev, d, layout, graft_w, chunk),
                          name=f"mta.graft.{iterations}", **common)
        reports.append(res.report)
        accumulate_shard_detail(detail, res.detail)
        d = [res.values[_d_addr(layout, i)] for i in range(n)]
        if not any(res.values[_flag_addr(layout, j)] for j in range(k)):
            break
        res = run_sharded(plan, builder=shortcut_builder,
                          builder_args=(d, layout, short_w, vchunk),
                          name=f"mta.shortcut.{iterations}", **common)
        reports.append(res.report)
        accumulate_shard_detail(detail, res.detail)
        d = [res.values[_d_addr(layout, i)] for i in range(n)]

    labels = normalize_labels(np.asarray(d, dtype=np.int64))
    return ShardCCSim(
        labels=labels,
        iterations=iterations,
        report=combine_reports("mta.sv-cc", reports),
        phase_reports=reports,
        shard_detail=detail,
    )
