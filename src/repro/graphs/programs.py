"""Thread programs that *execute* connected components on the cycle engines.

Counterpart of :mod:`repro.lists.programs` for the Shiloach–Vishkin
family: the algorithms run as swarms of simulated threads whose
interleaving — and therefore whose concurrent-write resolution — is
decided by the engine's cycle-level schedule.  The grafting races of
Alg. 3 are thus *real* races (resolved by simulated time rather than
NumPy's array order), and the measured utilization feeds the paper's
Table 1.

MTA program (Alg. 3): each outer iteration runs two engine phases —

* ``graft`` — streams grab chunks of the 2m directed edges with
  ``int_fetch_add``, and for each edge read ``D[u]``, ``D[v]``,
  ``D[D[v]]`` (dependent loads) and conditionally write the graft.
* ``shortcut`` — streams grab chunks of vertices and chase each vertex's
  parent pointer to the root, writing it back.

The orchestrator (plain Python between engine runs) checks the graft
flag, mirroring the C code's ``while (graft)`` loop.

SMP program: one thread per processor over contiguous edge/vertex
chunks, with software barriers between the graft and shortcut steps and
a shared "continue?" flag published by processor 0 — the structure of a
pthreads implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch.memory import AddressSpace
from ..errors import ConfigurationError, SimulationError, WorkloadError, require_positive
from ..sim import isa
from ..sim.branch import OneBitPredictor, penalty_ops
from ..sim.mta_engine import MTAEngine
from ..sim.smp_engine import SMPEngine
from ..sim.stats import SimReport, combine_reports
from .edgelist import EdgeList
from .types import normalize_labels

__all__ = ["CCSim", "simulate_mta_cc", "simulate_smp_cc"]


@dataclass
class CCSim:
    """Result of executing connected components on a cycle engine.

    Attributes
    ----------
    labels:
        Canonical component labels (validated by tests against the
        sequential reference).
    iterations:
        Outer graft-and-shortcut iterations executed.
    report:
        Whole-run simulation report.
    phase_reports:
        One report per engine phase, in execution order.
    """

    labels: np.ndarray
    iterations: int
    report: SimReport
    phase_reports: list[SimReport] = field(default_factory=list)

    @property
    def summary(self):
        """Observability report (:class:`repro.obs.RunSummary`) for the run.

        Built from the per-phase reports with the same arithmetic as
        :func:`~repro.sim.stats.combine_reports`, so ``summary.utilization``
        equals ``report.utilization`` exactly.
        """
        from ..obs.summary import RunSummary

        return RunSummary.from_reports(self.report.name, self.phase_reports)


def simulate_mta_cc(
    g: EdgeList,
    p: int = 1,
    *,
    streams_per_proc: int = 100,
    edges_per_chunk: int = 16,
    max_iter: int = 64,
    engine_kwargs: dict | None = None,
    tracer=None,
    check=None,
    engine=None,
    session=None,
) -> CCSim:
    """Execute the paper's Alg. 3 on the MTA cycle engine.

    Parameters
    ----------
    g:
        Input graph.
    p:
        Simulated processors.
    streams_per_proc:
        Worker streams per processor.
    edges_per_chunk:
        Edges grabbed per ``int_fetch_add`` (loop-chunking; 1 reproduces
        the per-iteration hotspot in full).
    max_iter:
        Safety bound on outer iterations.
    engine_kwargs:
        Overrides for :class:`~repro.sim.MTAEngine`.
    tracer:
        Optional :class:`repro.obs.Tracer`; each graft/shortcut engine
        phase is recorded back to back on its timeline.
    engine:
        Engine facade to construct instead of the stock
        :class:`~repro.sim.MTAEngine` (any interleaved machine's
        facade works, e.g. :class:`~repro.sim.mta_next.MTANextEngine`).
    session:
        Optional :class:`repro.sim.checkpoint.CheckpointSession` shared
        by every graft/shortcut engine phase (periodic snapshots /
        resume).
    """
    n = g.n
    if n == 0:
        raise WorkloadError("empty graph")
    require_positive(streams_per_proc=streams_per_proc, edges_per_chunk=edges_per_chunk)
    sym = g.symmetrized()
    eu = sym.u.tolist()
    ev = sym.v.tolist()
    m2 = len(eu)

    space = AddressSpace()
    a_d = space.alloc("D", n)
    a_e = space.alloc("E", 2 * m2)
    a_ctr = space.alloc("counters", 8)
    a_flag = space.alloc("graft-flag", 1)

    d = list(range(n))
    eng_cls = engine if engine is not None else MTAEngine
    kw = dict(engine_kwargs or {})
    kw.setdefault("streams_per_proc", streams_per_proc)
    kw.setdefault("tracer", tracer)
    kw.setdefault("check", check)
    kw.setdefault("session", session)
    if kw["check"] is not None:
        kw["check"].set_address_space(space)
        # Concurrent grafts d[dv] = du (different winners racing on one
        # root) and the shared did-anything-graft flag are the textbook
        # benign races of Shiloach--Vishkin: any winner advances the
        # algorithm.  Annotated so default analysis stays clean while
        # --strict still surfaces them.
        kw["check"].allow_racy(
            a_d.base, a_d.end, "SV concurrent grafts/shortcuts are algorithmically benign"
        )
        kw["check"].allow_racy(
            a_flag.base, a_flag.end, "graft flag is a monotonic any-write-wins broadcast"
        )
    n_workers = max(1, min(p * streams_per_proc, m2))
    reports: list[SimReport] = []
    graft_flag = [False]

    def graft_worker(counter_addr: int):
        local_graft = False
        while True:
            start = yield isa.fetch_add(counter_addr, edges_per_chunk)
            if start >= m2:
                break
            for i in range(start, min(start + edges_per_chunk, m2)):
                u = eu[i]
                v = ev[i]
                yield isa.load(a_e.addr(2 * i))
                yield isa.load(a_e.addr(2 * i + 1))
                du = d[u]
                yield isa.load_dep(a_d.addr(u))
                dv = d[v]
                yield isa.load_dep(a_d.addr(v))
                ddv = d[dv]
                yield isa.load_dep(a_d.addr(dv))
                yield isa.compute(1)
                if du < dv and dv == ddv:
                    d[dv] = du  # the race is resolved by simulated time
                    local_graft = True
                    yield isa.store(a_d.addr(dv))
        if local_graft and not graft_flag[0]:
            graft_flag[0] = True
            yield isa.store(a_flag.addr(0))

    def shortcut_worker(counter_addr: int, chunk: int):
        while True:
            start = yield isa.fetch_add(counter_addr, chunk)
            if start >= n:
                break
            for i in range(start, min(start + chunk, n)):
                di = d[i]
                yield isa.load_dep(a_d.addr(i))
                while True:
                    ddi = d[di]
                    yield isa.load_dep(a_d.addr(di))
                    yield isa.compute(1)
                    if di == ddi:
                        break
                    d[i] = ddi
                    di = ddi
                    yield isa.store(a_d.addr(i))

    iterations = 0
    while True:
        iterations += 1
        if iterations > max_iter:
            raise SimulationError(f"Alg. 3 simulation exceeded {max_iter} iterations")
        graft_flag[0] = False
        eng = eng_cls(p=p, **kw)
        eng.set_counter(a_ctr.base + 0, 0)
        for _ in range(n_workers):
            eng.spawn(graft_worker(a_ctr.base + 0))
        reports.append(eng.run(f"mta.graft.{iterations}"))
        if not graft_flag[0]:
            break
        eng = eng_cls(p=p, **kw)
        eng.set_counter(a_ctr.base + 1, 0)
        vchunk = max(4, edges_per_chunk)
        n_sc = max(1, min(p * streams_per_proc, n))
        for _ in range(n_sc):
            eng.spawn(shortcut_worker(a_ctr.base + 1, vchunk))
        reports.append(eng.run(f"mta.shortcut.{iterations}"))

    labels = normalize_labels(np.asarray(d, dtype=np.int64))
    return CCSim(
        labels=labels,
        iterations=iterations,
        report=combine_reports("mta.sv-cc", reports),
        phase_reports=reports,
    )


def simulate_smp_cc(
    g: EdgeList,
    p: int = 1,
    *,
    max_iter: int = 64,
    config=None,
    tracer=None,
    check=None,
    session=None,
    variant: str | None = None,
) -> CCSim:
    """Execute hook-and-shortcut connected components on the SMP cycle engine.

    One pthread per processor; contiguous chunks of the edge and vertex
    arrays; two software barriers per iteration plus a termination
    broadcast from processor 0 (three barriers total) — the classic SMP
    structure.  Caches and the shared bus are simulated from the real
    address streams.

    ``variant`` selects the branch treatment of the graft test:

    * ``None`` (default) — the classic program, byte-identical op
      stream to every committed golden; branches are free.
    * ``"branchy"`` — same algorithm, but each processor runs a
      deterministic one-bit predictor on its graft test and emits a
      refetch bubble (``compute`` ops worth
      ``config.mispredict_penalty_cycles``) on every mispredict.
    * ``"branch-avoiding"`` — the predicated formulation: every edge
      unconditionally stores into ``D`` (a min-write) and spends one
      extra select op, with no unpredictable branch at all.

    Both named variants attach host-side branch counters to
    ``report.detail["branch"]`` so ``repro.xval`` can compare the
    engine's measured branch cost against the analytic prediction.
    """
    from ..core.smp_machine import SUN_E4500

    n = g.n
    if n == 0:
        raise WorkloadError("empty graph")
    if config is None:
        config = SUN_E4500
    if variant not in (None, "branchy", "branch-avoiding"):
        raise ConfigurationError(
            f"unknown SMP CC variant {variant!r}"
            " (choose from: branchy, branch-avoiding)"
        )
    bubble_ops = (
        penalty_ops(config.mispredict_penalty_cycles, config.cpi)
        if variant == "branchy"
        else 0
    )
    predictors = [OneBitPredictor() for _ in range(p)]
    sym = g.symmetrized()
    eu = sym.u.tolist()
    ev = sym.v.tolist()
    m2 = len(eu)

    space = AddressSpace()
    a_d = space.alloc("D", n)
    a_e = space.alloc("E", 2 * m2)
    a_flag = space.alloc("graft-flag", 1)

    d = list(range(n))
    shared = {"graft": False, "iterations": 0}
    ebounds = np.linspace(0, m2, p + 1).astype(int)
    vbounds = np.linspace(0, n, p + 1).astype(int)

    def program(proc: int):
        elo, ehi = int(ebounds[proc]), int(ebounds[proc + 1])
        vlo, vhi = int(vbounds[proc]), int(vbounds[proc + 1])
        it = 0
        while it < max_iter:
            it += 1
            local_graft = False
            if proc == 0:
                shared["graft"] = False
                shared["iterations"] = it
            yield isa.barrier("reset")
            # Processor 0 alone emits phase markers — marks slice the whole
            # machine's timeline, so a single emitter keeps them a partition.
            if proc == 0:
                yield isa.phase(f"graft.{it}")
            # graft my contiguous edge chunk
            for i in range(elo, ehi):
                u = eu[i]
                v = ev[i]
                yield isa.load(a_e.addr(2 * i))
                yield isa.load(a_e.addr(2 * i + 1))
                du = d[u]
                yield isa.load_dep(a_d.addr(u))
                dv = d[v]
                yield isa.load_dep(a_d.addr(v))
                ddv = d[dv]
                yield isa.load_dep(a_d.addr(dv))
                graft = du < dv and dv == ddv
                if variant == "branch-avoiding":
                    # predicated min-write: selects instead of a branch,
                    # and the store happens whether or not it grafts
                    yield isa.compute(2)
                    if graft:
                        d[dv] = du
                        local_graft = True
                    yield isa.store(a_d.addr(dv))
                else:
                    yield isa.compute(1)
                    if variant == "branchy" and predictors[proc].record(graft):
                        if bubble_ops:
                            yield isa.compute(bubble_ops)
                    if graft:
                        d[dv] = du
                        local_graft = True
                        yield isa.store(a_d.addr(dv))
            if local_graft:
                shared["graft"] = True
                yield isa.store(a_flag.addr(0))
            yield isa.barrier("graft")
            if not shared["graft"]:
                return
            if proc == 0:
                yield isa.phase(f"shortcut.{it}")
            # shortcut my contiguous vertex chunk
            for i in range(vlo, vhi):
                di = d[i]
                yield isa.load_dep(a_d.addr(i))
                while True:
                    ddi = d[di]
                    yield isa.load_dep(a_d.addr(di))
                    yield isa.compute(1)
                    if di == ddi:
                        break
                    d[i] = ddi
                    di = ddi
                    yield isa.store(a_d.addr(i))
            yield isa.barrier("shortcut")
        raise SimulationError(f"SMP CC simulation exceeded {max_iter} iterations")

    if check is not None:
        check.set_address_space(space)
        check.allow_racy(
            a_d.base, a_d.end, "SV concurrent grafts/shortcuts are algorithmically benign"
        )
        check.allow_racy(
            a_flag.base, a_flag.end, "graft flag is a monotonic any-write-wins broadcast"
        )
    eng = SMPEngine(p=p, config=config, tracer=tracer, check=check, session=session)
    for proc in range(p):
        eng.attach(program(proc))
    report = eng.run("smp.sv-cc")
    if variant is not None:
        branches = sum(pr.branches for pr in predictors)
        mispredicts = sum(pr.mispredicts for pr in predictors)
        report.detail["branch"] = {
            "variant": variant,
            "branches": branches,
            "mispredicts": mispredicts,
            "penalty_cycles": float(mispredicts * bubble_ops * config.cpi),
        }
    labels = normalize_labels(np.asarray(d, dtype=np.int64))
    return CCSim(
        labels=labels,
        iterations=shared["iterations"],
        report=report,
        phase_reports=[report],
    )
