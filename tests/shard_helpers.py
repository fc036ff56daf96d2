"""Shared workload builders for the sharded-runtime tests.

Builders live at module level so the ``mp`` executor can pickle them;
generator *factories* are fine because the builder itself runs inside
each worker process (SPMD) and materializes the generators there.
"""

import json

from repro.sim import MTAEngine
from repro.sim import isa

N_WORDS = 4000
P = 4


def _walk(base, n, stride):
    for i in range(n):
        yield isa.load(base + i * stride)
        yield isa.compute(2)
        yield isa.store(base + i * stride + 1)


def _fa(cell, n):
    for _ in range(n):
        yield isa.fetch_add(cell, 1)
        yield isa.compute(1)


def _sync(addr, producer):
    if producer:
        yield isa.compute(5)
        yield isa.sync_store(addr, 42)
    else:
        v = yield isa.sync_load_consume(addr)
        assert v == 42, v


def _bar(bid, w):
    yield isa.compute(w + 1)
    yield isa.barrier(bid)
    yield isa.load(5 + w)


def _gv_pv(src, dst):
    v = yield isa.get_value(src)
    yield isa.compute(1)
    yield isa.put_value(dst, v + 1)


def build_cross(ctx):
    """Cross-partition FA, sync, and barrier traffic: exercises the
    remote-message path for every kernel-visible op kind (GV/PV value
    words are shard-only, so :func:`build_values` covers them)."""
    for proc in range(P):
        ctx.spawn(_walk(1000 * proc, 20, 3), proc)
    ctx.set_counter(10, 0)
    for proc in range(P):
        ctx.spawn(_fa(10, 5), proc)
    ctx.spawn(_sync(3900, True), 3)
    ctx.spawn(_sync(3900, False), 2)
    ctx.register_barrier("bz", P)
    for proc in range(P):
        ctx.spawn(_bar("bz", proc), proc)


def build_values(ctx):
    """Cross-partition GV/PV value-word traffic (engine-owned state)."""
    for proc in range(P):
        ctx.set_value(1000 * proc + 200, proc * 7)
        ctx.spawn(_gv_pv(1000 * ((proc + 1) % P) + 200,
                         1000 * proc + 201), proc)


def build_local(ctx):
    """Stateful refs (FA/sync) partition-local at k <= 4; plain loads
    roam everywhere.  With remote_latency == mem_latency this is
    byte-identical to the unsharded kernel at any k."""
    for proc in range(P):
        ctx.spawn(_walk(1000 * ((proc + 1) % P), 20, 3), proc)
    for proc in range(P):
        ctx.set_counter(1000 * proc + 10, 0)
        ctx.spawn(_fa(1000 * proc + 10, 5), proc)
    ctx.spawn(_sync(3900, True), 3)
    ctx.spawn(_sync(3900, False), 3)
    ctx.register_barrier("bz", P)
    for proc in range(P):
        ctx.spawn(_bar("bz", proc), proc)


def build_deadlock(ctx):
    """A consumer with no producer: must deadlock, not hang."""
    ctx.spawn(_sync(3900, False), 0)


class EngCtx:
    """Drive an unsharded engine facade with WorkerContext-style calls
    (no ``set_value``: GV/PV value words exist only on sharded machines)."""

    def __init__(self, eng):
        self.eng = eng

    def spawn(self, gen, proc):
        return self.eng.spawn(gen, proc=proc)

    def set_counter(self, addr, value=0):
        self.eng.set_counter(addr, value)

    def set_full(self, addr, value=0):
        self.eng.set_full(addr, value)

    def register_barrier(self, bid, count):
        self.eng.register_barrier(bid, count)


def run_unsharded(builder, hooks=()):
    eng = MTAEngine(P, streams_per_proc=16, hooks=hooks)
    builder(EngCtx(eng))
    return eng.run("smoke", 10_000_000)


def canon(r):
    """Byte-level identity of a SimReport, including phases and detail."""
    return json.dumps(
        {
            "name": r.name,
            "p": r.p,
            "cycles": r.cycles,
            "issued": [int(x) for x in r.issued],
            "op_counts": r.op_counts,
            "detail": r.detail,
            "phases": [
                (s.name, s.start, s.end, s.issued, s.op_counts)
                for s in r.phases
            ],
        },
        sort_keys=True,
        default=str,
    )
