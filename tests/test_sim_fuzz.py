"""Fuzz tests: random thread programs must never wedge the engines.

Hypothesis generates arbitrary well-formed op sequences (no orphan
barriers, producers matched to consumers) and checks the engines'
global invariants: termination, exact instruction accounting,
utilization bounds, and conservation of fetch-add increments.

The second half is the **differential form fuzzer**: the same random
programs (sync-word producer/consumer patterns, barriers, phase
markers, ``run_block`` chains, varying stream counts and machine
parameters) run on both machines twice — once with their straight-line
runs delivered as ``VR`` run blocks and once with every block expanded
into single yields — and the resulting :class:`~repro.sim.SimReport`
must be byte-identical: cycles, per-processor issue counts, op
histograms, phase slices, barrier statistics, contention detail.  That
is what makes ``run_block`` a zero-cost macro.  A failure prints the
seed and a one-line repro command; replay a single seed with::

    REPRO_FUZZ_SEED=<seed> PYTHONPATH=src python -m pytest \
        tests/test_sim_fuzz.py -k differential
"""

import json
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import MTAEngine, SMPEngine, isa

from .shard_helpers import EngCtx

# one op of a random straight-line program (no sync ops — those need
# matched partners and are fuzzed separately below)
plain_op = st.one_of(
    st.integers(min_value=1, max_value=5).map(isa.compute),
    st.integers(min_value=0, max_value=4000).map(isa.load),
    st.integers(min_value=0, max_value=4000).map(isa.load_dep),
    st.integers(min_value=0, max_value=4000).map(isa.store),
    st.integers(min_value=0, max_value=16).map(lambda a: isa.fetch_add(a, 1)),
)

program_strategy = st.lists(plain_op, min_size=0, max_size=30)


def make_gen(ops):
    def gen():
        for op in ops:
            result = yield op
            del result

    return gen()


@settings(max_examples=50, deadline=None)
@given(programs=st.lists(program_strategy, min_size=1, max_size=12))
def test_mta_engine_accounts_every_instruction(programs):
    eng = MTAEngine(p=2, streams_per_proc=64, mem_latency=20)
    for addr in range(17):
        eng.set_counter(addr, 0)
    total_ops = 0
    for ops in programs:
        total_ops += sum(op[1] if op[0] == "C" else 1 for op in ops)
        eng.spawn(make_gen(ops))
    report = eng.run(max_cycles=2_000_000)
    assert report.total_issued == total_ops
    assert 0.0 <= report.utilization <= 1.0
    assert report.cycles >= -(-total_ops // 2)  # at most 2 issues per cycle (p=2)


@settings(max_examples=50, deadline=None)
@given(programs=st.lists(program_strategy, min_size=1, max_size=6))
def test_smp_engine_accounts_every_instruction(programs):
    p = len(programs)
    eng = SMPEngine(p=p)
    for addr in range(17):
        eng.set_counter(addr, 0)
    total_ops = 0
    for ops in programs:
        total_ops += len(ops)
        eng.attach(make_gen(ops))
    report = eng.run()
    assert report.total_issued == total_ops


@settings(max_examples=30, deadline=None)
@given(
    increments=st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fetch_add_conserves_sum_under_any_interleaving(increments, seed):
    rng = np.random.default_rng(seed)
    eng = MTAEngine(p=int(rng.integers(1, 5)), streams_per_proc=64, mem_latency=5)
    eng.set_counter(0, 100)

    def adder(inc):
        yield isa.compute(int(rng.integers(1, 4)))
        yield isa.fetch_add(0, inc)

    for inc in increments:
        eng.spawn(adder(inc))
    eng.run()
    assert eng.fa_values[0] == 100 + sum(increments)


@settings(max_examples=30, deadline=None)
@given(n_pairs=st.integers(min_value=1, max_value=10), seed=st.integers(min_value=0, max_value=2**31))
def test_full_empty_pairs_always_complete(n_pairs, seed):
    """Matched producer/consumer sets never deadlock and every value
    is delivered exactly once."""
    rng = np.random.default_rng(seed)
    eng = MTAEngine(p=int(rng.integers(1, 4)), streams_per_proc=64, mem_latency=10)
    received = []

    def producer(addr, value, delay):
        yield isa.compute(delay)
        yield isa.sync_store(addr, value)

    def consumer(addr, delay):
        yield isa.compute(delay)
        v = yield isa.sync_load_consume(addr)
        received.append(v)

    for k in range(n_pairs):
        addr = 1000 + int(rng.integers(0, 3))  # shared cells across pairs
        eng.spawn(producer(addr, k, int(rng.integers(1, 20))))
        eng.spawn(consumer(addr, int(rng.integers(1, 20))))
    eng.run()
    assert sorted(received) == list(range(n_pairs))


# ---------------------------------------------------------------------------
# Differential form fuzzing: VR run blocks ≡ the same ops yielded singly
# ---------------------------------------------------------------------------

#: Seeds per machine (the acceptance floor is 200); ``REPRO_FUZZ_SEED``
#: narrows the run to one seed for replay.
_N_SEEDS = 200
_BLOCK = 10  # seeds per pytest item (keeps collection cheap)

_REPLAY = os.environ.get("REPRO_FUZZ_SEED")


def _canon(obj):
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    return obj


def _report_blob(report) -> str:
    """Canonical bytes of everything a SimReport observes."""
    return json.dumps(
        _canon(
            {
                "name": report.name,
                "p": report.p,
                "cycles": report.cycles,
                "issued": list(report.issued),
                "op_counts": report.op_counts,
                "detail": report.detail,
                "phases": [asdict(ph) for ph in report.phases],
            }
        ),
        sort_keys=True,
    )


def _fuzz_programs(rng):
    """A random matched set of stream programs, as op-list data.

    Mixes every construct the two program forms must agree on: plain
    ops, fetch-adds, phase markers, ``run_block`` chains (half of them
    pure dependent-load chains), one all-streams barrier, and
    matched sync-store/consume pairs (MTA only; the caller skips them on
    the SMP, whose machine has no full/empty handlers).
    """
    n_progs = int(rng.integers(1, 10))
    with_barrier = bool(rng.integers(0, 2)) and n_progs > 1
    progs = []
    for _ in range(n_progs):
        ops = []
        for _ in range(int(rng.integers(0, 14))):
            c = int(rng.integers(0, 7))
            if c == 0:
                ops.append(isa.compute(int(rng.integers(1, 5))))
            elif c == 1:
                ops.append(isa.load(int(rng.integers(0, 200))))
            elif c == 2:
                ops.append(isa.load_dep(int(rng.integers(0, 200))))
            elif c == 3:
                ops.append(isa.store(int(rng.integers(0, 200))))
            elif c == 4:
                ops.append(isa.fetch_add(int(rng.integers(0, 8)),
                                         int(rng.integers(-3, 4))))
            elif c == 5:
                ops.append(isa.phase(f"ph{int(rng.integers(0, 3))}"))
            else:
                if rng.integers(0, 2):
                    # pure dependent-load chain (a list walk)
                    blk = [isa.load_dep(int(a))
                           for a in rng.integers(0, 200, int(rng.integers(1, 40)))]
                else:
                    blk = []
                    for _ in range(int(rng.integers(1, 30))):
                        k = int(rng.integers(0, 4))
                        if k == 0:
                            blk.append(isa.compute(int(rng.integers(1, 4))))
                        elif k == 1:
                            blk.append(isa.load(int(rng.integers(0, 200))))
                        elif k == 2:
                            blk.append(isa.load_dep(int(rng.integers(0, 200))))
                        else:
                            blk.append(isa.store(int(rng.integers(0, 200))))
                ops.append(isa.run_block(blk))
        if with_barrier:
            ops.insert(int(rng.integers(0, len(ops) + 1)), isa.barrier("bz"))
        progs.append(ops)
    n_pairs = int(rng.integers(0, 3))
    pairs = [
        (900 + int(rng.integers(0, 2)), k,
         int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        for k in range(n_pairs)
    ]
    return progs, with_barrier, pairs


def _gen_of(ops):
    def g():
        for op in ops:
            result = yield op
            del result

    return g()


def flat_ops(ops):
    """``ops`` with every ``VR`` run block expanded into its plain ops."""
    out = []
    for op in ops:
        if op[0] == isa.RUN_BLOCK:
            out.extend(op[1].ops)
        else:
            out.append(op)
    return out


_PLAIN_TAGS = frozenset((isa.COMPUTE, isa.LOAD, isa.LOAD_DEP, isa.STORE))


def as_run_blocks(gen):
    """Deliver every plain op ``gen`` yields as a one-op ``VR`` run block.

    Nothing is pulled ahead — each block holds exactly the op the
    program just yielded — so the program's Python side runs at the same
    simulated moments; only the kernel path each op takes changes.
    """
    sent = None
    while True:
        try:
            op = gen.send(sent)
        except StopIteration:
            return
        if op[0] in _PLAIN_TAGS:
            op = isa.run_block((op,))
        sent = yield op


def _run_fuzz_mta(seed: int, flat: bool = False):
    rng = np.random.default_rng(seed)
    progs, with_barrier, pairs = _fuzz_programs(rng)
    if flat:
        progs = [flat_ops(ops) for ops in progs]
    eng = MTAEngine(
        p=int(rng.integers(1, 4)),
        streams_per_proc=16,
        mem_latency=int(rng.integers(1, 30)),
        lookahead=int(rng.integers(0, 4)),
        max_outstanding=int(rng.integers(1, 5)),
    )
    for addr in range(8):
        eng.set_counter(addr, 0)
    if with_barrier:
        eng.register_barrier("bz", len(progs))
    for ops in progs:
        eng.spawn(_gen_of(ops))

    def producer(addr, value, delay):
        yield isa.compute(delay)
        yield isa.sync_store(addr, value)

    def consumer(addr, delay):
        yield isa.compute(delay)
        v = yield isa.sync_load_consume(addr)
        del v

    for addr, value, d1, d2 in pairs:
        eng.spawn(producer(addr, value, d1))
        eng.spawn(consumer(addr, d2))
    report = eng.run("fuzz", 10_000_000)
    return _report_blob(report)


def _run_fuzz_smp(seed: int, flat: bool = False):
    rng = np.random.default_rng(seed)
    progs, with_barrier, _pairs = _fuzz_programs(rng)
    if flat:
        progs = [flat_ops(ops) for ops in progs]
    eng = SMPEngine(p=len(progs))
    for addr in range(8):
        eng.set_counter(addr, 0)
    if with_barrier:
        eng.register_barrier("bz", len(progs))
    for ops in progs:
        eng.attach(_gen_of(ops))
    report = eng.run("fuzz")
    return _report_blob(report)


_RUNNERS = {"mta": _run_fuzz_mta, "smp": _run_fuzz_smp}

if _REPLAY is not None:
    _SEED_BLOCKS = [int(_REPLAY)]
else:
    _SEED_BLOCKS = list(range(0, _N_SEEDS, _BLOCK))


@pytest.mark.parametrize("machine", sorted(_RUNNERS))
@pytest.mark.parametrize("seed_block", _SEED_BLOCKS)
def test_differential_tiers_byte_identical(machine, seed_block):
    """Random programs produce byte-identical SimReports whether their
    straight-line runs arrive as ``VR`` run blocks or op by op.  (The
    name predates the single execution path; the two forms compared
    here took over from the two execution tiers.)"""
    runner = _RUNNERS[machine]
    seeds = [seed_block] if _REPLAY is not None else range(
        seed_block, seed_block + _BLOCK
    )
    for seed in seeds:
        blocks = runner(seed)
        flat = runner(seed, flat=True)
        assert blocks == flat, (
            f"{machine} block/flat divergence at seed {seed}; replay with:\n"
            f"  REPRO_FUZZ_SEED={seed} PYTHONPATH=src python -m pytest "
            f"tests/test_sim_fuzz.py -k 'differential and {machine}'"
        )


# ---------------------------------------------------------------------------
# Sharded differential fuzzing: the repro.sim.shard equivalence contract
# ---------------------------------------------------------------------------
#
# Random matched programs run unsharded and at shards ∈ {1, 2, 4}:
#
# * with every *stateful* reference (fetch-add, sync words) kept
#   partition-local and remote_latency == mem_latency, every shard/worker
#   combination must be byte-identical to the unsharded kernel — reports
#   AND hook event streams;
# * with cross-partition stateful traffic (plus GV/PV value words), the
#   result must be identical across worker counts at a fixed shard count.

_SHARD_WORDS = 4000
_SHARD_P = 4  # proc j owns partition j at k=4; nested contiguously at k=2


def _shard_fuzz_case(rng, cross: bool):
    """Case data: machine params, programs pinned to home partitions,
    counters/sync cells to initialize, and an optional global barrier."""
    params = {
        "streams_per_proc": 16,
        "mem_latency": int(rng.integers(1, 30)),
        "lookahead": int(rng.integers(0, 4)),
        "max_outstanding": int(rng.integers(1, 5)),
    }
    n_progs = int(rng.integers(2, 8))
    with_barrier = bool(rng.integers(0, 2))
    counters = {}
    values = {}
    progs = []
    for _ in range(n_progs):
        home = int(rng.integers(0, 4))
        lo = 1000 * home
        ops = []
        for _ in range(int(rng.integers(1, 12))):
            c = int(rng.integers(0, 7 if cross else 5))
            if c == 0:
                ops.append(isa.compute(int(rng.integers(1, 5))))
            elif c == 1:
                ops.append(isa.load(int(rng.integers(0, _SHARD_WORDS))))
            elif c == 2:
                ops.append(isa.load_dep(int(rng.integers(0, _SHARD_WORDS))))
            elif c == 3:
                ops.append(isa.store(int(rng.integers(0, _SHARD_WORDS))))
            elif c == 4:
                base = int(rng.integers(0, 4)) * 1000 if cross else lo
                cell = base + int(rng.integers(0, 8))
                counters[cell] = 0
                ops.append(isa.fetch_add(cell, int(rng.integers(-3, 4))))
            elif c == 5:
                addr = int(rng.integers(0, 4)) * 1000 + 100 + int(rng.integers(0, 8))
                values[addr] = int(rng.integers(0, 50))
                ops.append(isa.get_value(addr))
            else:
                addr = int(rng.integers(0, 4)) * 1000 + 100 + int(rng.integers(0, 8))
                values[addr] = 0
                ops.append(isa.put_value(addr, int(rng.integers(0, 50))))
        if with_barrier:
            ops.insert(int(rng.integers(0, len(ops) + 1)), isa.barrier("bz"))
        progs.append((ops, home))
    pairs = []
    for k in range(int(rng.integers(0, 3))):
        home = int(rng.integers(0, 4))
        addr = 1000 * home + 900 + k
        consumer_proc = int(rng.integers(0, 4)) if cross else home
        pairs.append((addr, k, int(rng.integers(1, 9)),
                      int(rng.integers(1, 9)), home, consumer_proc))
    return {
        "params": params,
        "progs": progs,
        "with_barrier": with_barrier,
        "counters": counters,
        "values": values,
        "pairs": pairs,
    }


def _apply_shard_case(ctx, case, *, sharded: bool):
    """Replay one case through a builder context (worker or engine)."""

    def producer(addr, value, delay):
        yield isa.compute(delay)
        yield isa.sync_store(addr, value)

    def consumer(addr, delay):
        yield isa.compute(delay)
        v = yield isa.sync_load_consume(addr)
        del v

    for cell, value in sorted(case["counters"].items()):
        ctx.set_counter(cell, value)
    if sharded:
        for addr, value in sorted(case["values"].items()):
            ctx.set_value(addr, value)
    if case["with_barrier"]:
        ctx.register_barrier("bz", len(case["progs"]))
    for ops, proc in case["progs"]:
        ctx.spawn(_gen_of(ops), proc)
    for addr, value, d1, d2, home, cproc in case["pairs"]:
        ctx.spawn(producer(addr, value, d1), home)
        ctx.spawn(consumer(addr, d2), cproc)


def _run_shard_fuzz_unsharded(seed: int, *, events: bool):
    from repro.sim.shard.eventlog import ShardEventLog

    rng = np.random.default_rng(seed)
    case = _shard_fuzz_case(rng, cross=False)
    log = ShardEventLog() if events else None
    eng = MTAEngine(_SHARD_P, hooks=(log,) if log else (), **case["params"])
    _apply_shard_case(EngCtx(eng), case, sharded=False)
    report = eng.run("fuzz", 10_000_000)
    return _report_blob(report), (log.canonical() if log else None)


def _run_shard_fuzz_sharded(seed: int, k: int, workers: int, *,
                            cross: bool, events: bool):
    from repro.sim.shard import PartitionPlan, run_sharded

    rng = np.random.default_rng(seed)
    case = _shard_fuzz_case(rng, cross=cross)
    plan = PartitionPlan(_SHARD_WORDS, _SHARD_P, k)
    res = run_sharded(
        plan,
        workers=workers,
        builder=lambda ctx: _apply_shard_case(ctx, case, sharded=True),
        params=case["params"],
        name="fuzz",
        budget=10_000_000,
        collect_events=events,
    )
    return _report_blob(res.report), (res.events if events else None)


@pytest.mark.parametrize("seed", range(0, 12) if _REPLAY is None else [int(_REPLAY)])
def test_shard_fuzz_local_matches_unsharded(seed):
    """Partition-local stateful refs + R == mem_latency: every shard and
    worker count reproduces the unsharded kernel byte for byte."""
    events = seed < 4  # per-op hooks are slow; sample the stream check
    ref_blob, ref_events = _run_shard_fuzz_unsharded(seed, events=events)
    for k, workers in ((1, 1), (2, 1), (2, 2), (4, 2), (4, 4)):
        blob, evs = _run_shard_fuzz_sharded(
            seed, k, workers, cross=False, events=events
        )
        assert blob == ref_blob, (
            f"shard divergence seed={seed} k={k} W={workers}; replay with:\n"
            f"  REPRO_FUZZ_SEED={seed} PYTHONPATH=src python -m pytest "
            f"tests/test_sim_fuzz.py -k shard_fuzz_local"
        )
        if events:
            assert evs == ref_events, (
                f"event-stream divergence seed={seed} k={k} W={workers}"
            )


@pytest.mark.parametrize("seed", range(0, 8) if _REPLAY is None else [int(_REPLAY)])
def test_shard_fuzz_cross_traffic_worker_invariant(seed):
    """Cross-partition fetch-adds, sync pairs, and GV/PV value words:
    at a fixed shard count the result is worker-count invariant."""
    base, _ = _run_shard_fuzz_sharded(seed, 4, 1, cross=True, events=False)
    for workers in (2, 4):
        blob, _ = _run_shard_fuzz_sharded(seed, 4, workers, cross=True,
                                          events=False)
        assert blob == base, (
            f"worker-count divergence seed={seed} W={workers}; replay with:\n"
            f"  REPRO_FUZZ_SEED={seed} PYTHONPATH=src python -m pytest "
            f"tests/test_sim_fuzz.py -k shard_fuzz_cross"
        )


def test_differential_fuzz_exercises_ld_windows():
    """The fuzz corpus actually contains pure dependent-load run blocks
    (without them the block/flat check would never see the list-walk
    shape), and a hand-built pure-LD walk is byte-identical whether it
    yields 64-op blocks, single ops, or one-op blocks."""
    ld_blocks = 0
    for seed in range(40):
        progs, _, _ = _fuzz_programs(np.random.default_rng(seed))
        ld_blocks += sum(
            1
            for ops in progs
            for op in ops
            if op[0] == isa.RUN_BLOCK
            and all(o[0] == isa.LOAD_DEP for o in op[1].ops)
        )
    assert ld_blocks > 0

    def walker(base, blocks):
        for n in (64, 32):
            lds = [isa.load_dep(base + 8 * i) for i in range(n)]
            if blocks:
                yield isa.run_block(lds)
            else:
                yield from lds
            yield isa.compute(1)

    blobs = []
    for blocks, wrap in ((True, None), (False, None), (False, as_run_blocks)):
        eng = MTAEngine(p=2, streams_per_proc=8, mem_latency=15)
        for k in range(16):
            gen = walker(k * 4096, blocks)
            eng.spawn(wrap(gen) if wrap else gen)
        blobs.append(_report_blob(eng.run("walk")))
        assert eng.kernel.window_stats == {"windows": 0, "ops": 0}
    assert blobs[0] == blobs[1] == blobs[2]
