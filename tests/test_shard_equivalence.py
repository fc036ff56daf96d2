"""The sharded runtime's equivalence contract (docs/SHARDING.md).

1. ``shards=1`` is byte-identical to the plain unsharded kernel.
2. For a fixed partition count ``k``, results are independent of the
   worker count and of the executor (``inline`` vs ``mp``), including
   optional hook-event streams.
3. With ``remote_latency == mem_latency`` and partition-local stateful
   references, any ``k`` is byte-identical to the unsharded kernel.
"""

import pytest

from repro.errors import ConfigurationError, DeadlockError
from repro.sim import MTAEngine, SMPEngine
from repro.sim.mta_next import MTANextEngine, MTANextMachine
from repro.sim.shard import PartitionPlan, ShardEventLog, run_sharded

from .shard_helpers import (
    N_WORDS,
    P,
    build_cross,
    build_deadlock,
    build_local,
    build_values,
    EngCtx,
    canon,
    run_unsharded,
)


def shard(builder, k, W, R, **kw):
    plan = PartitionPlan(N_WORDS, P, k)
    return run_sharded(plan, workers=W, builder=builder,
                       params={"streams_per_proc": 16},
                       remote_latency=R, name="smoke",
                       budget=10_000_000, **kw)


class TestEquivalenceContract:
    def test_shards_1_matches_unsharded(self):
        ref = run_unsharded(build_cross)
        res = shard(build_cross, 1, 1, 100)
        assert canon(res.report) == canon(ref)

    @pytest.mark.parametrize("k,executor", [(2, "inline"), (4, "inline"),
                                            (4, "mp")], ids=["2", "4", "4-mp"])
    def test_worker_count_invariance(self, k, executor):
        base = shard(build_cross, k, 1, 100)
        for W in sorted({2, k}):
            res = shard(build_cross, k, W, 100, executor=executor)
            # W=1 traffic is worker-local loopback; W>=2 routes through
            # the coordinator — the reports must not see the difference
            assert res.detail["msgs_routed"] > 0
            assert canon(res.report) == canon(base.report), (k, W)

    def test_value_words_are_worker_invariant(self):
        base = shard(build_values, 4, 1, 100)
        assert base.values[201] == base.values[1200] + 1
        for W in (2, 4):
            res = shard(build_values, 4, W, 100)
            assert canon(res.report) == canon(base.report), W
            assert res.values == base.values

    @pytest.mark.parametrize("k,W", [(1, 1), (2, 2), (4, 4)])
    def test_mp_executor_matches_inline(self, k, W):
        a = shard(build_cross, k, W, 100, collect_events=True)
        b = shard(build_cross, k, W, 100, executor="mp",
                  collect_events=True)
        assert canon(a.report) == canon(b.report)
        assert a.events == b.events and a.events

    def test_event_streams_are_worker_invariant(self):
        e1 = shard(build_cross, 4, 1, 100, collect_events=True)
        e4 = shard(build_cross, 4, 4, 100, collect_events=True)
        assert e1.events == e4.events

    @pytest.mark.parametrize("k,W", [(1, 1), (2, 1), (2, 2), (4, 2), (4, 4)])
    def test_local_refs_match_unsharded_at_any_k(self, k, W):
        log = ShardEventLog()
        ref = run_unsharded(build_local, hooks=(log,))
        res = shard(build_local, k, W, None, collect_events=True)
        assert canon(res.report) == canon(ref)
        assert res.events == log.canonical()

    def test_remote_latency_changes_timing_but_not_values(self):
        fast = shard(build_cross, 2, 1, 100)
        slow = shard(build_cross, 2, 1, 400)
        assert slow.report.cycles > fast.report.cycles
        assert fast.values == slow.values

    def test_deadlock_is_detected_not_hung(self):
        with pytest.raises(DeadlockError):
            shard(build_deadlock, 2, 2, 100)


class TestEngineFacade:
    """The facades run unsharded; the shard runtime reproduces a facade
    run whenever the contract's point 3 holds."""

    @pytest.mark.parametrize("k,W", [(1, 1), (2, 2)])
    def test_facade_local_matches_unsharded(self, k, W):
        eng = MTAEngine(P, streams_per_proc=16)
        build_local(EngCtx(eng))
        ref = eng.run("smoke", 10_000_000)
        res = shard(build_local, k, W, None)
        assert canon(res.report) == canon(ref)
        assert (res.detail["k"], res.detail["workers"]) == (k, W)
        assert res.detail["rounds"] >= 0


class TestMachineConfig:
    """run_sharded builds one reference machine before any worker
    starts: it owns the flat-memory rule and rejects bad configs."""

    def test_mta_next_drops_default_banks(self):
        res = shard(build_local, 2, 2, None, base=MTANextMachine)
        assert "bank_contention_stalls" not in res.report.detail
        # k == 1 is the plain kernel: the machine's banks stay on
        res = shard(build_local, 1, 1, None, base=MTANextMachine)
        assert "bank_contention_stalls" in res.report.detail

    @pytest.mark.parametrize("executor", ["inline", "mp"])
    @pytest.mark.parametrize("bad", [
        {"remote_latency": 0},
        {"params": {"streams_per_proc": 16, "n_banks": 16}},
        {"params": {"streams_per_proc": 16, "mem_latency": 0}},
    ], ids=["remote_latency=0", "n_banks", "mem_latency=0"])
    def test_bad_config_raises_before_workers_start(self, capfd, executor, bad):
        kw = {"remote_latency": 100, **bad}
        plan = PartitionPlan(N_WORDS, P, 2)
        with pytest.raises(ConfigurationError):
            run_sharded(plan, workers=2, executor=executor,
                        builder=build_cross,
                        params=kw.pop("params", {"streams_per_proc": 16}),
                        name="smoke", **kw)
        # no worker ran, so none printed a traceback
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("kw", ["shards", "shard_workers", "shard_executor",
                                    "shard_words", "remote_latency"])
    def test_facades_have_no_shard_keywords(self, kw):
        with pytest.raises(TypeError):
            MTAEngine(P, **{kw: 2})
        with pytest.raises(TypeError):
            MTANextEngine(P, **{kw: 2})
        with pytest.raises(TypeError):
            SMPEngine(P, **{kw: 2})

    @pytest.mark.parametrize("kw", ["checkpoint", "resume", "collect_events"])
    def test_facade_run_has_no_shard_keywords(self, kw):
        eng = MTAEngine(P)
        with pytest.raises(TypeError):
            eng.run("smoke", **{kw: None})
