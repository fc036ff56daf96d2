"""Tests for the analytic SMP machine model (repro.core.smp_machine)."""

import numpy as np
import pytest

from repro.core.cost import StepCost
from repro.core.smp_machine import SUN_E4500, SMPConfig, SMPMachine
from repro.errors import ConfigurationError


def step(p=1, **kw):
    kw.setdefault("name", "s")
    return StepCost(p=p, **kw)


class TestSMPConfig:
    def test_default_is_e4500(self):
        assert SUN_E4500.clock_hz == 400e6
        assert SUN_E4500.l1.size_words == 4096  # 16 KB of 4-byte ints
        assert SUN_E4500.l2.size_words == 1 << 20  # 4 MB of 4-byte ints

    def test_barrier_cost_grows_with_p(self):
        assert SUN_E4500.barrier_cycles(8) > SUN_E4500.barrier_cycles(2)
        assert SUN_E4500.barrier_cycles(1) == SUN_E4500.barrier_base_cycles

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            SMPConfig(max_p=0)
        with pytest.raises(ConfigurationError):
            SMPConfig(clock_hz=0)
        with pytest.raises(ConfigurationError):
            SMPConfig(bus_words_per_cycle=0)


class TestSMPMachineBasics:
    def test_p_bounds(self):
        with pytest.raises(ConfigurationError):
            SMPMachine(p=0)
        with pytest.raises(ConfigurationError):
            SMPMachine(p=SUN_E4500.max_p + 1)

    def test_with_p(self):
        m = SMPMachine(p=2).with_p(4)
        assert m.p == 4
        assert m.config is SUN_E4500

    def test_step_p_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SMPMachine(p=2).step_time(step(p=4, ops=1.0))


class TestSMPCostStructure:
    def test_noncontig_costlier_than_contig(self):
        m = SMPMachine(p=1)
        big_ws = 10 * SUN_E4500.l2.size_words
        a = m.step_time(step(contig=10000.0, working_set=big_ws))
        b = m.step_time(step(noncontig=10000.0, working_set=big_ws))
        assert b.cycles > 2 * a.cycles

    def test_working_set_tiers(self):
        """Scattered accesses get cheaper as the working set shrinks into cache."""
        m = SMPMachine(p=1)
        in_l1 = m.step_time(step(noncontig=1000.0, working_set=1000))
        in_l2 = m.step_time(step(noncontig=1000.0, working_set=100_000))
        in_mem = m.step_time(step(noncontig=1000.0, working_set=10_000_000))
        assert in_l1.cycles < in_l2.cycles < in_mem.cycles

    def test_scattered_writes_cheaper_than_scattered_reads(self):
        """The write buffer hides store latency."""
        m = SMPMachine(p=1)
        ws = 10 * SUN_E4500.l2.size_words
        r = m.step_time(step(noncontig=10000.0, working_set=ws))
        w = m.step_time(step(noncontig_writes=10000.0, working_set=ws))
        assert w.cycles < r.cycles

    def test_barrier_cost_added(self):
        m = SMPMachine(p=4)
        no_b = m.step_time(step(p=4, ops=100.0, barriers=0))
        with_b = m.step_time(step(p=4, ops=100.0, barriers=2))
        assert with_b.cycles - no_b.cycles == pytest.approx(
            2 * SUN_E4500.barrier_cycles(4)
        )

    def test_slowest_processor_sets_the_pace(self):
        m = SMPMachine(p=2)
        balanced = m.step_time(step(p=2, ops=np.array([50.0, 50.0])))
        skewed = m.step_time(step(p=2, ops=np.array([100.0, 0.0])))
        assert skewed.cycles > balanced.cycles

    def test_bus_floor_binds_for_heavy_traffic(self):
        """With enough processors streaming, the bus becomes the limit."""
        m = SMPMachine(p=8)
        st = m.step_time(step(p=8, contig=8e6, working_set=10_000_000))
        assert st.detail["bus_cycles"] >= st.detail["work_cycles"] * 0.5

    def test_run_aggregates_and_converts_seconds(self):
        m = SMPMachine(p=1)
        res = m.run([step(ops=400.0), step(ops=400.0)])
        assert res.cycles == pytest.approx(2 * 400.0 * SUN_E4500.cpi)
        assert res.seconds == pytest.approx(res.cycles / 400e6)


class TestSMPTraceMode:
    def test_trace_mode_used_when_traces_present(self):
        m = SMPMachine(p=1)
        trace = np.arange(1000, dtype=np.int64)
        st = m.step_time(step(traces=[trace]))
        assert st.detail["mode"] == "trace"

    def test_trace_mode_disabled_flag(self):
        m = SMPMachine(p=1, use_traces=False)
        st = m.step_time(step(noncontig=10.0, traces=[np.arange(10, dtype=np.int64)]))
        assert st.detail["mode"] == "counts"

    def test_sequential_trace_cheaper_than_random_trace(self, rng):
        # the ordered/random gap needs a working set beyond the 4 MB L2,
        # exactly as in the paper's large-list runs
        n = 1 << 20  # 8 MB of words
        m = SMPMachine(p=1)
        seq = np.arange(n, dtype=np.int64)
        rand = rng.permutation(n).astype(np.int64)
        t_seq = m.step_time(step(traces=[seq]))
        t_rand = m.step_time(step(traces=[rand]))
        assert t_rand.cycles > 2.0 * t_seq.cycles

    def test_run_builds_hierarchies_only_for_traced_steps(self, monkeypatch):
        from repro.core import smp_machine

        built = []
        real = smp_machine.CacheHierarchy

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(smp_machine, "CacheHierarchy", counting)
        m = SMPMachine(p=2)
        m.run([step(p=2, noncontig=10.0), step(p=2, contig=5.0)])
        assert built == []
        trace = np.arange(64, dtype=np.int64)
        m.run([step(p=2, noncontig=1.0), step(p=2, traces=[trace, trace]),
               step(p=2, traces=[trace, trace])])
        assert len(built) == 2  # one per processor, kept warm across steps

    def test_run_carries_warm_lines_across_traced_steps(self):
        m = SMPMachine(p=1)
        trace = np.arange(256, dtype=np.int64)
        cold, warm = m.run([step(traces=[trace]), step(traces=[trace])]).steps
        assert warm.cycles < cold.cycles
