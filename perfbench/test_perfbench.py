"""Tests of the benchmark itself: ``pytest perfbench/`` from the repository root.

The seed-0 counts pin the simulated results of the two engine workloads,
so a change under ``src/`` that alters what the engines compute shows
here before it shows as a benchmark number.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import run
import tracing

run.import_repro()


@pytest.mark.parametrize(
    "workload, cycles, issued",
    [("cc-smp-engine", 1_147_393, 1_228_110), ("cc-mta-engine", 323_677, 1_257_197)],
)
def test_seed0_simulated_counts_are_pinned(workload, cycles, issued):
    from repro.core.runner import run_jobs

    (result,) = run_jobs([run.cc_job(workload, 0)], workers=1, cache=False)
    assert result.summary["cycles"] == cycles
    assert result.summary["issued"] == issued


def test_self_time_is_span_time_minus_children(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    leaf = tracer.per_op("leaf", lambda: sum(range(1000)))

    def inner():
        for _ in range(3):
            leaf()

    outer = tracer.span("outer", lambda: tracer.span("inner", inner)())
    outer()
    (calls, leaf_total, leaf_self) = tracer.aggregates["leaf"]
    assert calls == 3 and leaf_self == leaf_total
    spans = {name: (sid, parent, end - start, self_ns)
             for sid, parent, name, start, end, self_ns in tracer.spans}
    inner_id, inner_parent, inner_dur, inner_self = spans["inner"]
    outer_id, outer_parent, outer_dur, outer_self = spans["outer"]
    assert inner_parent == outer_id and outer_parent is None
    assert inner_self == inner_dur - leaf_total
    assert outer_self == outer_dur - inner_dur


def test_traced_pass_counts_match_the_record(monkeypatch, tmp_path):
    from repro.core import runner
    from repro.core.runner import run_jobs
    from repro.sim import isa

    monkeypatch.setattr(run, "CC_PARAMS", {"graph": "random", "n": 256, "m": 1024})
    job = run.cc_job("cc-smp-engine", 3)
    original = (isa.load, runner._execute_payload)
    tracer = tracing.Tracer(tmp_path)
    patches = tracing.install(tracer)
    try:
        (result,) = run_jobs([job], workers=1, cache=False)
    finally:
        tracing.uninstall(patches)
    assert (isa.load, runner._execute_payload) == original
    ops = sum(calls for name, (calls, _, _) in tracer.aggregates.items()
              if name.startswith("sim.isa.") and name != "sim.isa.phase")
    assert ops == result.summary["issued"]
    names = {span[2] for span in tracer.spans}
    assert {"core.runner.job", "backends.execute.smp-engine", "programs.simulate_cc",
            "sim.kernel.run"} <= names


def test_speed_probe_pins_only_its_threads_and_scales_any_interval():
    affinity = os.sched_getaffinity(0)
    with hostspeed.SpeedProbe(run.workload_cpus("cc-smp-engine")) as probe:
        t0 = time.perf_counter()
        time.sleep(0.3)
        t1 = time.perf_counter()
    assert os.sched_getaffinity(0) == affinity
    assert len(probe.samples) >= 5
    assert probe.scale(t0, t1) > 0
    assert probe.scale(t1 + 60, t1 + 60) > 0  # no sample inside: the nearest ones


def test_cc_passes_cycle_through_distinct_graphs(monkeypatch):
    monkeypatch.setattr(run, "CC_PARAMS", {"graph": "random", "n": 256, "m": 1024})
    bench = run.Bench("cc-smp-engine", 2, run.Checks())
    seeds = [jobs[0].workload.seed for jobs, _ in bench.inputs]
    assert seeds == [2 * run.CC_GRAPHS + i for i in range(run.CC_GRAPHS)]
    for _ in range(run.CC_GRAPHS + 1):
        assert bench.cold_pass() is not None
    assert bench.jobs == bench.inputs[0][0] and bench.checks.failed == 0


def test_label_check_counts_a_mismatch(monkeypatch):
    monkeypatch.setattr(run, "CC_PARAMS", {"graph": "random", "n": 256, "m": 1024})
    checks = run.Checks()
    bench = run.Bench("cc-mta-engine", 1, checks)
    assert bench.cold_pass() is not None and checks.failed == 0
    bench.inputs = [(jobs, labels + 1) for jobs, labels in bench.inputs]
    bench.cold_pass()
    assert checks.failed == 1 and checks.attempted == 2


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cc-mta-engine", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no repro sources" in proc.stderr
