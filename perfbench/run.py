#!/usr/bin/env python3
"""End-to-end benchmark: CC on both cycle engines and the Fig. 1 model sweep.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; ``repro`` is imported from its
``src/``.  Each workload is a closed loop from this one process: the
next pass starts when the previous one has finished.

``--trace 0`` times passes with no wrappers installed and prints the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics (see ``tracing.py`` and ``README.md``).
Either way host times are scaled to a reference host speed measured
while they run (see ``hostspeed.py``), and every pass is checked: CC
labels against sequential union-find, warm sweep records byte for byte
against their cold records.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 if any
check failed or a job raised.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Caches, span spill files and trace output; inside the checkout, ignored by git.
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("cc-smp-engine", "cc-mta-engine", "sweep-fig1-models")
ENGINES = {"cc-smp-engine": "smp-engine", "cc-mta-engine": "mta-engine"}
CC_N = 4096
CC_PARAMS = {"graph": "random", "n": CC_N, "m": 8 * CC_N}
CC_P = 4
#: Distinct graphs a CC run cycles through, one per pass.  About one seed
#: in ten gives a graph on which SV needs an extra iteration (~34% more
#: ops), so a run times several graphs and the median pass is a typical one.
CC_GRAPHS = 5
SWEEP_WORKERS = 2
MIN_PASSES = 3
#: Warm-replay time per cycle, timed in slices of at least ``WARM_SLICE_S``
#: (whole replays) so each slice holds several host-speed samples.
WARM_BATCH_S = 1.0
WARM_SLICE_S = 0.1


def import_repro() -> None:
    """Put the checkout's ``src/`` on the path and import the package."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401
    import repro.backends  # noqa: F401  (registers the built-in backends)
    import repro.core.runner  # noqa: F401


def workload_cpus(name: str) -> set[int]:
    """The CPUs a workload is pinned to: one for CC, one per pool worker
    for the sweep.  The host-speed probe samples exactly these."""
    cpus = sorted(os.sched_getaffinity(0))
    return set(cpus[-1:]) if name in ENGINES else set(cpus[:SWEEP_WORKERS])


def cc_job(name: str, seed: int):
    from repro.backends.base import Workload
    from repro.core.runner import Job

    return Job(Workload("cc", CC_P, seed, CC_PARAMS), ENGINES[name])


def setup_workload(name: str, seed: int, graphs: int = CC_GRAPHS) -> list[tuple]:
    """Everything before the first kernel or model call.  Returns one
    ``(jobs, graph)`` per distinct pass: for CC, ``graphs`` one-job passes
    on the graphs of seeds ``seed * CC_GRAPHS + i``, inputs built;
    for the sweep, the ``fig1`` named sweep with its grid seeded from
    ``seed`` and no graph (its inputs are built inside the pass)."""
    import dataclasses

    from repro.backends import create, inputs
    from repro.workloads.specs import FIG1_SPEC
    from repro.workloads.sweeps import fig1_jobs

    if name in ENGINES:
        create(ENGINES[name])
        passes = []
        for i in range(graphs):
            job = cc_job(name, seed * CC_GRAPHS + i)
            graph, _ = inputs.input_for(job.workload)
            passes.append(([job], graph))
        return passes
    jobs = fig1_jobs(dataclasses.replace(FIG1_SPEC, seed=seed))
    for backend in sorted({job.backend for job in jobs}):
        create(backend)
    return [(jobs, None)]


# -- checks ---------------------------------------------------------------------


class Checks:
    """Counts attempted and failed jobs; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok

    def raised(self, jobs: int, what: str) -> None:
        self.attempted += jobs
        self.failed += jobs
        print(f"perfbench: {what} raised:", file=sys.stderr)
        traceback.print_exc()


class LabelCapture:
    """Keeps the labels each CC simulation returns, by wrapping the
    program entry points from outside (records carry no labels)."""

    def __init__(self):
        self.labels = []

    def install(self) -> list[tuple]:
        from repro.graphs import programs

        patches = []
        for fname in ("simulate_smp_cc", "simulate_mta_cc"):
            original = getattr(programs, fname)

            def wrapper(*args, _original=original, **kwargs):
                sim = _original(*args, **kwargs)
                self.labels.append(sim.labels)
                return sim

            patches.append((programs, fname, original))
            setattr(programs, fname, wrapper)
        return patches


# -- passes ---------------------------------------------------------------------


class Bench:
    """One benchmark workload: its passes, how a pass runs, and its checks.

    Passes take the workload's distinct inputs in turn; ``jobs`` and
    ``ref_labels`` are those of the latest pass.  ``graphs`` is how many
    graphs a CC workload cycles through."""

    def __init__(self, name: str, seed: int, checks: Checks, graphs: int = CC_GRAPHS):
        from repro.graphs.sequential_cc import cc_union_find

        self.name = name
        self.checks = checks
        self.inputs = [(jobs, cc_union_find(graph).labels if graph is not None else None)
                       for jobs, graph in setup_workload(name, seed, graphs)]
        self.passes = 0
        self.jobs, self.ref_labels = self.inputs[0]
        self.workers = SWEEP_WORKERS if name not in ENGINES else 1
        self.cache_dir = WORK / f"cache-{name}"
        self.capture = LabelCapture()
        self.first_records: dict[int, list[str]] = {}  # input index -> canonical JSON

    def cold_pass(self):
        """One cold pass; returns ``(wall_s, records)`` or ``None`` if it raised.

        CC: one job through ``run_jobs(workers=1)`` with the cache off.
        Sweep: the grid into an emptied cache directory, input memo cleared.
        """
        from repro.backends import clear_memo
        from repro.core.cache import SweepCache
        from repro.core.runner import run_jobs

        index = self.passes % len(self.inputs)
        self.passes += 1
        self.jobs, self.ref_labels = self.inputs[index]
        if self.name in ENGINES:
            cache = False
            self.capture.labels.clear()
        else:
            clear_memo()
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            cache = SweepCache(self.cache_dir)
        patches = self.capture.install() if self.ref_labels is not None else []
        t0 = perf_counter()
        try:
            results = run_jobs(self.jobs, workers=self.workers, cache=cache)
        except Exception:
            self.checks.raised(len(self.jobs), f"{self.name} cold pass")
            return None
        finally:
            tracing.restore(patches)
        wall = perf_counter() - t0
        records = [r.record for r in results]
        self._check_cold(index, records)
        return wall, records

    def _check_cold(self, index: int, records: list[dict]) -> None:
        import numpy as np
        from repro.backends.base import canonical_json

        checks = self.checks
        checks.attempted += len(self.jobs)
        for job, record in zip(self.jobs, records, strict=True):
            cycles = record["summary"]["cycles"]
            checks.expect(math.isfinite(cycles) and cycles > 0,
                          f"{self.name} {job.backend} {dict(job.tags)}: cycles = {cycles!r}")
        if self.ref_labels is not None:
            got = self.capture.labels
            checks.expect(
                len(got) == 1 and np.array_equal(got[0], self.ref_labels),
                f"{self.name}: CC labels differ from union-find",
            )
        texts = [canonical_json(r) for r in records]
        first = self.first_records.setdefault(index, texts)
        checks.expect(texts == first, f"{self.name}: cold records of input {index} changed")

    def warm_batch(self, records: list[dict], min_seconds: float,
                   slice_s: float = WARM_SLICE_S) -> list[tuple]:
        """Replay the grid from the cache until ``min_seconds`` of replay time
        has passed (at least one slice).  Returns one ``(records served,
        replay seconds, start, end)`` per slice of whole replays holding at
        least ``slice_s`` of replay time; the checks are not timed.
        CC first puts its one record into an emptied cache."""
        from repro.backends.base import canonical_json
        from repro.core.cache import SweepCache
        from repro.core.runner import run_jobs

        if self.name in ENGINES:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            SweepCache(self.cache_dir).put(self.jobs[0].key(), records[0])
        cold = [canonical_json(r) for r in records]
        slices, spent = [], 0.0
        while not slices or spent < min_seconds:
            served, busy, start = 0, 0.0, perf_counter()
            while served == 0 or busy < slice_s:
                t0 = perf_counter()
                try:
                    warm = run_jobs(self.jobs, workers=self.workers,
                                    cache=SweepCache(self.cache_dir))
                except Exception:
                    self.checks.raised(len(self.jobs), f"{self.name} warm replay")
                    return slices
                busy += perf_counter() - t0
                served += len(warm)
                self.checks.attempted += len(self.jobs)
                self.checks.expect(
                    all(r.cached for r in warm)
                    and [canonical_json(r.record) for r in warm] == cold,
                    f"{self.name}: warm replay differs from its cold records",
                )
            spent += busy
            slices.append((served, busy, start, perf_counter()))
        return slices


def setup_sample(name: str, seed: int) -> dict:
    """Set-up timings from a fresh interpreter (see ``setup_probe.py``)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=False, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def keep_going(start: float, walls: list[float], seconds: float, minimum: int) -> bool:
    """Start another pass while it is expected to end inside the window."""
    if len(walls) < minimum:
        return True
    return perf_counter() - start + walls[-1] <= seconds


def issued(records: list[dict]) -> float:
    return sum(r["summary"]["issued"] for r in records)


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed(probe: hostspeed.SpeedProbe, fn, *args):
    """Call ``fn``; returns its result and the host-speed scale over the call."""
    start = perf_counter()
    result = fn(*args)
    return result, probe.scale(start, perf_counter())


def measure_end_to_end(wl: Bench, seed: int, seconds: float,
                       probe: hostspeed.SpeedProbe) -> tuple[dict, dict]:
    """Repeat cycles of one cold pass, one warm-replay batch and one set-up
    probe until the window is spent, so every metric samples the whole
    window.  Each time is scaled to the reference host speed measured
    during it; each metric is the median over cycles (warm: over slices)."""
    walls, raw_walls, op_rates, warm_rates, setups, cycles = [], [], [], [], [], []
    start = perf_counter()
    while keep_going(start, cycles, seconds, MIN_PASSES):
        t_cycle = perf_counter()
        done, scale = timed(probe, wl.cold_pass)
        if done is None:
            if perf_counter() - start > seconds:
                break
            continue
        raw, records = done
        raw_walls.append(raw)
        walls.append(raw * scale)
        op_rates.append(issued(records) / walls[-1])
        warm_rates.extend(served / (busy * probe.scale(t0, t1))
                          for served, busy, t0, t1 in wl.warm_batch(records, WARM_BATCH_S))
        setup, scale = timed(probe, setup_sample, wl.name, seed)
        setups.append(setup["setup_s"] * scale)
        cycles.append(perf_counter() - t_cycle)
    if not walls or not warm_rates:
        return {}, {}
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "sim_ops_per_s": (statistics.median(op_rates), "1/s"),
        "jobs_per_s": (len(wl.jobs) / statistics.median(walls), "1/s"),
        "warm_records_per_s": (statistics.median(warm_rates), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {"wall_s": walls, "raw_wall_s": raw_walls, "setup_s": setups,
               "warm_slices": len(warm_rates)}
    return metrics, samples


# -- traced run -----------------------------------------------------------------


def layer_metrics(records: list[dict], wl: Bench, cold: list[dict], wall: float) -> dict:
    """Per-layer metrics of one traced pass, from its span records."""
    total, self_t, calls, counters = {}, {}, {}, {}
    wrapped_calls = 0
    for rec in records:
        if "counter" in rec:
            counters[rec["counter"]] = counters.get(rec["counter"], 0) + rec["value"]
            continue
        name = rec["name"]
        if "calls" in rec:  # a per-op aggregate row
            dur = rec["total_ns"]
            wrapped_calls += rec["calls"]
        else:
            dur = rec["end_ns"] - rec["start_ns"]
        total[name] = total.get(name, 0) + dur / 1e9
        self_t[name] = self_t.get(name, 0) + rec["self_ns"] / 1e9
        calls[name] = calls.get(name, 0) + rec.get("calls", 1)

    def family(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    attempts = calls.get("sim.fastpath.try_ld_window", 0)
    windows = counters.get("sim.fastpath.windows", 0)
    job_s = total.get("core.runner.job", 0.0)
    l1, l2 = hit_rates(cold, counters)
    return {
        "backends.inputs.build_s": (total.get("backends.inputs.input_for", 0.0), "s"),
        "backends.execute_s": (family(total, "backends.execute"), "s"),
        "backends.execute_self_s": (family(self_t, "backends.execute"), "s"),
        "programs.self_s": (self_t.get("programs.simulate_cc", 0.0), "s"),
        "sim.kernel.run_s": (total.get("sim.kernel.run", 0.0), "s"),
        "sim.kernel.runs": (calls.get("sim.kernel.run", 0), "count"),
        "sim.kernel.self_s": (self_t.get("sim.kernel.run", 0.0), "s"),
        "sim.isa.ops_built": (family(calls, "sim.isa"), "count"),
        "sim.isa.build_s": (family(total, "sim.isa"), "s"),
        "arch.cache.accesses": (calls.get("arch.cache.access", 0), "count"),
        "arch.cache.access_s": (total.get("arch.cache.access", 0.0), "s"),
        "arch.cache.hierarchies": (calls.get("arch.cache.hierarchy_init", 0), "count"),
        "arch.cache.hierarchy_init_s": (total.get("arch.cache.hierarchy_init", 0.0), "s"),
        "arch.cache.streams": (calls.get("arch.cache.simulate_stream", 0), "count"),
        "arch.cache.stream_s": (total.get("arch.cache.simulate_stream", 0.0), "s"),
        "arch.cache.l1_hit_rate": (l1, "ratio"),
        "arch.cache.l2_hit_rate": (l2, "ratio"),
        "arch.memory.addr_calls": (calls.get("arch.memory.addr", 0), "count"),
        "arch.memory.addr_s": (total.get("arch.memory.addr", 0.0), "s"),
        "sim.fastpath.attempts": (attempts, "count"),
        "sim.fastpath.attempt_s": (total.get("sim.fastpath.try_ld_window", 0.0), "s"),
        "sim.fastpath.windows": (windows, "count"),
        "sim.fastpath.window_ops": (counters.get("sim.fastpath.window_ops", 0), "count"),
        "sim.fastpath.useful_ratio": (windows / attempts if attempts else 0.0, "ratio"),
        "backends.kernels.instrument_s": (total.get("backends.kernels.instrument", 0.0), "s"),
        "core.models.machine_run_s": (total.get("core.models.machine_run", 0.0), "s"),
        "core.models.smp_execute_s": (total.get("backends.execute.smp-model", 0.0), "s"),
        "core.models.mta_execute_s": (total.get("backends.execute.mta-model", 0.0), "s"),
        "obs.summary.to_dict_s": (total.get("obs.summary.to_dict", 0.0), "s"),
        "backends.canonical_json_s": (total.get("backends.canonical_json", 0.0), "s"),
        "core.cache.get_s": (total.get("core.cache.get", 0.0), "s"),
        "core.cache.put_s": (total.get("core.cache.put", 0.0), "s"),
        "core.cache.hits": (counters.get("core.cache.hits", 0), "count"),
        "core.cache.misses": (counters.get("core.cache.misses", 0), "count"),
        "core.cache.bytes_written": (counters.get("core.cache.bytes_written", 0), "bytes"),
        "core.runner.job_s": (job_s, "s"),
        "core.runner.pool_efficiency": (job_s / (wl.workers * wall), "ratio"),
        "sim.cycles": (sum(r["summary"]["cycles"] for r in cold), "cycles"),
        "sim.issued": (issued(cold), "count"),
        "trace.wrapped_calls": (wrapped_calls, "count"),
    }


def hit_rates(cold: list[dict], counters: dict) -> tuple[float, float]:
    """Simulated L1/L2 hit rates: the SMP engine's per-processor rates
    averaged, else the totals of the model's batch cache streams."""
    details = [r["summary"]["detail"] for r in cold]
    if all(isinstance(d.get("l1_hit_rate"), list) for d in details):
        return (statistics.fmean(x for d in details for x in d["l1_hit_rate"]),
                statistics.fmean(x for d in details for x in d["l2_hit_rate"]))
    l1_acc = counters.get("arch.cache.l1_accesses", 0)
    l2_acc = counters.get("arch.cache.l2_accesses", 0)
    return (counters.get("arch.cache.l1_hits", 0) / l1_acc if l1_acc else 0.0,
            counters.get("arch.cache.l2_hits", 0) / l2_acc if l2_acc else 0.0)


def scaled(metrics: dict, scale: float) -> dict:
    """``metrics`` with every time (unit ``s`` or ``ns``) multiplied by ``scale``."""
    return {name: (value * scale if unit in ("s", "ns") else value, unit)
            for name, (value, unit) in metrics.items()}


def measure_layers(wl: Bench, seed: int, seconds: float, trace_path: Path,
                   probe: hostspeed.SpeedProbe) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer metrics are medians
    over the traced passes, their times scaled to the reference host speed
    like the end-to-end ones.  A CC workload is set up with its first graph
    only, so every pass runs the same input and the counts are exact.
    Every span record is written to ``trace_path``."""
    from repro.backends import clear_memo, inputs

    import_s = []
    for _ in range(3):
        setup, scale = timed(probe, setup_sample, wl.name, seed)
        import_s.append(setup["import_s"] * scale)
    per_call_ns, scale = timed(probe, tracing.per_call_overhead_ns)
    per_call_ns *= scale
    untraced, traced, pairs, per_pass = [], [], [], []
    spill = WORK / "spill"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as out:
        out.write(json.dumps({"host": host_info(), "workload": wl.name, "seed": seed}) + "\n")
        start = perf_counter()
        while keep_going(start, pairs, seconds, 1):
            t_pair = perf_counter()
            done, scale = timed(probe, wl.cold_pass)
            if done is None:
                break
            untraced.append(done[0] * scale)
            tracer = tracing.Tracer(spill)
            tracer.clear_spills()
            patches = tracing.install(tracer)
            t_traced = perf_counter()
            try:
                if wl.name in ENGINES:  # set-up's input build, timed with the memo cleared
                    clear_memo()
                    inputs.input_for(wl.jobs[0].workload)
                done = wl.cold_pass()
                if done is not None:
                    wl.warm_batch(done[1], 0.0, slice_s=0.0)  # one replay
            finally:
                tracing.uninstall(patches)
            scale = probe.scale(t_traced, perf_counter())
            records = tracer.records()
            tracer.clear_spills()
            if done is None:
                break
            traced.append(done[0] * scale)
            pairs.append(perf_counter() - t_pair)
            per_pass.append(scaled(layer_metrics(records, wl, done[1], done[0]), scale))
            for rec in records:
                out.write(json.dumps(dict(rec, traced_pass=len(traced)), sort_keys=True) + "\n")
    if not traced:
        return {}, {}
    metrics = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    wrapped = metrics["trace.wrapped_calls"][0]
    metrics.update({
        "repro.import_s": (statistics.median(import_s), "s"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(untraced) - 1, "ratio"),
        "trace.per_call_overhead_ns": (per_call_ns, "ns"),
        "trace.per_op_overhead_s": (wrapped * per_call_ns / 1e9, "s"),
    })
    samples = {"untraced_wall_s": untraced, "traced_wall_s": traced}
    return metrics, samples


# -- main -----------------------------------------------------------------------


def host_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_repro()
    cpus = workload_cpus(args.workload)
    os.sched_setaffinity(0, cpus)  # inherited by pool workers and set-up probes
    checks = Checks()
    wl = Bench(args.workload, args.seed, checks, graphs=1 if args.trace else CC_GRAPHS)
    try:
        with hostspeed.SpeedProbe(cpus) as probe:
            if args.trace:
                trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
                metrics, samples = measure_layers(wl, args.seed, args.seconds, trace_path, probe)
                print(f"perfbench: spans written to {trace_path}", file=sys.stderr)
            else:
                metrics, samples = measure_end_to_end(wl, args.seed, args.seconds, probe)
            samples["speed_scale"] = probe.scale(float("-inf"), float("inf"))
    finally:
        shutil.rmtree(wl.cache_dir, ignore_errors=True)
    rate = checks.failed / checks.attempted if checks.attempted else 1.0
    if args.trace:
        metrics["error_rate"] = (rate, "ratio")
    else:
        metrics["success_rate"] = (1.0 - rate, "ratio")
    correct = checks.failed == 0 and len(metrics) > 1
    print(json.dumps({"host": host_info(), "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "samples": samples}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
