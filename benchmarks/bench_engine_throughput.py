#!/usr/bin/env python
"""Interpreter throughput of the cycle engines (host ops/second).

The simulation kernel dispatches every yielded op tuple through a
precomputed per-opcode table; this benchmark measures how many
simulated instructions per *host* second each engine interprets, so a
dispatch-table or hook-bus regression shows up as a throughput drop
rather than a vague "sweeps feel slower".

Three workloads per engine, chosen to stress different dispatch paths:

``compute``
    Pure ``C`` bursts — scheduler + dispatch overhead floor.
``memory``
    Interleaved loads/stores across a strided working set — the hot
    path of every real program (cache model on SMP, latency/lookahead
    bookkeeping on the MTA).
``mixed``
    The op mix of a self-scheduled list walk: ``FA`` work grab,
    dependent loads, stores, compute — closest to Alg. 1's profile.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py [--ops N] [--json PATH]

Writes ``benchmarks/results/BENCH_engine.json`` (or ``--json PATH``)
with per-(engine, workload) ops/sec plus a ``min_ops_per_sec`` summary
the CI job checks against an absolute floor.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.sim import MTAEngine, SMPEngine, isa  # noqa: E402

RESULTS = pathlib.Path(__file__).resolve().parent / "results"

#: Simulated instructions per (engine, workload) measurement.
DEFAULT_OPS = 200_000


def _compute_prog(n_ops: int):
    for _ in range(n_ops):
        yield isa.compute(1)


def _memory_prog(n_ops: int, base: int):
    a, b = divmod(n_ops, 2)
    for i in range(a):
        yield isa.load(base + (i * 24) % 65_536)
        if i < b or True:
            yield isa.store(base + (i * 40 + 8) % 65_536)


def _mixed_prog(n_ops: int, ctr: int, base: int):
    i = 0
    while i + 5 <= n_ops:
        j = yield isa.fetch_add(ctr, 1)
        yield isa.load_dep(base + (j * 8) % 65_536)
        yield isa.compute(2)  # two instructions
        yield isa.store(base + (j * 8) % 65_536)
        i += 5


def _run_mta(workload: str, n_ops: int) -> dict:
    streams = 64
    eng = MTAEngine(p=4, streams_per_proc=streams, mem_latency=20, lookahead=2)  # allow_direct_engine: this bench measures kernel dispatch itself
    per = max(1, n_ops // (4 * streams))
    if workload == "mixed":
        eng.set_counter(7, 0)
    for k in range(4 * streams):
        if workload == "compute":
            eng.spawn(_compute_prog(per))
        elif workload == "memory":
            eng.spawn(_memory_prog(per, base=k * 100_000))
        else:
            eng.spawn(_mixed_prog(per, ctr=7, base=k * 100_000))
    t0 = time.perf_counter()
    report = eng.run(workload)
    dt = time.perf_counter() - t0
    return {"issued": report.total_issued, "seconds": dt,
            "ops_per_sec": report.total_issued / dt}


def _run_smp(workload: str, n_ops: int) -> dict:
    p = 4
    eng = SMPEngine(p=p)  # allow_direct_engine: this bench measures kernel dispatch itself
    per = max(1, n_ops // p)
    if workload == "mixed":
        eng.set_counter(7, 0)
    for k in range(p):
        if workload == "compute":
            eng.attach(_compute_prog(per))
        elif workload == "memory":
            eng.attach(_memory_prog(per, base=k * 1_000_000))
        else:
            eng.attach(_mixed_prog(per, ctr=7, base=k * 1_000_000))
    t0 = time.perf_counter()
    report = eng.run(workload)
    dt = time.perf_counter() - t0
    return {"issued": report.total_issued, "seconds": dt,
            "ops_per_sec": report.total_issued / dt}


def run_bench(n_ops: int = DEFAULT_OPS, repeats: int = 3) -> dict:
    """Best-of-``repeats`` throughput for every (engine, workload) pair."""
    out: dict = {"ops_per_measurement": n_ops, "engines": {}}
    for engine, runner in (("mta-engine", _run_mta), ("smp-engine", _run_smp)):
        rows = {}
        for workload in ("compute", "memory", "mixed"):
            best = None
            for _ in range(repeats):
                r = runner(workload, n_ops)
                if best is None or r["ops_per_sec"] > best["ops_per_sec"]:
                    best = r
            rows[workload] = best
        out["engines"][engine] = rows
    out["min_ops_per_sec"] = min(
        row["ops_per_sec"] for rows in out["engines"].values() for row in rows.values()
    )
    return out


def test_engine_throughput_smoke(benchmark):
    """Both engines interpret all three workloads at nonzero rate.

    The real floor check runs in CI against ``--min-ops-per-sec``; this
    keeps the module in the bench harness and catches dispatch-path
    breakage (an engine that errors or issues nothing) cheaply.
    """
    result = benchmark.pedantic(
        lambda: run_bench(n_ops=20_000, repeats=1), rounds=1, iterations=1
    )
    assert set(result["engines"]) == {"mta-engine", "smp-engine"}
    for rows in result["engines"].values():
        assert set(rows) == {"compute", "memory", "mixed"}
        for r in rows.values():
            assert r["issued"] > 0
    assert result["min_ops_per_sec"] > 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ops", type=int, default=DEFAULT_OPS,
                    help="simulated instructions per measurement")
    ap.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    ap.add_argument("--json", type=pathlib.Path, default=RESULTS / "BENCH_engine.json")
    ap.add_argument("--min-ops-per-sec", type=float, default=None,
                    help="exit 1 if any measurement falls below this floor")
    args = ap.parse_args(argv)

    result = run_bench(args.ops, args.repeats)
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    for engine, rows in result["engines"].items():
        for workload, r in rows.items():
            print(f"{engine:>10} {workload:>8}: {r['ops_per_sec']:>12,.0f} ops/s"
                  f"  ({r['issued']:,} ops in {r['seconds']:.3f}s)")
    print(f"wrote {args.json}")
    if args.min_ops_per_sec is not None and result["min_ops_per_sec"] < args.min_ops_per_sec:
        print(f"FAIL: min throughput {result['min_ops_per_sec']:,.0f} ops/s "
              f"below floor {args.min_ops_per_sec:,.0f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
