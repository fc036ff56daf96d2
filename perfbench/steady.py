#!/usr/bin/env python3
"""Steadiness mode: repeat workloads over seeds and report each metric's spread.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--seconds S] [--trace 0|1]

Runs ``run.py`` once per (workload, seed), seeds ``0..N-1`` unless
``--first-seed`` moves them, and prints, for every metric, the median,
the first and third quartiles (``statistics.quantiles(n=4)``) and the
spread ``(q3 - q1) / median``.  End-to-end metrics are compared with
their ``bound`` in ``BENCHMARK.json``; a spread above a third of the
bound is flagged, because two sets of runs must agree within the bound.
The table is also written as JSON under ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"steady: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_table(results: list[dict], bounds: dict) -> list[dict]:
    rows = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        rows.append({
            "metric": name, "unit": results[0]["metrics"][name]["unit"], "median": med,
            "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values,
            "steady": bound is None or name == "setup_s" or spread <= bound / 3,
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, all_steady = {}, True
    for workload in args.workloads.split(","):
        results = [
            run_once(workload, seed, args.seconds, args.trace)
            for seed in range(args.first_seed, args.first_seed + args.seeds)
        ]
        rows = spread_table(results, bounds)
        report[workload] = rows
        print(f"{workload}  ({len(results)} runs, {args.seconds:g} s each)")
        for r in rows:
            flag = "" if r["steady"] else "  <-- spread above bound/3"
            bound = f"{r['bound']:.3f}" if r["bound"] is not None else "  -  "
            print(f"  {r['metric']:32s} median {r['median']:<14.6g} q1 {r['q1']:<12.6g}"
                  f" q3 {r['q3']:<12.6g} spread {r['spread']:6.3f}  bound {bound}{flag}")
            all_steady &= r["steady"]
        sys.stdout.flush()
    out = ROOT / ".perfbench-work" / f"steady-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
