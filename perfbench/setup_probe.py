"""Time one workload's set-up in a fresh interpreter; prints one JSON line.

Set-up is everything before the first kernel or model call: importing
``repro``, creating the backends and building the input (the engine
workloads) or expanding the job grid (the sweep, whose inputs are built
inside the cold pass).  ``run.py`` starts this script several times and
reports the median, because the import can only be timed in a process
that has not imported ``repro`` yet.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import run  # the benchmark module; it imports no repro code at import time


def main(argv: list[str]) -> None:
    t0 = perf_counter()
    run.import_repro()
    t_import = perf_counter()
    name, seed = argv[0], int(argv[1])
    run.setup_workload(name, seed)
    t_end = perf_counter()
    print(json.dumps({"import_s": t_import - t0, "setup_s": t_end - t0}))


if __name__ == "__main__":
    main(sys.argv[1:])
