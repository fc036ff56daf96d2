"""Command-line interface: ``python -m repro <command>``.

Small, scriptable entry points over the library for quick studies
without writing Python:

``info``
    Machine configurations and library version.
``rank``
    Rank one list on one machine; prints simulated time, speedup vs
    sequential, and the cost triplet.
``cc``
    Connected components on one graph; prints per-machine times.
``fig1`` / ``fig2`` / ``table1``
    Miniature versions of the paper's evaluation artifacts (the full
    archival runs live in ``benchmarks/``).
``trace``
    Run a workload on a cycle engine with tracing on; writes a Chrome
    ``trace_event`` JSON (load it at https://ui.perfetto.dev) or compact
    JSONL, and prints the per-phase summary and contention profile.
``backends``
    List the registered execution backends (three analytic machine
    models, two cycle-level engines, plus anything user-registered).
``run``
    Run one declarative workload on one backend through the sweep
    runner: ``repro run --workload rank --backend smp-model --n 65536
    --p 8``.
``xval``
    Cross-validate an analytic machine model against the matching
    cycle engine on one workload: both stacks run the identical input,
    their per-phase cycles pair under one prediction contract, and the
    divergence report (worst offenders, branch-cost attribution)
    prints as a table or deterministic JSONL.  See ``docs/MODELS.md``,
    "The prediction contract".
``analyze``
    Concurrency-correctness analysis: run a workload (or every
    registered paper program with ``--all``) on a cycle engine under
    the happens-before race detector and lint pass; print findings (or
    ``--jsonl``) and exit 1 when errors are found.  See
    ``docs/ANALYSIS.md``.
``lint``
    Static analysis of the repo's own sources against its invariants
    (determinism, state contracts, hook/engine discipline, generator
    shape); same output schema and flags as ``analyze`` (``--jsonl``,
    ``--strict``), exit 1 on errors.  Must pass before every PR.
``sweep``
    Execute a named figure/table sweep across every grid point, with a
    process pool (``--workers N``) and the on-disk result cache; cache
    statistics go to stderr so stdout stays byte-identical between cold
    and warm runs.
``serve``
    Run the async experiment service: a JSON-over-HTTP job API with
    request coalescing, bounded admission (``queue_full``
    backpressure), per-job timeouts, and ``GET /v1/metrics``.  Drains
    gracefully on SIGINT/SIGTERM.  See ``docs/SERVICE.md``.
``submit``
    Submit a workload (the same flags as ``run``) or named sweep to a
    running service and (by default) poll it to completion.
``cache``
    Inspect the on-disk result cache; ``--prune`` evicts
    least-recently-used records down to ``--max-entries`` /
    ``--max-bytes`` (or clears it, with no caps), and checkpoint
    artifacts down to ``--max-checkpoints`` / ``--max-checkpoint-bytes``.
``checkpoint``
    Inspect checkpoint artifacts: ``ls`` lists them (headers only, no
    payload decode), ``info <ref>`` dumps one header, ``rm <ref>``
    deletes one.  ``repro run --checkpoint-every N`` writes them;
    ``--resume`` restores an explicit artifact.  See
    ``docs/SIMULATION.md``, "Checkpoint & resume".

Each command is declared once in :func:`build_parser` with its handler
(``set_defaults(func=...)``); flag groups shared by several commands —
workload, cache, checkpoint, ``--jsonl`` — come from one helper each.

Every command accepts ``--help``.  Exit code 0 on success; workload or
configuration errors print a message and return 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .core import CRAY_MTA2, MTAMachine, SMPMachine, SUN_E4500
from .errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, which is the command table (exposed for doc
    generation and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Bader, Cong & Feo (ICPP 2005): "
        "graph algorithms on simulated SMP and MTA machines.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    command("info", _cmd_info, "show machine configurations")

    p_rank = command("rank", _cmd_rank, "rank one list on one machine")
    p_rank.add_argument("--n", type=int, default=1 << 18, help="list length")
    p_rank.add_argument("--p", type=int, default=8, help="processors")
    p_rank.add_argument(
        "--list", choices=("ordered", "random"), default="random", dest="list_class"
    )
    p_rank.add_argument("--machine", choices=("smp", "mta", "both"), default="both")
    p_rank.add_argument("--seed", type=int, default=0)

    p_cc = command("cc", _cmd_cc, "connected components on one graph")
    p_cc.add_argument("--n", type=int, default=1 << 16, help="vertices")
    p_cc.add_argument("--edge-factor", type=int, default=8, help="m = factor * n")
    p_cc.add_argument("--p", type=int, default=8, help="processors")
    p_cc.add_argument(
        "--graph", choices=("random", "rmat", "mesh"), default="random"
    )
    p_cc.add_argument("--seed", type=int, default=0)

    p_f1 = command("fig1", _cmd_fig1, "miniature Fig. 1 sweep")
    p_f1.add_argument("--max-n", type=int, default=1 << 18)

    p_f2 = command("fig2", _cmd_fig2, "miniature Fig. 2 sweep")
    p_f2.add_argument("--n", type=int, default=1 << 18)

    p_t1 = command("table1", _cmd_table1, "engine-measured MTA utilization")
    p_t1.add_argument("--nodes-per-proc", type=int, default=8000)

    p_tr = command("trace", _cmd_trace, "record a cycle-engine run as an event trace")
    p_tr.add_argument(
        "workload",
        choices=("rank-mta", "rank-smp", "cc-mta", "cc-smp"),
        help="which simulation to trace",
    )
    p_tr.add_argument("--n", type=int, default=2048, help="list nodes / graph vertices")
    p_tr.add_argument("--p", type=int, default=4, help="processors")
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument(
        "--streams", type=int, default=16, help="streams per processor (MTA workloads)"
    )
    p_tr.add_argument(
        "--level",
        choices=("phase", "op"),
        default="phase",
        help="phase spans only, or one span per machine operation",
    )
    p_tr.add_argument(
        "--format",
        choices=("chrome", "jsonl"),
        default="chrome",
        dest="fmt",
        help="chrome trace_event JSON (Perfetto-loadable) or compact JSONL",
    )
    p_tr.add_argument(
        "--out",
        default=None,
        help="output path (default: trace-<workload>.json / .jsonl)",
    )

    p_be = command("backends", _cmd_backends, "list registered execution backends")
    p_be.add_argument("--json", action="store_true", help="machine-readable output")

    p_run = command(
        "run", _cmd_run, "run one workload on one backend via the sweep runner"
    )
    _add_workload_args(p_run, required=True, p_default=8, backend_default=None)
    p_run.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="partition the run across K shard workers (shardable engine"
        " backends only; deterministic for a fixed K — see docs/SHARDING.md)",
    )
    p_run.add_argument("--json", action="store_true", help="print the full record as JSON")
    _add_cache_args(p_run)
    _add_checkpoint_args(p_run)
    p_run.add_argument(
        "--resume",
        default=None,
        metavar="REF",
        help="resume from an explicit checkpoint artifact (path or content"
        " id); a stale artifact is an error",
    )

    p_xv = command(
        "xval", _cmd_xval, "cross-validate an analytic model against a cycle engine"
    )
    p_xv.add_argument(
        "--workload",
        default="cc",
        help="workload kind (pairs with an analytic counterpart: cc)",
    )
    p_xv.add_argument(
        "--machine",
        default="smp",
        help="machine family both stacks model (smp or mta)",
    )
    p_xv.add_argument("--n", type=int, default=192, help="vertices")
    p_xv.add_argument("--m", type=int, default=None, help="edges (default 2n)")
    p_xv.add_argument("--p", type=int, default=4, help="processors")
    p_xv.add_argument("--seed", type=int, default=1)
    p_xv.add_argument(
        "--variant",
        default=None,
        choices=("branchy", "branch-avoiding"),
        help="SMP kernel variant (default: branchy on the SMP)",
    )
    p_xv.add_argument(
        "--penalty",
        type=float,
        default=None,
        help="SMP mispredict penalty in cycles, applied to both stacks"
        " (default 4)",
    )
    p_xv.add_argument("--max-iter", type=int, default=64)
    p_xv.add_argument(
        "--top",
        type=int,
        default=3,
        help="list the K worst phases by relative error (0 disables)",
    )
    _add_jsonl_arg(p_xv, "write the report as deterministic JSON Lines")
    p_xv.add_argument("--json", action="store_true", help="full report as JSON")
    _add_cache_args(p_xv)

    p_an = command(
        "analyze", _cmd_analyze, "concurrency analysis of a workload's op streams"
    )
    _add_workload_args(p_an, required=False, p_default=2, backend_default="mta-engine")
    p_an.add_argument(
        "--all",
        action="store_true",
        dest="all_programs",
        help="analyze every registered paper program instead of one workload",
    )
    p_an.add_argument(
        "--strict",
        action="store_true",
        help="report races inside allow_racy-annotated regions too",
    )
    _add_jsonl_arg(p_an, "write findings as JSON Lines")
    p_an.add_argument(
        "--max-findings", type=int, default=200, help="cap on reported findings"
    )

    p_li = command("lint", _cmd_lint, "static analysis of the repo's own sources")
    p_li.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: src/repro + benchmarks)",
    )
    p_li.add_argument(
        "--rule",
        action="append",
        default=[],
        metavar="ID",
        help="restrict to a rule id or family (determinism, state,"
        " discipline, shape); repeatable",
    )
    p_li.add_argument(
        "--strict",
        action="store_true",
        help="surface annotation-suppressed findings as warnings",
    )
    _add_jsonl_arg(p_li, "write findings as JSON Lines")
    p_li.add_argument(
        "--state-baseline",
        default=None,
        metavar="PATH",
        help="state-contract baseline to compare against"
        " (default tests/golden/state_contracts.json)",
    )
    p_li.add_argument(
        "--write-state-baseline",
        action="store_true",
        help="regenerate the state-contract baseline from the current tree"
        " and exit",
    )

    p_sw = command("sweep", _cmd_sweep, "run a named figure/table sweep")
    p_sw.add_argument(
        "--spec",
        required=True,
        help="sweep name: fig1, fig2, table1, or their -tiny variants",
    )
    p_sw.add_argument(
        "--workers", type=int, default=1, help="process-pool size (1 = serial)"
    )
    _add_jsonl_arg(p_sw, "also write one RunSummary record per job as JSON Lines")
    _add_cache_args(p_sw)
    _add_checkpoint_args(p_sw)

    p_sv = command(
        "serve", _cmd_serve, "run the async experiment service (JSON over HTTP)"
    )
    p_sv.add_argument("--host", default="127.0.0.1")
    p_sv.add_argument("--port", type=int, default=8787)
    p_sv.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="admission bound; submissions beyond it get a queue_full rejection",
    )
    p_sv.add_argument(
        "--dispatchers", type=int, default=2, help="concurrent executions"
    )
    p_sv.add_argument(
        "--job-workers",
        type=int,
        default=1,
        help="runner process-pool size per execution (1 = serial)",
    )
    p_sv.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-submission wall-clock budget (none = unlimited)",
    )
    p_sv.add_argument(
        "--cache-max-entries", type=int, default=None, help="LRU cap on cache records"
    )
    p_sv.add_argument(
        "--cache-max-bytes", type=int, default=None, help="LRU cap on cache bytes"
    )
    _add_cache_args(p_sv)
    _add_checkpoint_args(p_sv)

    p_sub = command(
        "submit", _cmd_submit, "submit a workload or sweep to a running service"
    )
    p_sub.add_argument("--host", default="127.0.0.1")
    p_sub.add_argument("--port", type=int, default=8787)
    p_sub.add_argument(
        "--spec", default=None, help="named sweep (fig1, fig1-tiny, ...)"
    )
    _add_workload_args(p_sub, required=False, p_default=8, backend_default=None)
    p_sub.add_argument("--priority", type=int, default=0)
    p_sub.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-submission wall-clock budget",
    )
    p_sub.add_argument("--label", default="", help="free-form label echoed in views")
    p_sub.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="ask the service to snapshot the execution every N steps/cycles",
    )
    p_sub.add_argument(
        "--resume-from",
        default=None,
        metavar="REF",
        help="ask the service to resume from a checkpoint artifact",
    )
    p_sub.add_argument(
        "--no-wait",
        action="store_true",
        help="return the job id immediately instead of polling to completion",
    )
    p_sub.add_argument(
        "--wait-timeout", type=float, default=600.0, help="polling budget (seconds)"
    )
    p_sub.add_argument("--json", action="store_true", help="print the full job view")

    p_ca = command("cache", _cmd_cache, "inspect or prune the on-disk result cache")
    p_ca.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p_ca.add_argument(
        "--prune",
        action="store_true",
        help="evict least-recently-used records down to the caps"
        " (with no caps given, clears the cache)",
    )
    p_ca.add_argument(
        "--max-entries", type=int, default=None, help="keep at most N records"
    )
    p_ca.add_argument(
        "--max-bytes", type=int, default=None, help="keep at most N bytes of records"
    )
    p_ca.add_argument(
        "--max-checkpoints",
        type=int,
        default=None,
        help="keep at most N checkpoint artifacts",
    )
    p_ca.add_argument(
        "--max-checkpoint-bytes",
        type=int,
        default=None,
        help="keep at most N bytes of checkpoint artifacts",
    )

    p_ck = command("checkpoint", _cmd_checkpoint, "inspect checkpoint artifacts")
    ck_sub = p_ck.add_subparsers(dest="ck_command", required=True)
    ck_ls = ck_sub.add_parser("ls", help="list artifacts (headers only)")
    ck_info = ck_sub.add_parser("info", help="dump one artifact's header")
    ck_info.add_argument("ref", help="artifact path or content-id prefix")
    ck_rm = ck_sub.add_parser("rm", help="delete one artifact")
    ck_rm.add_argument("ref", help="artifact path or content-id prefix")
    for p in (ck_ls, ck_info, ck_rm):
        p.add_argument(
            "--dir",
            default=None,
            help="checkpoint store root (default: $REPRO_CHECKPOINT_DIR or"
            " <cache root>/checkpoints)",
        )

    return parser


def _add_workload_args(
    p: argparse.ArgumentParser, *, required: bool, p_default: int, backend_default: str | None
) -> None:
    """The workload flags of ``run``, ``analyze`` and ``submit``; read
    back by :func:`_workload_from_args`."""
    p.add_argument(
        "--workload",
        required=required,
        help="workload kind (rank, cc, bfs, msf, tree, chase)",
    )
    p.add_argument(
        "--backend",
        required=required,
        default=backend_default,
        help="backend name (see `repro backends`)",
    )
    p.add_argument("--n", type=int, default=None, help="problem size")
    p.add_argument("--p", type=int, default=p_default, help="processors")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="extra input parameter (repeatable), e.g. --param list=ordered",
    )
    p.add_argument(
        "--opt",
        action="append",
        default=[],
        metavar="K=V",
        help="kernel/backend option (repeatable), e.g. --opt algorithm=wyllie",
    )


def _add_jsonl_arg(p: argparse.ArgumentParser, what: str) -> None:
    """``--jsonl PATH``, written by :func:`_write_jsonl`."""
    p.add_argument(
        "--jsonl", default=None, metavar="PATH", help=f"{what} ('-' = stdout)"
    )


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-cache", action="store_true", help="disable the result cache")
    p.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )


def _add_checkpoint_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="snapshot engine runs every N steps/cycles (enables"
        " auto-resume from each job's newest artifact)",
    )
    p.add_argument(
        "--checkpoint-dir",
        default=None,
        help="checkpoint store root (default: $REPRO_CHECKPOINT_DIR or"
        " <cache root>/checkpoints)",
    )


def _at_least(flag: str, value, floor: int = 1):
    """Reject a count flag below ``floor`` with a structured CLI error."""
    if value is not None and value < floor:
        from .errors import ConfigurationError

        raise ConfigurationError(f"{flag} must be >= {floor}, got {value}")
    return value


def _workload_from_args(args):
    """The :class:`~repro.core.workload.Workload` the workload flags
    describe (``--n`` fills ``leaves`` for ``tree``, ``n`` otherwise)."""
    from .core.workload import Workload

    params = _parse_kv(args.param, "--param")
    if args.n is not None:
        params.setdefault("leaves" if args.workload == "tree" else "n", args.n)
    options = _parse_kv(args.opt, "--opt")
    if _at_least("--shards", getattr(args, "shards", None)) is not None:
        options.setdefault("shards", args.shards)
    return Workload(args.workload, args.p, args.seed, params, options)


def _checkpoint_spec(args) -> dict | None:
    """The ``checkpoint`` spec (for run_jobs or a submission) from CLI
    flags, or None; ``run --resume`` and ``submit --resume-from`` both
    set ``resume``."""
    spec = {
        "every": _at_least("--checkpoint-every", getattr(args, "checkpoint_every", None)),
        "dir": getattr(args, "checkpoint_dir", None),
        "resume": getattr(args, "resume", getattr(args, "resume_from", None)),
    }
    return {k: v for k, v in spec.items() if v is not None} or None


def _cache_from_flags(args):
    """The result cache ``--no-cache``/``--cache-dir`` select (False = off)."""
    from .core.cache import SweepCache

    if getattr(args, "no_cache", False):
        return False
    return SweepCache(args.cache_dir or None)


def _write_jsonl(dest: str, text: str) -> None:
    """Write a ``--jsonl`` sink: ``-`` is stdout, anything else a file."""
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as f:
            f.write(text)


def _cmd_info(args) -> int:
    print(f"repro {__version__}")
    for cfg in (SUN_E4500, CRAY_MTA2):
        print(f"\n{cfg.name}:")
        for field_name, value in cfg.__dict__.items():
            print(f"  {field_name:<28} {value}")
    return 0


def _cmd_rank(args) -> int:
    from .lists import (
        ordered_list,
        random_list,
        rank_helman_jaja,
        rank_mta,
        rank_sequential,
        true_ranks,
    )

    nxt = (
        ordered_list(args.n)
        if args.list_class == "ordered"
        else random_list(args.n, args.seed)
    )
    truth = true_ranks(nxt)
    t_seq = SMPMachine(p=1).run(rank_sequential(nxt).steps).seconds
    print(f"{args.list_class} list, n={args.n}, p={args.p}")
    print(f"  sequential (1 CPU)    : {t_seq * 1e3:10.3f} ms")
    if args.machine in ("smp", "both"):
        run = rank_helman_jaja(nxt, p=args.p, rng=args.seed)
        assert np.array_equal(run.ranks, truth)
        t = SMPMachine(p=args.p).run(run.steps).seconds
        print(
            f"  SMP Helman-JaJa       : {t * 1e3:10.3f} ms"
            f"   speedup {t_seq / t:5.2f}x   {run.triplet}"
        )
    if args.machine in ("mta", "both"):
        run = rank_mta(nxt, p=args.p)
        assert np.array_equal(run.ranks, truth)
        res = MTAMachine(p=args.p).run(run.steps)
        print(
            f"  MTA Alg.1 walks       : {res.seconds * 1e3:10.3f} ms"
            f"   speedup {t_seq / res.seconds:5.2f}x   util {res.utilization:.0%}"
        )
    return 0


def _cmd_cc(args) -> int:
    from .graphs import cc_union_find, mesh2d, random_graph, rmat_graph, sv_mta, sv_smp

    n = args.n
    if args.graph == "random":
        g = random_graph(n, args.edge_factor * n, rng=args.seed)
    elif args.graph == "rmat":
        g = rmat_graph(max(1, n.bit_length() - 1), args.edge_factor, rng=args.seed)
    else:
        side = max(1, int(n**0.5))
        g = mesh2d(side, side)
    uf = cc_union_find(g)
    print(f"{args.graph} graph, n={g.n}, m={g.m}, p={args.p}: {uf.n_components} component(s)")
    t_seq = SMPMachine(p=1).run(uf.steps).seconds
    print(f"  sequential union-find : {t_seq * 1e3:10.3f} ms")
    smp_run = sv_smp(g, p=args.p)
    assert np.array_equal(smp_run.labels, uf.labels)
    t = SMPMachine(p=args.p).run(smp_run.steps).seconds
    print(
        f"  SMP Shiloach-Vishkin  : {t * 1e3:10.3f} ms"
        f"   speedup {t_seq / t:5.2f}x   ({smp_run.iterations} iterations)"
    )
    mta_run = sv_mta(g, p=args.p, max_iter=600)
    assert np.array_equal(mta_run.labels, uf.labels)
    t = MTAMachine(p=args.p).run(mta_run.steps).seconds
    print(
        f"  MTA Shiloach-Vishkin  : {t * 1e3:10.3f} ms"
        f"   speedup {t_seq / t:5.2f}x   ({mta_run.iterations} iterations)"
    )
    from .core import ClusterMachine

    t = ClusterMachine(p=args.p).run(smp_run.steps).seconds
    print(
        f"  cluster (naive DSM)   : {t * 1e3:10.3f} ms"
        f"   speedup {t_seq / t:5.2f}x   (the paper's intro claim)"
    )
    return 0


def _cmd_fig1(args) -> int:
    from .core import ascii_plot
    from .lists import ordered_list, random_list, rank_helman_jaja, rank_mta

    sizes = [args.max_n >> 2, args.max_n >> 1, args.max_n]
    series: dict[str, tuple[list, list]] = {}
    for label in ("ord", "rand"):
        for machine in ("smp", "mta"):
            series[f"{machine}-{label}"] = ([], [])
    for n in sizes:
        for label, nxt in (("ord", ordered_list(n)), ("rand", random_list(n, 0))):
            smp = SMPMachine(p=8).run(rank_helman_jaja(nxt, p=8, rng=0).steps).seconds
            mta = MTAMachine(p=8).run(rank_mta(nxt, p=8).steps).seconds
            series[f"smp-{label}"][0].append(n)
            series[f"smp-{label}"][1].append(smp)
            series[f"mta-{label}"][0].append(n)
            series[f"mta-{label}"][1].append(mta)
    print(
        ascii_plot(
            series,
            logx=True,
            logy=True,
            title="Fig. 1 (p=8): list ranking, simulated seconds",
            xlabel="n",
            ylabel="seconds",
        )
    )
    return 0


def _cmd_fig2(args) -> int:
    from .graphs import random_graph, sv_mta, sv_smp

    n = args.n
    print(f"Fig. 2 miniature: n={n}, p=8 (simulated seconds)")
    print(f"{'m':>10} {'SMP':>10} {'MTA':>10} {'ratio':>7}")
    for k in (4, 12, 20):
        g = random_graph(n, k * n, rng=1)
        smp_run = sv_smp(g, p=1)
        mta_run = sv_mta(g, p=1)
        t_smp = SMPMachine(p=8).run([s.redistributed(8) for s in smp_run.steps]).seconds
        t_mta = MTAMachine(p=8).run([s.redistributed(8) for s in mta_run.steps]).seconds
        print(f"{k * n:>10} {t_smp:>10.4f} {t_mta:>10.4f} {t_smp / t_mta:>6.1f}x")
    return 0


def _cmd_table1(args) -> int:
    from .lists import random_list, true_ranks
    from .lists.programs import simulate_mta_list_ranking

    print("engine-measured MTA utilization (list ranking, 100 streams/proc)")
    print(f"{'p':>2} {'n':>8} {'util':>7}")
    for p in (1, 4, 8):
        n = args.nodes_per_proc * p
        nxt = random_list(n, 0)
        sim = simulate_mta_list_ranking(nxt, p=p, streams_per_proc=100, nodes_per_walk=10)
        assert np.array_equal(sim.ranks, true_ranks(nxt))
        print(f"{p:>2} {n:>8} {sim.report.utilization:>6.1%}")
    return 0


def _cmd_trace(args) -> int:
    from .obs import ContentionProfile, Tracer, write_chrome_trace, write_jsonl

    tracer = Tracer(level=args.level)
    if args.workload == "rank-mta":
        from .lists import random_list, true_ranks
        from .lists.programs import simulate_mta_list_ranking

        sim = simulate_mta_list_ranking(
            random_list(args.n, args.seed),
            p=args.p,
            streams_per_proc=args.streams,
            tracer=tracer,
        )
        assert np.array_equal(sim.ranks, true_ranks(random_list(args.n, args.seed)))
    elif args.workload == "rank-smp":
        from .lists import random_list, true_ranks
        from .lists.programs import simulate_smp_list_ranking

        sim = simulate_smp_list_ranking(
            random_list(args.n, args.seed), p=args.p, rng=args.seed, tracer=tracer
        )
        assert np.array_equal(sim.ranks, true_ranks(random_list(args.n, args.seed)))
    elif args.workload == "cc-mta":
        from .graphs import random_graph
        from .graphs.programs import simulate_mta_cc

        g = random_graph(args.n, 4 * args.n, rng=args.seed)
        sim = simulate_mta_cc(g, p=args.p, streams_per_proc=args.streams, tracer=tracer)
    else:  # cc-smp
        from .graphs import random_graph
        from .graphs.programs import simulate_smp_cc

        g = random_graph(args.n, 4 * args.n, rng=args.seed)
        sim = simulate_smp_cc(g, p=args.p, tracer=tracer)

    summary = sim.summary
    summary.validate()  # phase cycles must partition the run exactly

    out = args.out
    if out is None:
        ext = "json" if args.fmt == "chrome" else "jsonl"
        out = f"trace-{args.workload}.{ext}"
    if args.fmt == "chrome":
        write_chrome_trace(tracer.events, out, metadata={"workload": args.workload})
    else:
        write_jsonl(tracer.events, out)

    print(summary.table())
    print()
    print(ContentionProfile.from_reports(sim.phase_reports).render())
    print()
    print(f"{len(tracer.events)} event(s) -> {out}")
    if args.fmt == "chrome":
        print("open in Perfetto: https://ui.perfetto.dev (Open trace file)")
    return 0


def _parse_kv(pairs: list[str], what: str) -> dict:
    """``k=v`` strings → a dict with ints/floats/bools coerced."""
    from .errors import ConfigurationError

    out = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"bad {what} {pair!r} (expected K=V)")
        value: object = raw
        lowered = raw.lower()
        if lowered in ("true", "false"):
            value = lowered == "true"
        else:
            for cast in (int, float):
                try:
                    value = cast(raw)
                    break
                except ValueError:
                    continue
        out[key] = value
    return out


def _cmd_serve(args) -> int:
    from .service import serve

    cache = _cache_from_flags(args)
    serve(
        args.host,
        args.port,
        log=lambda msg: print(msg, file=sys.stderr, flush=True),
        queue_limit=args.queue_limit,
        dispatchers=args.dispatchers,
        job_workers=args.job_workers,
        default_timeout_s=args.timeout,
        cache=str(cache.root) if cache else False,
        cache_max_entries=args.cache_max_entries,
        cache_max_bytes=args.cache_max_bytes,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
    )
    return 0


def _submit_body(args) -> dict:
    """The ``POST /v1/jobs`` body: the workload and checkpoint spec
    ``run`` would execute, left for the service's parser to validate."""
    from .errors import ConfigurationError

    if (args.spec is None) == (args.workload is None):
        raise ConfigurationError(
            "submit needs exactly one of --spec or --workload/--backend"
        )
    if args.spec is not None:
        body: dict = {"spec": args.spec}
    elif args.backend is None:
        raise ConfigurationError("--workload also needs --backend")
    else:
        body = {"workload": _workload_from_args(args).canonical(), "backend": args.backend}
    if args.priority:
        body["priority"] = args.priority
    if args.timeout is not None:
        body["timeout_s"] = args.timeout
    if args.label:
        body["label"] = args.label
    checkpoint = _checkpoint_spec(args)
    if checkpoint is not None:
        body["checkpoint"] = checkpoint
    return body


def _cmd_submit(args) -> int:
    import json

    from .service import DONE, ServiceClient

    client = ServiceClient(args.host, args.port)
    view = client.submit(_submit_body(args))
    if not args.no_wait:
        view = client.wait(view["id"], timeout=args.wait_timeout)
    if args.json:
        print(json.dumps(view, indent=2, sort_keys=True))
        return 0 if args.no_wait or view["state"] == DONE else 2
    if args.no_wait:
        print(f"{view['id']} {view['state']}")
        return 0
    if view["state"] == DONE:
        result = view["result"]
        print(
            f"{view['id']} done in {view['elapsed_s']:.3f}s: {result['jobs']} job(s)"
            f" ({result['jobs_cached']} cached, {result['jobs_fresh']} fresh)"
        )
        return 0
    error = view.get("error", {})
    print(
        f"{view['id']} {view['state']}:"
        f" {error.get('code', '?')}: {error.get('message', '')}",
        file=sys.stderr,
    )
    return 2


def _cmd_cache(args) -> int:
    caps = (args.max_entries, args.max_bytes)
    ck_caps = (args.max_checkpoints, args.max_checkpoint_bytes)
    for flag, cap in zip(
        ("--max-entries", "--max-bytes", "--max-checkpoints", "--max-checkpoint-bytes"),
        caps + ck_caps,
        strict=True,
    ):
        _at_least(flag, cap, 0)
    cache = _cache_from_flags(args)
    rows = cache.entries()
    total = sum(size for _, _, size in rows)
    print(f"cache at {cache.root}: {len(rows)} record(s), {total} bytes")
    ckpts = cache.checkpoint_entries()
    if ckpts:
        print(
            f"checkpoints at {cache.checkpoint_root()}: {len(ckpts)}"
            f" artifact(s), {sum(s for _, _, s in ckpts)} bytes"
        )
    if not args.prune:
        if caps + ck_caps != (None,) * 4:
            print("(caps given without --prune: nothing evicted)")
        return 0
    if caps == ck_caps == (None, None):
        caps = (0, None)  # --prune with no caps clears the cache
    evicted, freed = cache.prune(*caps)
    print(f"pruned {evicted} record(s), freed {freed} bytes")
    if ck_caps != (None, None):
        evicted, freed = cache.prune_checkpoints(*ck_caps)
        print(f"pruned {evicted} checkpoint artifact(s), freed {freed} bytes")
    return 0


def _cmd_checkpoint(args) -> int:
    import json

    from .sim.checkpoint import CheckpointStore, read_header

    store = CheckpointStore(args.dir)
    if args.ck_command == "ls":
        entries = store.entries()
        if not entries:
            print(f"no checkpoint artifacts under {store.root}")
            return 0
        print(
            f"{'id':<16}  {'machine':<8}  {'run':<18}"
            f"  {'progress':>12}  {'job':<16}  size"
        )
        for path, header in entries:
            prog = header.get("progress") or {}
            at = prog.get("cycle", prog.get("steps", 0))
            job = ((header.get("job") or {}).get("key") or "adhoc")[:16]
            print(
                f"{path.stem[:16]:<16}  {header.get('machine', '?'):<8}"
                f"  {str(header.get('run_name', '?'))[:18]:<18}"
                f"  {at:>12}  {job:<16}  {path.stat().st_size}"
            )
        return 0
    if args.ck_command == "info":
        path = store.resolve(args.ref)
        header = dict(read_header(path), cid=path.stem, path=str(path))
        print(json.dumps(header, indent=2, sort_keys=True))
        return 0
    path = store.rm(args.ref)  # "rm"
    print(f"removed {path}")
    return 0


def _cmd_backends(args) -> int:
    from .backends import describe

    rows = describe()
    if args.json:
        import json

        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    width = max(len(r["name"]) for r in rows)
    kw = max(len(",".join(r["kinds"])) for r in rows)
    mw = max(len(r["machine"] or "-") for r in rows)
    for r in rows:
        kinds = ",".join(r["kinds"])
        machine = r["machine"] or "-"
        hooks = f"{len(r['hooks'])} hooks" if r["hooks"] else "-"
        ckpt = "ckpt" if r.get("checkpoint") else "-"
        shard = "shard" if r.get("shardable") else "-"
        xval = "xval" if r.get("xval") else "-"
        print(
            f"{r['name']:<{width}}  {r['level']:<6}  {kinds:<{kw}}"
            f"  {machine:<{mw}}  {hooks:<8}  {ckpt:<4}"
            f"  {shard:<5}  {xval:<4}  {r['description']}"
        )
    return 0


def _cmd_xval(args) -> int:
    import json

    from .backends import Workload
    from .core.runner import Job, run_jobs
    from .xval import DivergenceReport

    options = {"machine": args.machine, "max_iter": args.max_iter}
    if args.variant is not None:
        options["variant"] = args.variant
    if args.penalty is not None:
        options["penalty"] = args.penalty
    m = args.m if args.m is not None else 2 * args.n
    workload = Workload(
        args.workload,
        args.p,
        args.seed,
        {"graph": "random", "n": args.n, "m": m},
        options,
    )
    job = Job(workload, "cost-xval")
    [result] = run_jobs([job], workers=1, cache=_cache_from_flags(args))
    report = DivergenceReport.from_dict(result.detail["xval"])
    if args.jsonl is not None:
        _write_jsonl(args.jsonl, report.jsonl())
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.jsonl != "-":
        print(report.table(args.top))
    return 0


def _cmd_run(args) -> int:
    from .core.runner import Job, run_jobs

    workload = _workload_from_args(args)
    [result] = run_jobs(
        [Job(workload, args.backend)],
        workers=1,
        cache=_cache_from_flags(args),
        checkpoint=_checkpoint_spec(args),
    )
    if args.json:
        print(result.jsonl(), end="")
        return 0
    s = result.summary
    tag = "cached" if result.cached else "fresh"
    print(f"{args.workload} on {args.backend} ({tag})")
    print(f"  p={workload.p}  seed={workload.seed}  params={dict(workload.params)}")
    print(
        f"  cycles {s['cycles']:.0f}  seconds {result.seconds:.6e}"
        f"  utilization {s['utilization']:.1%}"
    )
    detail = {k: v for k, v in result.detail.items() if k != "stats"}
    if detail:
        print(f"  {detail}")
    return 0


def _status(report, suppressed: int, what: str) -> str:
    """A findings report's status line: errors, warnings, suppressions."""
    status = "clean" if report.ok() else f"{len(report.errors)} error(s)"
    if report.warnings:
        status += f", {len(report.warnings)} warning(s)"
    if suppressed:
        status += f", {suppressed} annotated {what} suppressed"
    return status


def _cmd_analyze(args) -> int:
    from .analysis import analyze_suite, analyze_workload, dump_jsonl
    from .errors import ConfigurationError

    if args.all_programs:
        if args.workload is not None:
            raise ConfigurationError("--all and --workload are mutually exclusive")
        named = analyze_suite(strict=args.strict, max_findings=args.max_findings)
    else:
        if args.workload is None:
            raise ConfigurationError("analyze needs --workload or --all")
        report = analyze_workload(
            _workload_from_args(args), args.backend, strict=args.strict,
            max_findings=args.max_findings,
        )
        named = [(f"{args.workload}/{args.backend}", report)]

    findings = [f for _, report in named for f in report.findings]
    if args.jsonl is not None:
        _write_jsonl(args.jsonl, dump_jsonl(findings))

    errors = 0
    for name, report in named:
        s = report.stats
        fa = s.get("fa", {})
        status = _status(report, s.get("suppressed_races", 0), "race(s)")
        print(
            f"{name}: {status}  "
            f"[{s.get('ops', 0)} ops, {s.get('threads', 0)} threads, "
            f"{len(s.get('runs', []))} run(s), FA top-share {fa.get('top_share', 0.0):.0%}]"
        )
        if args.jsonl != "-":
            for f in report.findings:
                print(f"  {f.render()}")
        errors += len(report.errors)
    return 1 if errors else 0


def _cmd_lint(args) -> int:
    from .analysis import dump_jsonl
    from .analysis.static import (
        STATE_BASELINE_PATH,
        collect_state_baseline,
        lint_repo,
        repo_root,
    )

    if args.write_state_baseline:
        path = args.state_baseline or os.path.join(repo_root(), STATE_BASELINE_PATH)
        text = collect_state_baseline(args.paths)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote state-contract baseline: {path}")
        return 0

    report = lint_repo(
        args.paths,
        strict=args.strict,
        checks=args.rule or None,
        state_baseline_path=args.state_baseline,
    )
    if args.jsonl is not None:
        _write_jsonl(args.jsonl, dump_jsonl(report.findings))

    s = report.stats
    status = _status(report, s.get("suppressed_findings", 0), "finding(s)")
    print(f"lint: {status}  [{s.get('files', 0)} file(s)]")
    if args.jsonl != "-":
        for f in report.findings:
            print(f"  {f.render()}")
    return 1 if report.errors else 0


def _cmd_sweep(args) -> int:
    from .core.runner import run_jobs, write_jsonl
    from .workloads import jobs_for

    jobs = jobs_for(args.spec)
    _at_least("--workers", args.workers)
    cache = _cache_from_flags(args)
    results = run_jobs(
        jobs, workers=args.workers, cache=cache, checkpoint=_checkpoint_spec(args)
    )

    columns: list[str] = []
    for job in jobs:
        for key in job.tags:
            if key not in columns:
                columns.append(key)
    header = "  ".join(f"{c:>10}" for c in columns)
    print(f"sweep {args.spec}: {len(results)} job(s)")
    print(f"{header}  {'seconds':>14}  {'utilization':>11}")
    for r in results:
        cells = "  ".join(f"{str(r.job.tags.get(c, '-')):>10}" for c in columns)
        print(f"{cells}  {r.seconds:>14.6e}  {r.utilization:>11.4f}")

    if args.jsonl is not None:
        _write_jsonl(args.jsonl, write_jsonl(results))
    if cache:
        print(cache.stats_line(), file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout reader went away (e.g. `repro checkpoint ls | head`);
        # suppress the shutdown flush's second BrokenPipeError too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
