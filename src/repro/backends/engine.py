"""Cycle-level engine backends: simulated SMP and MTA programs.

These wrap the instruction-level programs of
:mod:`repro.lists.programs` and :mod:`repro.graphs.programs` (plus the
raw stream-chaser microbenchmark for the MTA) behind the same
:class:`~repro.backends.base.Backend` interface the analytic models
use.  Engines execute real per-thread instruction streams, so only the
kinds with written programs are supported — ``rank`` and ``cc`` on
both engines, ``chase`` on the MTA.

Workload options consumed here (all optional):

``streams_per_proc``, ``nodes_per_walk``, ``dynamic``,
``edges_per_chunk``
    MTA program knobs (paper defaults: 100 streams, ~10 nodes/walk,
    dynamic self-scheduling).
``engine_kwargs``
    Dict of :class:`~repro.sim.MTAEngine` construction overrides
    (``mem_latency``, ``lookahead``, ``max_outstanding``, …).
``s``
    SMP Helman–JáJá sublist-count override.
``check``
    Truthy: run the program under a fresh
    :class:`~repro.analysis.ConcurrencyChecker` and attach its summary
    as ``detail["analysis"]`` (``"strict"`` enables strict mode).  An
    explicit checker passed to :meth:`execute` takes precedence.
``tier``
    Execution tier for the run (``"auto"``/``"interpreted"``/
    ``"vector"``; see ``docs/SIMULATION.md``).  Any active concurrency
    checker — explicit or option-driven — forces ``"interpreted"``:
    analysis observes every op, so ``repro analyze`` always runs at
    full per-op fidelity regardless of the requested tier.
``steps``, ``mem_latency``, ``lookahead``
    ``chase`` workload: instructions per chaser and engine latency
    parameters for the saturation curve.
``checkpoint``
    Dict enabling checkpoint/resume for the run: ``every`` (snapshot
    period in steps/cycles), ``dir`` (artifact store root), ``resume``
    (explicit artifact path/id — a stale one is an error), ``key``
    (owning-job identity; defaults to a hash of the workload), and
    ``fresh`` (truthy: ignore existing artifacts instead of
    auto-resuming from the newest).  The sweep runner injects this from
    its ``checkpoint=`` argument; see ``docs/SIMULATION.md``.
``shards``, ``shard_workers``, ``shard_executor``, ``remote_latency``
    ``shards`` > 1 runs the workload on the sharded runtime
    (:mod:`repro.sim.shard`): the address space splits into that many
    partitions, hosted by ``shard_workers`` workers (default: one per
    shard) under the ``"mp"`` (default: real processes) or ``"inline"``
    executor, with remote references charged ``remote_latency`` cycles
    (default: the machine's memory latency).  Results are deterministic
    for a fixed shard count — identical for any worker count and either
    executor.  Supported kinds: ``cc`` and ``chase`` on shardable
    engines (``repro backends`` shows the ``shard`` column); sharding
    is incompatible with ``check`` and, for the multi-phase ``cc``
    program, with ``checkpoint``.  See ``docs/SHARDING.md``.

Backend options: ``config`` — dict of :class:`~repro.core.smp_machine.SMPConfig`
field overrides for the SMP engine; ``collect_phases`` is implicit
(programs emit PHASE markers).
"""

from __future__ import annotations

import dataclasses
import inspect
from collections.abc import Mapping

from ..errors import ConfigurationError, require_positive
from .base import Backend, RunHandle, int_value

__all__ = [
    "SMPEngineBackend",
    "MTAEngineBackend",
    "ModelEngineBackend",
    "make_smp_engine",
    "make_mta_engine",
    "make_mta_next_engine",
]


class SMPEngineBackend(Backend):
    """Cycle-accurate SMP simulation (caches, bus, software barriers)."""

    name = "smp-engine"
    level = "engine"
    kinds = ("rank", "cc")
    description = "Cycle-level SMP engine (simulated caches + bus)"

    def __init__(self, *, config=None):
        from ..core.smp_machine import SUN_E4500

        cfg = SUN_E4500
        if config:
            try:
                cfg = dataclasses.replace(cfg, **config)
            except TypeError as exc:
                raise ConfigurationError(f"bad SMP engine config: {exc}") from None
        self.config = cfg

    def execute(self, handle: RunHandle, check=None):
        workload = handle.workload
        opt = workload.options
        if _resolve_shards(workload) is not None:
            raise ConfigurationError(
                "the SMP engine does not shard: its cache/bus timing is"
                " globally coupled; sharding needs a flat hashed-memory"
                " machine (mta-engine, mta-next-engine)"
            )
        check, attach_summary = _resolve_check(check, workload)
        tier = _resolve_tier(workload, check)
        session = _resolve_session(workload, self.name, check)
        if workload.kind == "rank":
            from ..lists.programs import simulate_smp_list_ranking

            kw = {}
            if opt.get("s") is not None:
                kw["s"] = int_value(opt, "s", option=True)
            sim = simulate_smp_list_ranking(
                handle.data, p=workload.p, rng=workload.seed,
                config=self.config, check=check, tier=tier, session=session, **kw,
            )
        else:
            from ..graphs.programs import simulate_smp_cc

            sim = simulate_smp_cc(
                handle.data, p=workload.p,
                max_iter=int_value(opt, "max_iter", 64, option=True),
                config=self.config, check=check, tier=tier, session=session,
                variant=opt.get("variant"),
            )
        _note_resume(session)
        summary = sim.summary
        summary.detail.update(handle.meta)
        summary.detail["backend"] = self.name
        if hasattr(sim, "iterations"):
            summary.detail["iterations"] = int(sim.iterations)
        if attach_summary:
            summary.detail["analysis"] = check.report().summary_dict()
        return summary


class MTAEngineBackend(Backend):
    """Cycle-accurate MTA simulation (stream interleaving, full/empty bits)."""

    name = "mta-engine"
    level = "engine"
    kinds = ("rank", "cc", "chase")
    description = "Cycle-level MTA engine (multithreaded streams)"

    #: Engine facade the thread programs construct; ``None`` means the
    #: stock :class:`~repro.sim.MTAEngine`.  :class:`ModelEngineBackend`
    #: points this at a registered machine's facade instead.
    engine_factory = None

    def __init__(self):
        pass

    def execute(self, handle: RunHandle, check=None):
        workload = handle.workload
        opt = workload.options
        check, attach_summary = _resolve_check(check, workload)
        shard = _resolve_shards(workload)
        if shard is not None:
            if check is not None:
                raise ConfigurationError(
                    "sharded runs host their workers in separate kernels:"
                    " concurrency analysis (check) needs the single-kernel"
                    " per-op stream, so it requires shards=1"
                )
            return self._execute_sharded(handle, shard)
        if workload.kind == "chase":
            return self._execute_chase(handle, check, attach_summary)
        engine_kwargs = _engine_kwargs(workload, self.engine_factory)
        engine_kwargs.setdefault("tier", _resolve_tier(workload, check))
        session = _resolve_session(workload, self.name, check)
        if workload.kind == "rank":
            from ..lists.programs import simulate_mta_list_ranking

            sim = simulate_mta_list_ranking(
                handle.data,
                p=workload.p,
                streams_per_proc=int_value(opt, "streams_per_proc", 100, option=True),
                nodes_per_walk=int_value(opt, "nodes_per_walk", 10, option=True),
                dynamic=bool(opt.get("dynamic", True)),
                engine_kwargs=engine_kwargs,
                check=check,
                engine=self.engine_factory,
                session=session,
            )
        else:
            from ..graphs.programs import simulate_mta_cc

            sim = simulate_mta_cc(
                handle.data,
                p=workload.p,
                streams_per_proc=int_value(opt, "streams_per_proc", 100, option=True),
                edges_per_chunk=int_value(opt, "edges_per_chunk", 16, option=True),
                max_iter=int_value(opt, "max_iter", 64, option=True),
                engine_kwargs=engine_kwargs,
                check=check,
                engine=self.engine_factory,
                session=session,
            )
        _note_resume(session)
        summary = sim.summary
        summary.detail.update(handle.meta)
        summary.detail["backend"] = self.name
        if hasattr(sim, "iterations"):
            summary.detail["iterations"] = int(sim.iterations)
        if attach_summary:
            summary.detail["analysis"] = check.report().summary_dict()
        return summary

    def _execute_sharded(self, handle: RunHandle, shard: dict):
        """Run ``cc`` or ``chase`` on the sharded runtime (shards > 1)."""
        workload = handle.workload
        opt = workload.options
        if workload.kind == "rank":
            raise ConfigurationError(
                "the list-ranking program keeps its algorithm state in host"
                " arrays; sharded execution supports the kinds with"
                " engine-owned state: cc and chase"
            )
        tier = _resolve_tier(workload, None)
        base = getattr(self.engine_factory, "machine_class", None)
        if workload.kind == "chase":
            from ..obs.summary import RunSummary
            from ..sim.shard import PartitionPlan, run_sharded

            checkpoint, resume = _shard_checkpoint(workload, self.name)
            res = run_sharded(
                PartitionPlan(1 << 20, workload.p, shard["shards"]),
                workers=shard["workers"],
                executor=shard["executor"],
                builder=_chase_builder,
                builder_args=(int(handle.meta.get("chasers", 1)),
                              _chase_steps(opt), workload.p),
                base=base,
                params=_chase_params(opt),
                remote_latency=shard["remote_latency"],
                name="chase",
                budget=200_000_000,
                tier=tier,
                checkpoint=checkpoint,
                resume=resume,
            )
            summary = RunSummary.from_report(res.report, machine=self.name)
            summary.name = "chase"
            shard_detail = res.detail
        else:
            if workload.option("checkpoint"):
                raise ConfigurationError(
                    "sharded cc runs re-seed their partitions every"
                    " graft/shortcut phase, so there is no single resumable"
                    " cycle stream; checkpointing applies to single-phase"
                    " sharded runs (chase) or to unsharded runs"
                )
            from ..graphs.shard_programs import simulate_sharded_cc

            params = _engine_kwargs(workload, self.engine_factory)
            params.pop("tier", None)
            sim = simulate_sharded_cc(
                handle.data,
                p=workload.p,
                shards=shard["shards"],
                workers=shard["workers"],
                executor=shard["executor"],
                remote_latency=shard["remote_latency"],
                streams_per_proc=int_value(opt, "streams_per_proc", 100, option=True),
                edges_per_chunk=int_value(opt, "edges_per_chunk", 16, option=True),
                max_iter=int_value(opt, "max_iter", 64, option=True),
                params=params,
                base=base,
                tier=tier,
            )
            summary = sim.summary
            summary.detail["iterations"] = int(sim.iterations)
            shard_detail = sim.shard_detail
        summary.detail.update(handle.meta)
        summary.detail["backend"] = self.name
        summary.detail["shards"] = shard["shards"]
        summary.detail["shard"] = shard_detail
        return summary

    def _execute_chase(self, handle: RunHandle, check=None, attach_summary=False):
        """The latency-hiding saturation microbenchmark: ``chasers``
        streams each alternating one compute with two dependent loads —
        the access pattern of a list walk."""
        from ..obs.summary import RunSummary
        from ..sim import MTAEngine

        workload = handle.workload
        opt = workload.options
        steps = _chase_steps(opt)
        engine = self.engine_factory or MTAEngine
        session = _resolve_session(workload, self.name, check)
        eng = engine(
            p=workload.p,
            check=check,
            tier=_resolve_tier(workload, check),
            session=session,
            **_chase_params(opt),
        )
        for _ in range(int(handle.meta.get("chasers", 1))):
            eng.spawn(_chaser(steps))
        report = eng.run(name="chase")
        _note_resume(session)
        summary = RunSummary.from_report(report, machine=self.name)
        summary.name = "chase"
        summary.detail.update(handle.meta)
        summary.detail["backend"] = self.name
        if attach_summary:
            summary.detail["analysis"] = check.report().summary_dict()
        return summary


def _chase_params(opt) -> dict:
    """Machine parameters of the ``chase`` saturation curve."""
    return {
        "streams_per_proc": int_value(opt, "streams_per_proc", 128, option=True),
        "mem_latency": int_value(opt, "mem_latency", 100, option=True),
        "lookahead": int_value(opt, "lookahead", 2, option=True),
    }


def _chase_steps(opt) -> int:
    """Instructions per chaser (``steps``); a chase needs at least one."""
    steps = int_value(opt, "steps", 40, option=True)
    require_positive(steps=steps)
    return steps


def _chaser(steps: int):
    """One chase stream: a compute then two dependent loads per step."""
    from ..sim import isa

    for i in range(steps):
        yield isa.compute(1)
        yield isa.load_dep(i)
        yield isa.load_dep(100_000 + i)


def _chase_builder(ctx, chasers: int, steps: int, p: int) -> None:
    """Shard builder for ``chase``: round-robin placement, like an
    unsharded engine's ``spawn``."""
    for t in range(chasers):
        ctx.spawn(_chaser(steps), t % p)


class ModelEngineBackend(MTAEngineBackend):
    """Engine backend for another interleaved machine.

    The same MTA thread programs (``rank``, ``cc``, ``chase``) run
    unmodified, constructing ``engine_factory`` instead of the stock
    :class:`~repro.sim.MTAEngine`.  The facade must therefore be
    MTAEngine-compatible (interleaved scheduling, ``spawn``/``run``);
    sharded runs use its ``machine_class``.  Registering a machine is
    one :func:`repro.backends.register` call whose factory returns one
    of these — ``mta-next-engine`` is the in-tree example.
    """

    def __init__(self, *, name, engine_factory, description=""):
        self.name = name
        self.description = description
        self.engine_factory = engine_factory


def _engine_kwargs(workload, engine_factory) -> dict:
    """The ``engine_kwargs`` option as a fresh dict, checked against the
    machine's constructor: a non-mapping value or an unknown key is a
    :class:`~repro.errors.ConfigurationError`, not a ``TypeError``."""
    raw = workload.option("engine_kwargs") or {}
    if not isinstance(raw, Mapping):
        raise ConfigurationError(
            f"option 'engine_kwargs' must be a mapping of machine parameters,"
            f" got {raw!r}"
        )
    from ..sim import MTAEngine

    machine = (engine_factory or MTAEngine).machine_class
    known = set(inspect.signature(machine).parameters) - {"p"}
    unknown = sorted(set(raw) - known - {"tier"})
    if unknown:
        raise ConfigurationError(
            f"unknown engine_kwargs key(s) {', '.join(map(repr, unknown))} for"
            f" {machine.__name__}; expected some of: tier, {', '.join(sorted(known))}"
        )
    return dict(raw)


def _resolve_shards(workload):
    """Normalized shard options (None when the run is unsharded)."""
    opt = workload.options
    shards = int_value(opt, "shards", 1, option=True)
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        return None
    executor = str(opt.get("shard_executor") or "mp")
    if executor not in ("mp", "inline"):
        raise ConfigurationError(
            f"unknown shard_executor {executor!r}; expected 'mp' or 'inline'"
        )
    return {
        "shards": shards,
        "workers": int_value(opt, "shard_workers", None, option=True),
        "executor": executor,
        "remote_latency": int_value(opt, "remote_latency", None, option=True),
    }


def _job_key(workload, backend_name: str, spec: dict) -> str:
    """The checkpoint owner's identity: the spec's ``key``, else a hash
    of the workload (minus its ``checkpoint`` option) and backend."""
    if spec.get("key"):
        return spec["key"]
    import hashlib

    from .base import canonical_json

    canon = workload.canonical()
    canon["options"] = {
        k: v for k, v in canon["options"].items() if k != "checkpoint"
    }
    return hashlib.sha256(
        canonical_json({"workload": canon, "backend": backend_name}).encode()
    ).hexdigest()


def _shard_checkpoint(workload, backend_name: str):
    """Translate the ``checkpoint`` option into a coordinator spec.

    Sharded runs snapshot as a coordinated cut — one pickle per shard
    plus a manifest — so the artifacts live in their own directory
    ``<store root>/shard-<key>/`` rather than the content-addressed
    store.  An existing manifest auto-resumes (``fresh`` ignores it;
    an explicit ``resume`` names such a directory).
    """
    spec = workload.option("checkpoint")
    if not spec:
        return None, None
    from ..sim.checkpoint import CheckpointStore

    spec = dict(spec)
    key = _job_key(workload, backend_name, spec)
    ckpt_dir = CheckpointStore(spec.get("dir")).root / f"shard-{key[:16]}"
    checkpoint = None
    if spec.get("every"):
        checkpoint = {"every": int(spec["every"]), "dir": str(ckpt_dir)}
        if spec.get("stop_after"):
            checkpoint["stop_after"] = int(spec["stop_after"])
    resume = None
    ref = spec.get("resume")
    if ref:
        resume = str(ref)
    elif not spec.get("fresh") and (ckpt_dir / "manifest.json").is_file():
        resume = str(ckpt_dir)
    return checkpoint, resume


def _resolve_session(workload, backend_name: str, check=None):
    """Build a :class:`~repro.sim.checkpoint.CheckpointSession` from the
    workload's ``checkpoint`` option (None when the option is absent).

    An explicit ``resume`` reference must load — a stale or missing
    artifact raises :class:`~repro.errors.CheckpointError`.  Without
    one, the newest artifact of this job auto-resumes; stale artifacts
    are skipped with a warning (the run simply starts over).
    """
    spec = workload.option("checkpoint")
    if not spec:
        return None
    if check is not None:
        raise ConfigurationError(
            "checkpointing is incompatible with concurrency analysis:"
            " replayed runs re-execute without per-op hook events, so a"
            " checker would see a partial stream"
        )
    import sys

    from ..errors import CheckpointError
    from ..sim.checkpoint import CheckpointSession, CheckpointStore, load_checkpoint

    spec = dict(spec)
    store = CheckpointStore(spec.get("dir"))
    key = _job_key(workload, backend_name, spec)
    resume = None
    ref = spec.get("resume")
    if ref:
        resume = load_checkpoint(store.resolve(ref))
    elif not spec.get("fresh"):
        newest = store.newest_for(key)
        if newest is not None:
            try:
                resume = load_checkpoint(newest)
            except CheckpointError as exc:
                print(
                    f"repro: ignoring stale checkpoint {newest.name}: {exc}",
                    file=sys.stderr,
                )
    every = spec.get("every")
    return CheckpointSession(
        every=int(every) if every else None,
        store=store,
        job={"key": key},
        resume=resume,
        should_stop=spec.get("_stop"),
    )


def _note_resume(session) -> None:
    """One stderr line when a run actually resumed (stdout records stay
    byte-identical to uninterrupted runs)."""
    if session is not None and session.resumed_from is not None:
        import sys

        print(
            f"repro: resumed from checkpoint {session.resumed_from[:16]}"
            f" ({session.replayed_runs} run(s) replayed)",
            file=sys.stderr,
        )


def _resolve_check(check, workload):
    """Honor an explicit checker or the workload's ``check`` option.

    Returns ``(checker, attach_summary)``: the summary is only attached
    for option-driven checkers — an explicit caller (``repro analyze``)
    owns the report itself.
    """
    if check is not None:
        return check, False
    opt = workload.option("check")
    if not opt:
        return None, False
    from ..analysis import ConcurrencyChecker

    return ConcurrencyChecker(strict=opt == "strict", program=workload.kind), True


def _resolve_tier(workload, check) -> str:
    """The execution tier for a workload run (see module docstring).

    An active concurrency checker wins over the requested tier: the
    checker subscribes to per-op hook events, which the vector tier
    cannot deliver, so checked runs always interpret.  ``repro analyze
    --all`` relies on this (tests/test_tier_fallback.py pins it).
    """
    tier = str(workload.option("tier") or "auto")
    from ..sim import TIERS

    if tier not in TIERS:
        raise ConfigurationError(
            f"unknown tier {tier!r}; expected one of {', '.join(TIERS)}"
        )
    if check is not None:
        return "interpreted"
    return tier


def make_smp_engine(*, config=None):
    return SMPEngineBackend(config=config)


def make_mta_engine():
    return MTAEngineBackend()


MTA_NEXT_DESCRIPTION = (
    "Hypothetical commodity-parts Cray: banked high-latency memory, 64 streams"
)


def make_mta_next_engine():
    from ..sim.mta_next import MTANextEngine

    return ModelEngineBackend(
        name="mta-next-engine",
        engine_factory=MTANextEngine,
        description=MTA_NEXT_DESCRIPTION,
    )
