"""Coordinator for deterministic sharded simulation runs.

The coordinator owns the global half of the conservative time-window
protocol.  Workers simulate freely inside granted horizons and initiate
globally synchronized *rounds* (every worker contributes exactly one
bundle per round and blocks for the reply).  Per round the coordinator:

1. gathers one bundle from every worker (messages, barrier arrivals,
   progress, parked-ness);
2. routes every message to the worker hosting its destination
   partition;
3. resolves barriers whose global arrival count is complete
   (``release = global max arrival + release cost`` — the kernel's own
   arithmetic) and computes ratcheting release lower bounds for workers
   stalled behind incomplete barriers;
4. maintains a per-worker *effective now* ``E`` — a sound lower bound
   on the stamp of any future message minus the remote latency.  For a
   parked worker ``E`` is boosted above its frozen clock using the
   earliest of its next local wake, the earliest possible inbound
   message, and the earliest possible barrier release; the boost is
   remembered (ratcheted) across rounds so idle workers never freeze
   their peers' horizons;
5. detects global termination (everything done, quiet, and drained)
   and true deadlock (nothing routed, nothing released, every worker
   idle with no self-wake) — raising
   :class:`~repro.errors.DeadlockError` instead of spinning;
6. grants each worker a new horizon ``min over peers of E + R`` and,
   at checkpoint boundaries, directs the consistent-cut snapshot
   (every live worker is clock-frozen at the same cycle when the
   directive goes out, because each self-caps at the boundary).

Results are merged so that the :class:`~repro.sim.stats.SimReport` (and
optional hook-event stream) is byte-identical at any partition and
worker count — ``shards=1`` degenerates to the plain unsharded kernel.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
from dataclasses import dataclass, field

import numpy as np

from ... import errors as _errors
from ...errors import (
    CheckpointError,
    ConfigurationError,
    DeadlockError,
    RunPaused,
    SimulationError,
)
from ..mta_engine import MTAMachine
from ..stats import PhaseSlice, SimReport
from .channel import ChannelClosed, Endpoint, loopback_pair
from .machine import sharded_machine
from .partition import PartitionPlan, assign_workers
from .worker import _mp_main, worker_main

__all__ = ["ShardResult", "run_sharded", "load_manifest", "MANIFEST_NAME"]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 2

_INF = 1 << 62


@dataclass
class ShardResult:
    """Everything a sharded run produces.

    ``report`` is the merged :class:`SimReport` (byte-comparable with an
    unsharded run); ``values``/``counters``/``full`` are the merged
    engine value words, fetch-add cells, and full/empty words;
    ``detail`` carries shard-runtime counters (never part of the
    report): rounds, messages, per-shard cycles.
    """

    report: SimReport
    values: dict
    counters: dict
    full: dict
    detail: dict
    events: list | None = None
    reports: list = field(default_factory=list)


class _Handle:
    """One launched worker: its endpoint plus lifecycle hooks."""

    def __init__(self, ep, join, kill=None):
        self.ep = ep
        self.join = join
        self.kill = kill


# -- executors -------------------------------------------------------------------


def _launch_inline(specs):
    handles = []
    for i, spec in enumerate(specs):
        coord_ep, worker_ep = loopback_pair()
        th = threading.Thread(
            target=worker_main, args=(worker_ep, spec),
            name=f"shard-worker-{i}", daemon=True,
        )
        th.start()
        handles.append(_Handle(coord_ep, th.join))
    return handles


def _launch_mp(specs):
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context("spawn")
    handles = []
    for spec in specs:
        conn_a, conn_b = ctx.Pipe(duplex=True)
        proc = ctx.Process(target=_mp_main, args=(conn_b, spec), daemon=True)
        proc.start()
        conn_b.close()
        ep = Endpoint(conn_a.send, conn_a.recv, conn_a.close)

        def _kill(p=proc):
            if p.is_alive():
                p.terminate()

        handles.append(_Handle(ep, proc.join, _kill))
    return handles


_EXECUTORS = {"inline": _launch_inline, "mp": _launch_mp}


# -- checkpoint manifest ---------------------------------------------------------


def _artifact_name(w: int) -> str:
    return f"shard-{w}.pkl"


def load_manifest(path: str) -> dict:
    """Read a sharded-run checkpoint manifest from ``path`` (a directory)."""
    fname = os.path.join(path, MANIFEST_NAME)
    try:
        with open(fname, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read shard manifest {fname}: {exc}") from None
    if manifest.get("version") != MANIFEST_VERSION:
        raise CheckpointError(
            f"shard manifest version {manifest.get('version')!r} is not"
            f" {MANIFEST_VERSION}"
        )
    return manifest


def _persist(path: str, meta: dict, states: list) -> None:
    os.makedirs(path, exist_ok=True)
    for w, state in enumerate(states):
        with open(os.path.join(path, _artifact_name(w)), "wb") as fh:
            pickle.dump(state, fh)
    manifest = dict(meta)
    manifest["version"] = MANIFEST_VERSION
    manifest["artifacts"] = [_artifact_name(w) for w in range(len(states))]
    manifest["cycle"] = max(
        s["progress"]["cycle"] for s in states
    )
    tmp = os.path.join(path, MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(path, MANIFEST_NAME))


def _load_states(path: str, manifest: dict) -> list:
    states = []
    for name in manifest["artifacts"]:
        fname = os.path.join(path, name)
        try:
            with open(fname, "rb") as fh:
                states.append(pickle.load(fh))
        except (OSError, pickle.UnpicklingError) as exc:
            raise CheckpointError(
                f"cannot read shard artifact {fname}: {exc}"
            ) from None
    return states


# -- report merging --------------------------------------------------------------


def _merge_detail(details: list[dict]) -> dict:
    out: dict = {
        "fa_serialization_stalls": 0,
        "fa_sites": {},
        "fe_wait_hist": {},
        "fe_wait_cycles": 0,
        "barrier_waits": {},
    }
    for d in details:
        out["fa_serialization_stalls"] += d.get("fa_serialization_stalls", 0)
        out["fa_sites"].update(d.get("fa_sites", {}))
        for bucket, n in d.get("fe_wait_hist", {}).items():
            out["fe_wait_hist"][bucket] = out["fe_wait_hist"].get(bucket, 0) + n
        out["fe_wait_cycles"] += d.get("fe_wait_cycles", 0)
        for bid, row in d.get("barrier_waits", {}).items():
            agg = out["barrier_waits"].get(bid)
            if agg is None:
                out["barrier_waits"][bid] = dict(row)
            else:
                agg["episodes"] += row["episodes"]
                agg["wait_cycles"] += row["wait_cycles"]
                if row["max_wait"] > agg["max_wait"]:
                    agg["max_wait"] = row["max_wait"]
    return out


def _merge_reports(reports: list[SimReport]) -> SimReport:
    """Combine per-worker reports into the global one.

    Processor order is worker order (workers host contiguous global
    processor ranges, in order), so concatenating ``issued`` restores
    the global per-processor vector.  The phase list reduces to the
    single whole-run slice the unsharded kernel produces for runs
    without PHASE markers (multi-partition runs reject PHASE ops).
    """
    name = reports[0].name
    cycles = max(r.cycles for r in reports)
    issued = np.concatenate([r.issued for r in reports])
    op_counts: dict = {}
    for r in reports:
        for k, v in r.op_counts.items():
            op_counts[k] = op_counts.get(k, 0) + v
    total_issued = int(issued.sum())
    phases = [
        PhaseSlice(
            name=name,
            start=0,  # the kernel's opening snapshot is the int 0
            end=float(cycles),
            issued=total_issued,
            op_counts={k: v for k, v in op_counts.items() if v != 0},
        )
    ]
    return SimReport(
        name=name,
        p=sum(r.p for r in reports),
        cycles=cycles,
        issued=issued,
        clock_hz=reports[0].clock_hz,
        op_counts=op_counts,
        detail=_merge_detail([r.detail for r in reports]),
        phases=phases,
    )


# -- the coordinator -------------------------------------------------------------


class _Coordinator:
    def __init__(self, handles, plan, parts, *, remote_latency, checkpoint,
                 resumed_cycle, meta, resumed=None):
        self.handles = handles
        self.plan = plan
        self.parts = parts
        self.W = len(handles)
        self.R = remote_latency
        self.checkpoint = checkpoint or {}
        self.meta = meta
        # partition -> hosting worker
        self.worker_of_part = [0] * plan.k
        for w, (lo, hi) in enumerate(parts):
            for part in range(lo, hi):
                self.worker_of_part[part] = w
        self.rounds = 0
        self.msgs_routed = 0
        self.ckpts_taken = 0
        every = self.checkpoint.get("every")
        self.next_ckpt = (
            (resumed_cycle // every + 1) * every if every else None
        )
        # barrier episode state
        self.bar_need: dict[str, int] = {}
        self.bar_cost: int | None = None
        self.bar_count: dict[str, int] = {}
        self.bar_max: dict[str, int] = {}
        self.bar_workers: dict[str, set] = {}
        # per-worker effective-now ratchet
        self.E_prev = [0] * self.W
        if resumed is not None:
            self._restore(resumed)

    # -- channel helpers ---------------------------------------------------------

    def _recv(self, w: int, *kinds: str) -> dict:
        try:
            msg = self.handles[w].ep.recv()
        except ChannelClosed:
            self._abort_others(w, "a peer worker died")
            raise SimulationError(
                f"shard worker {w} died (channel closed) before the run finished"
            ) from None
        kind = msg.get("kind")
        if kind == "error":
            self._abort_others(w, "a peer worker failed")
            self._raise_worker_error(msg)
        if kind not in kinds:
            self._abort_all(f"protocol violation from worker {w}")
            raise SimulationError(
                f"shard worker {w} sent {kind!r}, expected one of {kinds}"
            )
        return msg

    def _abort_others(self, failed: int, reason: str) -> None:
        for w, h in enumerate(self.handles):
            if w != failed:
                try:
                    h.ep.send({"op": "abort", "reason": reason})
                except ChannelClosed:
                    pass
        self._shutdown()

    def _abort_all(self, reason: str) -> None:
        self._abort_others(-1, reason)

    def _shutdown(self) -> None:
        for h in self.handles:
            h.join(5.0)
        for h in self.handles:
            if h.kill is not None:
                h.kill()

    @staticmethod
    def _raise_worker_error(msg: dict):
        cls = getattr(_errors, msg.get("etype", ""), None)
        if not (isinstance(cls, type) and issubclass(cls, Exception)):
            cls = SimulationError
        raise cls(
            f"shard worker {msg['w']}: {msg['message']}\n"
            f"--- worker traceback ---\n{msg.get('trace', '')}"
        )

    # -- setup -------------------------------------------------------------------

    def gather_hellos(self) -> None:
        needs: dict[str, int] | None = None
        for w in range(self.W):
            hello = self._recv(w, "hello")
            if tuple(hello["parts"]) != tuple(self.parts[w]):
                self._abort_all("partition assignment mismatch")
                raise ConfigurationError(
                    f"worker {w} hosts partitions {hello['parts']},"
                    f" expected {self.parts[w]}"
                )
            if needs is None:
                needs = dict(hello["barriers"])
                self.bar_cost = hello["cost"]
            else:
                if dict(hello["barriers"]) != needs:
                    self._abort_all("barrier registration mismatch")
                    raise ConfigurationError(
                        "workers disagree on global barrier registrations"
                        " (builders must run identically on every worker)"
                    )
                if hello["cost"] != self.bar_cost:
                    self._abort_all("barrier cost mismatch")
                    raise ConfigurationError(
                        "workers disagree on the barrier release cost"
                    )
        self.bar_need = needs or {}

    # -- the round loop (k > 1) --------------------------------------------------

    def run_rounds(self) -> None:
        W = self.W
        while True:
            bundles = [self._recv(w, "bundle") for w in range(W)]
            self.rounds += 1
            # 1. route messages by destination partition
            routed: list[list] = [[] for _ in range(W)]
            n_msgs = 0
            for b in bundles:
                for msg in b["msgs"]:
                    routed[self.worker_of_part[msg[4]]].append(msg)
                    n_msgs += 1
            self.msgs_routed += n_msgs
            # 2. barrier arrivals and releases
            releases = self._apply_barriers(bundles)
            quiet = n_msgs == 0 and not releases
            # 3. termination
            if quiet and all(
                b["now"] is None and b["pending"] is None for b in bundles
            ):
                self._reply_all(bundles, routed, releases, None, None, op="stop")
                return
            # 4. effective-now ratchet (raw, then parked boosts)
            raw = []
            for w, b in enumerate(bundles):
                if b["now"] is not None:
                    v = b["now"]
                else:
                    v = b["pending"] if b["pending"] is not None else _INF
                raw.append(max(v, self.E_prev[w]))
            # 5. deadlock: quiet round, and nobody can wake themselves
            if quiet and all(
                (b["now"] is None and b["pending"] is None)
                or (b["parked"] is not None and b["parked"]["next_local"] is None)
                for b in bundles
            ):
                rows = [r for b in bundles for r in b.get("rows") or []]
                self._abort_all("global deadlock")
                inventory = ", ".join(
                    f"tid{r.get('tid')}:{r.get('state')}" for r in rows[:10]
                )
                raise DeadlockError(
                    f"sharded run deadlocked across {W} workers: no messages"
                    f" in flight, no barrier releasable, all workers idle"
                    f" ({inventory}{', ...' if len(rows) > 10 else ''})"
                )
            bar_bound = self._barrier_bounds(bundles, raw)
            E = self._boost(bundles, raw, bar_bound)
            # In-flight cap: a message routed to w this round is not in
            # any bundle yet, and w may answer it (a finished worker
            # still serves its partitions).  Until w's next bundle shows
            # the traffic, its effective now is no later than the
            # earliest such arrival — so no peer is granted a horizon
            # past the replies w is about to emit.
            for w in range(W):
                if routed[w]:
                    cap = min(msg[1] for msg in routed[w])
                    if cap < E[w]:
                        E[w] = cap
            self.E_prev = E
            # 6. checkpoint trigger (consistent cut: every live worker is
            # frozen at the boundary cycle when this fires)
            op = None
            stop = False
            if self.next_ckpt is not None:
                live_nows = [b["now"] for b in bundles if b["now"] is not None]
                if live_nows and min(live_nows) >= self.next_ckpt:
                    op = "checkpoint"
                    stop_after = self.checkpoint.get("stop_after")
                    stop = (
                        stop_after is not None
                        and self.ckpts_taken + 1 >= stop_after
                    )
            # 7. reply
            self._reply_all(bundles, routed, releases, E, bar_bound, op=op,
                            stop=stop)
            if op == "checkpoint":
                self._take_checkpoint(stop)

    def _apply_barriers(self, bundles) -> list:
        for w, b in enumerate(bundles):
            for bid, cycle in b["bars"]:
                need = self.bar_need.get(bid)
                if need is None:
                    self._abort_all(f"unregistered barrier {bid!r}")
                    raise SimulationError(
                        f"worker {w} reported arrival at unregistered"
                        f" barrier {bid!r}"
                    )
                self.bar_count[bid] = self.bar_count.get(bid, 0) + 1
                prev = self.bar_max.get(bid)
                if prev is None or cycle > prev:
                    self.bar_max[bid] = cycle
                self.bar_workers.setdefault(bid, set()).add(w)
        releases = []
        for bid, count in list(self.bar_count.items()):
            need = self.bar_need[bid]
            if count > need:
                self._abort_all(f"barrier {bid!r} oversubscribed")
                raise SimulationError(
                    f"barrier {bid!r} got {count} arrivals but need={need}"
                )
            if count == need:
                releases.append((bid, self.bar_max[bid] + self.bar_cost))
                del self.bar_count[bid]
                del self.bar_max[bid]
                del self.bar_workers[bid]
        return releases

    def _barrier_bounds(self, bundles, raw) -> dict:
        """Per-bid lower bound on the (unknown) release cycle of every
        incomplete barrier: the missing arrivals must come from live
        workers, so ``release >= max(arrivals so far, min live raw
        now) + cost``.  Ratchets upward every round, unfreezing workers
        stalled at their own arrival cycle."""
        if not self.bar_count:
            return {}
        live_raw = [
            raw[w] for w, b in enumerate(bundles) if b["now"] is not None
        ]
        floor = min(live_raw) if live_raw else _INF
        return {
            bid: max(self.bar_max[bid], floor) + self.bar_cost
            for bid in self.bar_count
        }

    def _boost(self, bundles, raw, bar_bound) -> list:
        E = []
        for w, b in enumerate(bundles):
            if b["now"] is None or b["parked"] is None:
                E.append(raw[w])
                continue
            cands = []
            nl = b["parked"]["next_local"]
            if nl is not None:
                cands.append(nl)
            if self.W > 1:
                cands.append(
                    min(raw[v] for v in range(self.W) if v != w) + self.R
                )
            for bid, workers in self.bar_workers.items():
                if w in workers:
                    cands.append(bar_bound[bid])
            E.append(max(raw[w], min(cands)) if cands else raw[w])
        return E

    def _reply_all(self, bundles, routed, releases, E, bar_bound, *,
                   op=None, stop=False) -> None:
        for w, b in enumerate(bundles):
            if E is None:
                horizon = None
            else:
                others = [E[v] for v in range(self.W) if v != w]
                h = min(others) + self.R if others else _INF
                horizon = None if h >= _INF else h
            bar_stop = None
            if bar_bound:
                mine = [
                    bar_bound[bid]
                    for bid, workers in self.bar_workers.items()
                    if w in workers
                ]
                if mine:
                    bar_stop = min(mine)
            reply = {
                "round": b["round"],
                "msgs": routed[w],
                "releases": releases,
                "horizon": horizon,
                "bar_stop": bar_stop,
                "op": op,
            }
            if op == "checkpoint":
                reply["stop"] = stop
            try:
                self.handles[w].ep.send(reply)
            except ChannelClosed:
                raise SimulationError(
                    f"shard worker {w} died before round {self.rounds}"
                ) from None

    # -- checkpoint state ----------------------------------------------------------

    def _state(self) -> dict:
        """Everything a resumed run needs to continue this coordinator
        exactly: run-wide counters (they land in ``ShardResult.detail``),
        the effective-now ratchet and partially arrived barriers."""
        return {
            "rounds": self.rounds,
            "msgs_routed": self.msgs_routed,
            "checkpoints": self.ckpts_taken,
            "E_prev": list(self.E_prev),
            "bar_count": dict(self.bar_count),
            "bar_max": dict(self.bar_max),
            "bar_workers": {b: sorted(ws) for b, ws in self.bar_workers.items()},
        }

    def _restore(self, st: dict) -> None:
        self.rounds = st["rounds"]
        self.msgs_routed = st["msgs_routed"]
        self.ckpts_taken = st["checkpoints"]
        self.E_prev = list(st["E_prev"])
        self.bar_count = dict(st["bar_count"])
        self.bar_max = dict(st["bar_max"])
        self.bar_workers = {b: set(ws) for b, ws in st["bar_workers"].items()}

    def _save(self, states: list) -> None:
        self.ckpts_taken += 1
        _persist(self.checkpoint["dir"],
                 dict(self.meta, coordinator=self._state()), states)

    def _take_checkpoint(self, stop: bool) -> None:
        self._save([self._recv(w, "state")["state"] for w in range(self.W)])
        every = self.checkpoint["every"]
        self.next_ckpt += every
        if stop:
            for w in range(self.W):
                self._recv(w, "paused")
            self._shutdown()
            raise RunPaused(
                f"sharded run paused after checkpoint {self.ckpts_taken}",
                path=self.checkpoint["dir"],
            )

    # -- single-partition passthrough (k == 1) -----------------------------------

    def run_single(self) -> None:
        """k == 1: no rounds — the lone worker runs its plain kernel and
        only checkpoint state (if any) round-trips through here."""
        stop_after = self.checkpoint.get("stop_after")
        while True:
            msg = self._recv(0, "state", "fin", "paused")
            if msg["kind"] == "state":
                self._save([msg["state"]])
                stop = stop_after is not None and self.ckpts_taken >= stop_after
                self.handles[0].ep.send({"op": None, "stop": stop})
            elif msg["kind"] == "paused":
                self._shutdown()
                raise RunPaused(
                    f"sharded run paused after checkpoint {self.ckpts_taken}",
                    path=self.checkpoint["dir"],
                )
            else:
                self._fin0 = msg
                return

    # -- finish ------------------------------------------------------------------

    def gather_fins(self) -> list[dict]:
        fins = []
        for w in range(self.W):
            if w == 0 and getattr(self, "_fin0", None) is not None:
                fins.append(self._fin0)
            else:
                fins.append(self._recv(w, "fin"))
        self._shutdown()
        return fins


def run_sharded(
    plan: PartitionPlan,
    *,
    builder,
    builder_args=(),
    workers: int | None = None,
    executor: str = "inline",
    base=None,
    params=None,
    remote_latency=None,
    name: str = "run",
    budget: int | None = None,
    tier: str | None = None,
    collect_events: bool = False,
    record: bool = False,
    checkpoint: dict | None = None,
    resume: str | None = None,
) -> ShardResult:
    """Run one sharded simulation end to end and merge the results.

    ``plan`` fixes the semantics (partition count, ownership);
    ``workers`` (default: one per partition) and ``executor``
    (``"inline"`` threads or ``"mp"`` processes) fix only how the
    partitions are hosted — results are byte-identical either way.

    ``builder(ctx, *builder_args)`` attaches the workload through a
    :class:`~repro.sim.shard.worker.WorkerContext`; it runs SPMD-style
    on every worker and must make the identical call sequence (the
    ``mp`` executor additionally needs it picklable, e.g. module-level,
    under a spawn start method).  ``base`` is the machine class
    (default :class:`~repro.sim.mta_engine.MTAMachine`) and ``params``
    its construction overrides.

    Before any worker starts, one reference machine is built here from
    ``base``/``params``/``remote_latency``, so a bad configuration
    raises :class:`~repro.errors.ConfigurationError` in the caller.
    With more than one partition, timing needs the flat hashed-memory
    model: a machine's default banks (``mta-next``) are dropped and an
    explicit ``n_banks`` is rejected.  ``remote_latency`` defaults to
    the machine's ``mem_latency``.

    ``checkpoint`` is ``{"dir": path, "every": cycles[, "stop_after":
    n]}``: coordinated consistent-cut snapshots land in ``dir`` (one
    pickle per shard plus ``manifest.json``); ``stop_after`` pauses the
    run via :class:`~repro.errors.RunPaused` after that many
    checkpoints.  ``resume`` restores from such a directory (same plan
    and worker count required) and continues to the identical result.
    """
    if executor not in _EXECUTORS:
        raise ConfigurationError(
            f"unknown shard executor {executor!r}; expected one of"
            f" {sorted(_EXECUTORS)}"
        )
    W = workers if workers is not None else plan.k
    parts = assign_workers(plan.k, W)
    if checkpoint is not None:
        if not checkpoint.get("dir") or not checkpoint.get("every"):
            raise ConfigurationError(
                "shard checkpoint config needs 'dir' and 'every'"
            )
        record = True
    params = dict(params or {})
    if plan.k > 1:
        # flat memory: drop a default bank model; explicit banks the
        # machine itself rejects
        params.setdefault("n_banks", 0)
    remote_latency = sharded_machine(base or MTAMachine)(
        plan=plan, part_lo=0, part_hi=plan.k,
        remote_latency=remote_latency, **params,
    ).remote_latency

    resumed_cycle = 0
    states = None
    resumed = None
    if resume is not None:
        manifest = load_manifest(resume)
        if manifest["plan"] != _json_sig(plan):
            raise CheckpointError(
                "checkpoint manifest was written for a different partition plan"
            )
        if manifest["workers"] != W:
            raise CheckpointError(
                f"checkpoint has {manifest['workers']} shard snapshots;"
                f" resume needs the same worker count, got {W}"
            )
        states = _load_states(resume, manifest)
        resumed_cycle = manifest["cycle"]
        resumed = manifest["coordinator"]
        name = manifest["name"]

    specs = []
    for w in range(W):
        spec = {
            "w": w,
            "plan": plan,
            "parts": parts[w],
            "base": base,
            "params": params,
            "remote_latency": remote_latency,
            "builder": builder,
            "builder_args": tuple(builder_args),
            "name": name,
            "budget": budget,
            "tier": tier,
            "record": record,
            "every": (checkpoint or {}).get("every"),
            "collect_events": collect_events,
        }
        if states is not None:
            spec["resume_state"] = states[w]
        specs.append(spec)

    meta = {
        "name": name,
        "plan": _json_sig(plan),
        "k": plan.k,
        "workers": W,
        "remote_latency": remote_latency,
        "every": (checkpoint or {}).get("every"),
    }
    coord = _Coordinator(
        _EXECUTORS[executor](specs),
        plan,
        parts,
        remote_latency=remote_latency,
        checkpoint=checkpoint,
        resumed_cycle=resumed_cycle,
        meta=meta,
        resumed=resumed,
    )
    coord.gather_hellos()
    if plan.k == 1:
        coord.run_single()
    else:
        coord.run_rounds()
    fins = coord.gather_fins()

    reports = [f["report"] for f in fins]
    report = reports[0] if plan.k == 1 else _merge_reports(reports)
    values: dict = {}
    counters: dict = {}
    full: dict = {}
    for f in fins:
        values.update(f["values"])
        counters.update(f["counters"])
        full.update(f["full"])
    events = None
    if collect_events:
        events = sorted(e for f in fins for e in (f["events"] or []))
    detail = {
        "k": plan.k,
        "workers": W,
        "rounds": coord.rounds,
        "msgs_routed": coord.msgs_routed,
        "msgs_sent": sum(f["msgs_sent"] for f in fins),
        "msgs_processed": sum(f["msgs_processed"] for f in fins),
        "checkpoints": coord.ckpts_taken,
        "per_shard": [
            {
                "worker": f["w"],
                "cycles": f["cycles"],
                "msgs_sent": f["msgs_sent"],
                "msgs_processed": f["msgs_processed"],
            }
            for f in fins
        ],
    }
    return ShardResult(
        report=report,
        values=values,
        counters=counters,
        full=full,
        detail=detail,
        events=events,
        reports=reports,
    )


def _json_sig(plan: PartitionPlan) -> list:
    """The plan signature in JSON-stable form (tuples become lists)."""
    return [
        "plan",
        plan.n_words,
        plan.p,
        plan.k,
        list(plan.addr_bounds),
        list(plan.proc_bounds),
    ]
