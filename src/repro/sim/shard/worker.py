"""Shard worker: one :class:`~repro.sim.kernel.SimKernel` per process.

A worker hosts a contiguous block of partitions, builds a sharded
machine plus kernel over exactly those processors, attaches the
workload through a :class:`WorkerContext`, and then runs the kernel
with a *service callback* that implements the worker half of the
conservative time-window protocol (see ``coordinator.py`` for the
global half and ``docs/SHARDING.md`` for the theory):

* simulate freely while ``cycle < stop`` where ``stop`` is the minimum
  of the coordinator-granted horizon, the local barrier ceiling, and
  the next checkpoint boundary;
* at ``stop``, exchange a *round* with the coordinator: flush the
  outbox and barrier arrivals, report progress (and parked-ness, for
  the coordinator's lower-bound ratchet), receive routed messages,
  barrier releases, a new horizon, and possibly a checkpoint/stop/abort
  directive;
* once the local kernel finishes, keep participating in rounds in
  *drain* mode — applying arrivals up to each granted horizon — until
  the coordinator declares global termination.

Rounds are globally synchronized (every worker sends exactly one
bundle per round and blocks for the coordinator's reply), which is
what makes message routing deterministic and the merged result
byte-identical for any worker count.
"""

from __future__ import annotations

import traceback

from ...errors import RunPaused
from ..kernel import SimKernel
from ..mta_engine import MTAMachine
from .channel import ChannelClosed, Endpoint
from .eventlog import ShardEventLog
from .machine import sharded_machine
from .partition import PartitionPlan

__all__ = ["ShardWorker", "WorkerContext", "worker_main"]

#: Stand-in for "no horizon" when draining a finished worker with no peers.
_FOREVER = 1 << 62


class _Aborted(Exception):
    """Coordinator told this worker to stop; the failure is reported
    elsewhere, so the worker exits silently."""


class WorkerContext:
    """The workload-facing view a builder uses to populate one worker.

    Builders run SPMD-style: the *same* builder executes on every
    worker with the same arguments, makes the same sequence of calls,
    and the context routes each call to this worker's kernel or drops
    it (setup owned elsewhere).  ``spawn`` must be called for every
    global thread in the same order on every worker — that global
    order defines thread identity across the run.
    """

    def __init__(self, kernel: SimKernel, machine, worker_index: int):
        self.kernel = kernel
        self.machine = machine
        self.worker_index = worker_index
        self.plan = machine.plan
        self.part_lo = machine.part_lo
        self.part_hi = machine.part_hi
        self.proc_offset = machine.proc_offset
        self.local_p = machine.p
        #: global tid -> local tid for threads this worker hosts
        self.tid_map: dict[int, int] = {}
        self._next_global_tid = 0

    # -- ownership ---------------------------------------------------------------

    def owns_proc(self, proc: int) -> bool:
        part = self.plan.partition_of_proc(proc)
        return self.part_lo <= part < self.part_hi

    def owns_addr(self, addr: int) -> bool:
        owner = self.plan.owner_of(addr)
        return self.part_lo <= owner < self.part_hi

    # -- workload attachment -----------------------------------------------------

    def spawn(self, gen, proc: int):
        """Attach a thread at *global* processor ``proc``.

        Returns the local :class:`~repro.sim.thread.SimThread` when this
        worker owns the processor, else None (the generator is simply
        dropped — another worker hosts it).
        """
        gtid = self._next_global_tid
        self._next_global_tid += 1
        if not self.owns_proc(proc):
            return None
        t = self.kernel.add_thread(gen, proc - self.proc_offset)
        self.tid_map[gtid] = t.tid
        return t

    def register_barrier(self, bid: str, count: int) -> None:
        """Register a barrier with its *global* participant count."""
        if self.plan.k == 1:
            self.kernel.register_barrier(bid, count)
        else:
            self.machine.register_global_barrier(bid, count)
            self.kernel.note_setup(f"GB{bid}:{count}")

    def set_counter(self, addr: int, value: int = 0) -> None:
        if self.owns_addr(addr):
            self.kernel.set_counter(addr, value)

    def set_full(self, addr: int, value=0) -> None:
        if self.owns_addr(addr):
            self.kernel.set_full(addr, value)

    def set_value(self, addr: int, value) -> None:
        """Pre-set an engine-owned ``GV``/``PV`` value word."""
        if self.owns_addr(addr):
            self.machine.init_value(addr, value)
            self.kernel.note_setup(f"V{addr}:{value!r}")


class ShardWorker:
    """Executes one worker's share of a sharded run over an endpoint.

    Built from a ``spec`` dict, which crosses the process boundary
    under the ``mp`` executor.  Spec keys: ``w`` (worker index),
    ``plan``, ``parts`` ``(lo, hi)``,
    ``base`` (machine class, default :class:`MTAMachine`), ``params``
    (machine kwargs), ``remote_latency``, ``builder``/``builder_args``,
    ``name``, ``budget``, ``tier``, ``record``, ``every`` (checkpoint
    cadence), ``resume_state``, ``collect_events``.
    """

    def __init__(self, spec: dict, endpoint: Endpoint):
        self.spec = spec
        self.ep = endpoint
        self.w = spec["w"]
        self._build()
        self.plan = self.machine.plan
        self._round_no = 0
        self._horizon: int | None = -1  # unknown: round at the first service point
        self._bar_stop: int | None = None  # coordinator's barrier-release bound
        self._ckpt_cap: int | None = None
        self._stopped = False
        self._end_cycle = 0
        self._budget = spec.get("budget") or self.machine.default_budget

    def _build(self) -> None:
        spec = self.spec
        plan: PartitionPlan = spec["plan"]
        lo, hi = spec["parts"]
        cls = sharded_machine(spec.get("base") or MTAMachine)
        machine = cls(
            plan=plan,
            part_lo=lo,
            part_hi=hi,
            remote_latency=spec.get("remote_latency"),
            **(spec.get("params") or {}),
        )
        kernel = SimKernel(machine, record=bool(spec.get("record")))
        eventlog = None
        if spec.get("collect_events"):
            eventlog = ShardEventLog(proc_offset=machine.proc_offset)
            kernel.bus.add(eventlog)
        self.machine, self.kernel, self.eventlog = machine, kernel, eventlog
        ctx = WorkerContext(kernel, machine, self.w)
        spec["builder"](ctx, *spec.get("builder_args", ()))
        if eventlog is not None and ctx.tid_map:
            # derive the local->global map from spawn order
            inv = [None] * len(ctx.tid_map)
            for gtid, ltid in ctx.tid_map.items():
                inv[ltid] = gtid
            eventlog.tid_map = inv

    # -- top level ---------------------------------------------------------------

    def run(self) -> None:
        try:
            state = self.spec.get("resume_state")
            if state is not None:
                self.kernel.resume(state)
            self._send_hello(resumed=state is not None)
            if self.plan.k == 1:
                report = self._run_single()
            else:
                report = self._run_protocol()
            self._send_fin(report)
        except _Aborted:
            pass
        except ChannelClosed:
            pass
        except RunPaused:
            self._safe_send({"kind": "paused", "w": self.w})
        except BaseException as exc:  # noqa: BLE001 - forwarded to coordinator
            self._safe_send(
                {
                    "kind": "error",
                    "w": self.w,
                    "etype": type(exc).__name__,
                    "message": str(exc),
                    "trace": traceback.format_exc(),
                }
            )

    def _safe_send(self, obj) -> None:
        try:
            self.ep.send(obj)
        except ChannelClosed:
            pass

    def _send_hello(self, *, resumed: bool) -> None:
        m = self.machine
        self.ep.send(
            {
                "kind": "hello",
                "w": self.w,
                "parts": (m.part_lo, m.part_hi),
                "digest": self.kernel.setup_digest,
                "barriers": dict(m.gbar_needs),
                "cost": m.barrier_release_cost(),
                "resumed": resumed,
            }
        )

    def _send_fin(self, report) -> None:
        m = self.machine
        # remote requests served while draining (after the local kernel
        # finished) mutate the contention counters: re-snapshot the
        # machine detail so the merged report sees owner-side work
        # regardless of which worker hosted the requesting thread
        report.detail = m.report_detail(self.kernel)
        self.ep.send(
            {
                "kind": "fin",
                "w": self.w,
                "report": report,
                "events": self.eventlog.canonical() if self.eventlog else None,
                "values": dict(m.values),
                "counters": dict(m.fa_values),
                "full": dict(m._full),
                "msgs_sent": m.msgs_sent,
                "msgs_processed": m.msgs_processed,
                "cycles": report.cycles,
            }
        )

    # -- single-partition passthrough (k == 1) -----------------------------------

    def _run_single(self):
        """One partition: the machine degenerates to its base semantics
        and the plain kernel runs with no service hook, so the result is
        trivially byte-identical to an unsharded run.  Checkpoints (if
        any) round-trip through the coordinator as state messages."""
        spec = self.spec
        kwargs = {}
        if spec.get("every"):
            kwargs = {
                "checkpoint_every": spec["every"],
                "checkpoint_sink": self._single_sink,
            }
        return self.kernel.run(
            spec.get("name", "run"),
            spec.get("budget"),
            tier=spec.get("tier"),
            **kwargs,
        )

    def _single_sink(self, state) -> bool:
        self.ep.send({"kind": "state", "w": self.w, "state": state})
        reply = self.ep.recv()
        if reply.get("op") == "abort":
            raise _Aborted(reply.get("reason", ""))
        return bool(reply.get("stop"))

    # -- conservative-window protocol (k > 1) ------------------------------------

    def _run_protocol(self):
        spec = self.spec
        every = spec.get("every")
        state = spec.get("resume_state")
        if state is not None:
            # continue inside the grant of the round that checkpointed,
            # exactly as the uninterrupted run does
            self._horizon = state["progress"]["horizon"]
            self._bar_stop = state["progress"]["bar_stop"]
        if every:
            cycle0 = state["progress"]["cycle"] if state is not None else 0
            self._ckpt_cap = (cycle0 // every + 1) * every
        report = self.kernel.run(
            spec.get("name", "run"),
            spec.get("budget"),
            tier=spec.get("tier"),
            service=self._service,
        )
        self._end_cycle = report.cycles
        self._drain()
        return report

    def _stop_bound(self) -> int | None:
        """Latest cycle the kernel may *reach* before the next round
        (None = unbounded: no peers, no barrier waiters, no cap)."""
        cands = []
        if self._horizon is not None:
            cands.append(self._horizon)
        ceil = self.machine.barrier_ceiling()
        if ceil is not None:
            cands.append(ceil)
        if self._bar_stop is not None:
            cands.append(self._bar_stop)
        if self._ckpt_cap is not None:
            cands.append(self._ckpt_cap)
        return min(cands) if cands else None

    def _runnable(self) -> bool:
        for pr in self.kernel.procs:
            if pr.ready or pr.wake:
                return True
        return False

    def _service(self, cycle: int) -> int:
        m, kern = self.machine, self.kernel
        m.process_arrivals(kern, cycle)
        stop = self._stop_bound()
        while stop is not None and cycle >= stop:
            self._round(cycle, done=False)
            m.process_arrivals(kern, cycle)
            stop = self._stop_bound()
        # Unbounded horizon with staged messages: flush now.  The
        # coordinator sees the traffic and re-bounds us below the reply
        # stamps (bounded windows flush at their stop round instead).
        if stop is None and m.outbox:
            self._round(cycle, done=False)
            m.process_arrivals(kern, cycle)
            stop = self._stop_bound()
        # Unbounded but stuck (nothing issuable, nothing pending): keep
        # exchanging rounds — a peer's message or release will arrive,
        # or the coordinator diagnoses global deadlock and aborts.
        while (
            stop is None
            and not self._runnable()
            and m.next_arrival() is None
        ):
            self._round(cycle, done=False)
            m.process_arrivals(kern, cycle)
            stop = self._stop_bound()
        nxt = m.next_arrival()
        cands = [c for c in (stop, nxt) if c is not None]
        cands.append(self._budget + 1)  # let the kernel's watchdog fire
        tgt = min(cands)
        return tgt if tgt > cycle else cycle + 1

    def _parked_info(self, cycle: int):
        """None when something can issue at ``cycle``; otherwise the
        earliest cycle local state alone could make progress (wake heap
        or already-delivered arrival), or None inside the dict when
        only external input can wake this worker."""
        wake_min = None
        for pr in self.kernel.procs:
            if pr.ready:
                return None
            if pr.wake:
                wm = pr.wake[0][0]
                if wake_min is None or wm < wake_min:
                    wake_min = wm
        if wake_min is not None and wake_min <= cycle:
            return None
        pend = self.machine.next_arrival()
        if pend is not None and pend <= cycle:
            return None
        nl = [x for x in (wake_min, pend) if x is not None]
        return {"next_local": min(nl) if nl else None}

    def _round(self, cycle: int, *, done: bool) -> None:
        m, kern = self.machine, self.kernel
        msgs = m.outbox
        m.outbox = []
        bars = m.drain_barrier_arrivals()
        parked = None if done else self._parked_info(cycle)
        bundle = {
            "kind": "bundle",
            "w": self.w,
            "round": self._round_no,
            "now": None if done else cycle,
            "live": kern._live,
            "pending": m.next_arrival(),
            "msgs": msgs,
            "bars": bars,
            "parked": parked,
        }
        if done or parked is not None:
            bundle["rows"] = m.blocked_rows()
        self.ep.send(bundle)
        reply = self.ep.recv()
        if reply.get("op") == "abort":
            raise _Aborted(reply.get("reason", ""))
        if reply.get("round") != self._round_no:
            raise AssertionError(
                f"worker {self.w}: round skew (sent {self._round_no},"
                f" got {reply.get('round')})"
            )
        self._round_no += 1
        m.deliver(reply["msgs"])
        for bid, release in reply["releases"]:
            m.apply_barrier_release(kern, bid, release)
        self._horizon = reply["horizon"]
        self._bar_stop = reply.get("bar_stop")
        op = reply.get("op")
        if op == "checkpoint":
            self._checkpoint(cycle, stop=bool(reply.get("stop")))
        elif op == "stop":
            self._stopped = True

    def _checkpoint(self, cycle: int, *, stop: bool) -> None:
        kern = self.kernel
        state = kern.snapshot({
            "cycle": cycle,
            "last_issue": kern._last_issue,
            "horizon": self._horizon,
            "bar_stop": self._bar_stop,
        })
        self.ep.send({"kind": "state", "w": self.w, "state": state})
        every = self.spec["every"]
        self._ckpt_cap = (cycle // every + 1) * every
        if stop:
            raise RunPaused(
                f"sharded worker {self.w} paused at cycle {cycle}", state=state
            )

    def _drain(self) -> None:
        """Local kernel finished: keep serving remote requests (and the
        round protocol) until the coordinator declares the run over."""
        m, kern = self.machine, self.kernel
        while not self._stopped:
            lim = self._horizon
            if lim is None:
                lim = _FOREVER
            m.process_arrivals(kern, lim)
            self._round(self._end_cycle, done=True)


def worker_main(endpoint: Endpoint, spec: dict) -> None:
    """Process entry point: run one worker over ``endpoint``, then close."""
    try:
        ShardWorker(spec, endpoint).run()
    finally:
        endpoint.close()


def _mp_main(conn, spec: dict) -> None:  # pragma: no cover - child process
    """``multiprocessing.Process`` target (module-level for spawn)."""
    worker_main(Endpoint(conn.send, conn.recv, conn.close), spec)
