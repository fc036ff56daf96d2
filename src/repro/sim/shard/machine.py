"""The sharded machine model: remote-operation forwarding as a kernel plug-in.

:func:`sharded_machine` wraps any interleaved machine of the
:class:`~repro.sim.mta_engine.MTAMachine` family in a
:class:`ShardMixin` subclass.  Each worker kernel runs one such model
over the processors of its hosted partitions; the mixin decides, per
issued op, whether the referenced word is *local* (owned by the issuing
processor's partition — the base machine's handler runs untouched) or
*remote*:

* plain ``L``/``S``/``LD`` — charged the flat ``remote_latency`` at the
  requester; no message (plain ops carry no engine-owned value, so the
  owner has no state to consult — the flat-latency analogue of the
  MTA's hashed memory, one level up).
* ``FA``/``SLE``/``SLF``/``SSF``/``GV`` — forwarded to the owner as a
  cycle-stamped request; the owner applies the base machine's exact
  semantics at the arrival cycle (requests arriving together are served
  in ``(src_partition, seq)`` order, before any local issue of that
  cycle) and the reply unblocks the requester ``remote_latency`` cycles
  after the owner-side completion.
* ``PV`` — forwarded fire-and-forget; buffered-store timing at the
  requester, value applied at the owner in arrival order.
* ``B`` — barriers span every partition: arrivals are reported to the
  coordinator, which releases at ``max(arrival) + barrier_latency``
  once all registered participants (summed across workers) arrive —
  the exact single-kernel formula.

With a single partition every op is local, the kernel's own barrier
path is used, and the model degenerates to the base machine exactly —
``shards=1`` is byte-identical to the unsharded kernel by construction.

Determinism does not depend on which worker hosts which partition:
messages between two partitions hosted by the *same* worker still go
through the same stamped-and-sorted pending queue (short-circuited
locally instead of routed through the coordinator), so any worker
count yields the same simulation.  See ``docs/SHARDING.md``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from ...errors import ConfigurationError, SimulationError
from ..isa import (
    FETCH_ADD,
    GET_VALUE,
    LOAD,
    LOAD_DEP,
    PUT_VALUE,
    STORE,
    SYNC_LOAD_EMPTY,
    SYNC_LOAD_FULL,
    SYNC_STORE_FULL,
)
from ..mta_engine import MTAMachine
from ..thread import SimThread, WAIT_BARRIER, WAIT_REMOTE
from .channel import (
    M_FA,
    M_GET,
    M_PUT,
    M_REPLY,
    M_SYNC_LOAD,
    M_SYNC_STORE,
    msg_sort_key,
)
from .partition import PartitionPlan

__all__ = ["ShardMixin", "sharded_machine", "RemoteWaiter"]


@dataclass
class RemoteWaiter:
    """A remote thread parked in an owner-side full/empty FIFO queue.

    Stands in for the requester in the owner's ``_wait_full`` /
    ``_wait_empty`` queues; when the word transitions, the owner sends a
    reply instead of waking a local thread.  ``tid`` is a sentinel so
    shared bookkeeping that reads ``.tid`` never crashes; serialization
    encodes waiters explicitly.
    """

    rid: int
    src_partition: int
    payload: object  # sync-load mode tag, or the sync-store value
    wait_since: int
    tid: int = -1


class ShardMixin:
    """Sharding behavior layered over an interleaved base machine.

    The mixin adds routing only: the owner check, message posting and
    the remote proxies.  Every memory rule (fetch-add serialization,
    full/empty fill and drain, the lookahead bookkeeping of a
    non-blocking ref) is the base machine's own; for a
    :class:`RemoteWaiter` the owner's wakeup sends a reply instead.

    Keyword parameters (consumed before the base constructor runs):

    ``plan``
        The :class:`~repro.sim.shard.partition.PartitionPlan`.
    ``part_lo`` / ``part_hi``
        Hosted partition range ``[lo, hi)``; the base machine is built
        with ``p = plan.proc_range`` width of that range.
    ``remote_latency``
        Cycles a message takes between partitions (the conservative
        lookahead).  Defaults to the base machine's ``mem_latency``.
    """

    def __init__(self, p=None, *, plan: PartitionPlan, part_lo: int,
                 part_hi: int, remote_latency: int | None = None, **params):
        if not 0 <= part_lo < part_hi <= plan.k:
            raise ConfigurationError(
                f"hosted partition range [{part_lo}, {part_hi}) outside"
                f" [0, {plan.k})"
            )
        qlo = plan.proc_bounds[part_lo]
        qhi = plan.proc_bounds[part_hi]
        local_p = qhi - qlo
        if p is not None and p != local_p:
            raise ConfigurationError(
                f"p={p} does not match the hosted partitions' {local_p} procs"
            )
        super().__init__(local_p, **params)
        if plan.k > 1 and getattr(self, "n_banks", 0):
            raise ConfigurationError(
                "bank modeling (n_banks) is not supported with more than one"
                " partition: remote plain references are charged flat latency"
                " with no owner-side bank state"
            )
        if plan.k > 1 and self.barrier_release_cost() < 1:
            raise ConfigurationError(
                "sharded barriers need barrier_latency >= 1: the release "
                "bound the coordinator feeds back to stalled workers "
                "advances by at least the release cost per round"
            )
        self.plan = plan
        self.part_lo = part_lo
        self.part_hi = part_hi
        self.proc_offset = qlo
        self.remote_latency = (
            int(remote_latency) if remote_latency is not None else self.mem_latency
        )
        if self.remote_latency < 1:
            raise ConfigurationError("remote_latency must be >= 1")
        #: local proc index -> owning partition id
        self._proc_part = [
            plan.partition_of_proc(qlo + i) for i in range(local_p)
        ]
        # engine-owned value store (GV/PV words)
        self.values: dict[int, object] = {}
        # outgoing messages staged for the next exchange round
        self.outbox: list[tuple] = []  # nostate: to_state rejects undrained outboxes
        # incoming messages not yet due: heap of (sort_key, msg)
        self._pending: list = []
        # per-source-partition sequence numbers for outgoing stamps
        self._seq: dict[int, int] = {}
        # reply routing: rid -> (tid, tag, addr, issue_cycle)
        self._rid = 0
        self._waiting_reply: dict[int, tuple] = {}
        # coordinator-mediated barriers (plan.k > 1 only)
        self.gbar_needs: dict[str, int] = {}  # nostate: re-registered at setup on restore
        self._gbar_waiting: dict[str, list] = {}
        self._gbar_local_max: dict[str, int] = {}
        self._gbar_arrivals: list[tuple] = []  # nostate: staged per round; empty at snapshot
        # shard traffic counters (never in SimReport.detail — surfaced
        # via ShardResult/RunSummary.detail["shard"] instead)
        self.msgs_sent = 0
        self.msgs_processed = 0
        # bound by handlers(); lets _post pull the service point forward
        self._kernel = None  # nostate: rebound when handlers() is called

    # -- kernel protocol overrides ----------------------------------------------

    @property
    def owns_barriers(self) -> bool:
        """Multi-partition barriers span workers; single-partition runs
        keep the kernel's own (byte-identical) barrier path."""
        return self.plan.k > 1

    def init_counter(self, addr: int, value: int) -> None:
        self._check_owned(addr, "fetch-add cell")
        super().init_counter(addr, value)

    def init_full(self, addr: int, value) -> None:
        self._check_owned(addr, "full/empty word")
        super().init_full(addr, value)

    def init_value(self, addr: int, value) -> None:
        """Pre-set an engine-owned value word (``GV``/``PV``)."""
        self._check_owned(addr, "value word")
        self.values[int(addr)] = value

    def register_global_barrier(self, bid: str, need: int) -> None:
        """Declare a cross-partition barrier's *global* participant count."""
        if need < 1:
            raise ConfigurationError("barrier count must be >= 1")
        self.gbar_needs[bid] = int(need)

    def _check_owned(self, addr: int, what: str) -> None:
        owner = self.plan.owner_of(addr)
        if not self.part_lo <= owner < self.part_hi:
            raise ConfigurationError(
                f"cannot initialize a {what} at address {addr}: it is owned"
                f" by partition {owner}, not by this worker's"
                f" [{self.part_lo}, {self.part_hi})"
            )

    # -- message plumbing ---------------------------------------------------------

    def _stamp(self, src_partition: int) -> int:
        seq = self._seq.get(src_partition, 0)
        self._seq[src_partition] = seq + 1
        return seq

    def _post(self, kind: str, src_partition: int, arrival: int,
              dst_partition: int, *operands) -> None:
        """Stage an outgoing message; self-addressed traffic (both
        partitions hosted here) short-circuits into the pending queue
        with an identical stamp, so hosting never changes drain order."""
        msg = (kind, arrival, src_partition, self._stamp(src_partition),
               dst_partition, *operands)
        self.msgs_sent += 1
        if self.part_lo <= dst_partition < self.part_hi:
            heapq.heappush(self._pending, (msg_sort_key(msg), msg))
        else:
            self.outbox.append(msg)
        # pull the next service point forward to the arrival: a local
        # message posted mid-window must be applied at exactly its stamp,
        # and an outgoing one must leave the outbox (flushed at service
        # points) before this kernel's clock runs past the round trip
        # its requester is parked on
        kernel = self._kernel
        if kernel is not None and (
            kernel.service_wake is None or arrival < kernel.service_wake
        ):
            kernel.service_wake = arrival

    def deliver(self, msgs) -> None:
        """Accept routed messages from the coordinator (any order)."""
        for msg in msgs:
            heapq.heappush(self._pending, (msg_sort_key(msg), msg))

    def next_arrival(self):
        """Earliest pending arrival cycle, or None."""
        return self._pending[0][0][0] if self._pending else None

    def barrier_ceiling(self):
        """Latest cycle this worker may reach before it must exchange a
        round, on account of barrier arrivals the coordinator has not
        seen yet: a release can land as early as such an arrival plus
        the release cost.  Only *staged* (unreported) arrivals bind —
        once reported, the coordinator's per-round ``bar_stop`` bound
        takes over and ratchets upward as other workers advance."""
        if not self._gbar_arrivals:
            return None
        cost = self.barrier_release_cost()
        return min(cycle for _, cycle in self._gbar_arrivals) + cost

    # -- arrival processing (runs from the kernel's service hook) -----------------

    def process_arrivals(self, kernel, cycle: int) -> None:
        """Apply every pending message with ``arrival <= cycle``.

        The conservative protocol guarantees messages are delivered
        before the local clock crosses their stamp, so in live workers
        this fires at exactly the arrival cycle; a drained (finished)
        worker applies whole windows at once.
        """
        pending = self._pending
        while pending and pending[0][0][0] <= cycle:
            _, msg = heapq.heappop(pending)
            self.msgs_processed += 1
            self._apply(kernel, msg)

    def _apply(self, kernel, msg: tuple) -> None:
        kind, arrival = msg[0], msg[1]
        if kind == M_REPLY:
            self._apply_reply(kernel, msg)
            return
        src, owner = msg[2], msg[4]
        if kind == M_FA:
            addr, inc, rid = msg[5], msg[6], msg[7]
            old, done, _ = self._fetch_add(addr, inc, arrival)
            self._reply(owner, src, rid, old, done + self.remote_latency)
        elif kind == M_GET:
            addr, rid = msg[5], msg[6]
            self._reply(owner, src, rid, self.values.get(addr),
                        arrival + self.mem_latency + self.remote_latency)
        elif kind == M_PUT:
            addr, value = msg[5], msg[6]
            self.values[addr] = value
        elif kind == M_SYNC_LOAD:
            addr, mode, rid = msg[5], msg[6], msg[7]
            full = self._full
            if addr in full:
                value = full[addr]
                if mode == SYNC_LOAD_EMPTY:
                    del full[addr]
                    self._drain_empty_waiters(kernel, addr, arrival)
                self._reply(owner, src, rid, value,
                            arrival + self.mem_latency + self.remote_latency)
            else:
                q = self._wait_full.get(addr)
                if q is None:
                    q = self._wait_full[addr] = deque()
                q.append(RemoteWaiter(rid, src, mode, arrival))
        elif kind == M_SYNC_STORE:
            addr, value, rid = msg[5], msg[6], msg[7]
            if addr not in self._full:
                self._fill(kernel, addr, value, arrival)
                self._reply(owner, src, rid, None,
                            arrival + self.mem_latency + self.remote_latency)
            else:
                q = self._wait_empty.get(addr)
                if q is None:
                    q = self._wait_empty[addr] = deque()
                q.append(RemoteWaiter(rid, src, value, arrival))
        else:  # pragma: no cover - protocol bug guard
            raise SimulationError(f"unknown shard message kind {kind!r}")

    def _reply(self, owner_partition: int, dst_partition: int, rid: int,
               value, unblock: int) -> None:
        # stamped with the *owning* partition as source, never the worker:
        # drain order must not depend on which process hosts the owner
        self._post(M_REPLY, owner_partition, unblock, dst_partition, rid, value)

    def _apply_reply(self, kernel, msg: tuple) -> None:
        unblock, rid, value = msg[1], msg[5], msg[6]
        entry = self._waiting_reply.pop(rid, None)
        if entry is None:  # pragma: no cover - protocol bug guard
            raise SimulationError(f"reply for unknown request id {rid}")
        tid, tag, addr, issue = entry
        t = kernel.threads[tid]
        # the semantic moment is observed requester-side on completion
        h_span = kernel._h_span
        if h_span is not None:
            for fn in h_span:
                fn(tag, issue, unblock, t.proc, t.tid, {"addr": addr})
        if tag in (SYNC_LOAD_EMPTY, SYNC_LOAD_FULL, SYNC_STORE_FULL):
            h_sync = kernel._h_sync
            if h_sync is not None:
                rw = "write" if tag == SYNC_STORE_FULL else "read"
                consume = tag == SYNC_LOAD_EMPTY
                for fn in h_sync:
                    fn(t.tid, addr, rw, consume)
        if tag != SYNC_STORE_FULL:
            t.pending_value = value
        kernel.block_until(t, unblock)

    # -- owner-side full/empty wakeups of remote proxies -----------------------

    def _wake_reader(self, kernel, w, addr: int, value, cycle: int) -> bool:
        if not isinstance(w, RemoteWaiter):
            return super()._wake_reader(kernel, w, addr, value, cycle)
        self._fe_wait(w.wait_since, cycle)
        self._reply(self.plan.owner_of(addr), w.src_partition, w.rid, value,
                    cycle + self.mem_latency + self.remote_latency)
        return w.payload == SYNC_LOAD_EMPTY

    def _wake_writer(self, kernel, w, addr: int, cycle: int):
        if not isinstance(w, RemoteWaiter):
            return super()._wake_writer(kernel, w, addr, cycle)
        self._fe_wait(w.wait_since, cycle)
        self._reply(self.plan.owner_of(addr), w.src_partition, w.rid, None,
                    cycle + self.mem_latency + self.remote_latency)
        return w.payload

    # -- coordinator-mediated barriers --------------------------------------------

    def barrier_op(self, kernel, t: SimThread, bid: str, cycle: int) -> None:
        if bid not in self.gbar_needs:
            raise SimulationError(f"barrier {bid!r} was never registered")
        t.state = WAIT_BARRIER
        t.wait_since = cycle
        t.wait_key = bid
        self._gbar_waiting.setdefault(bid, []).append(t)
        prev = self._gbar_local_max.get(bid)
        if prev is None or cycle > prev:
            self._gbar_local_max[bid] = cycle
        self._gbar_arrivals.append((bid, cycle))
        # the release could land as early as cycle + cost, which may be
        # before the granted horizon: pull the next service point forward
        # so the arrival is reported (and the bound enforced) in time
        due = cycle + self.barrier_release_cost()
        if kernel.service_wake is None or due < kernel.service_wake:
            kernel.service_wake = due

    def drain_barrier_arrivals(self) -> list:
        out = self._gbar_arrivals
        self._gbar_arrivals = []
        return out

    def apply_barrier_release(self, kernel, bid: str, release: int) -> None:
        """Wake local waiters of ``bid`` at the coordinator-computed
        release cycle, through the kernel's own release path."""
        waiting = self._gbar_waiting.get(bid) or []
        self._gbar_waiting[bid] = []
        if waiting:
            kernel.release_barrier(bid, waiting, release)

    # -- dispatch table ------------------------------------------------------------

    def handlers(self, kernel) -> dict:
        self._kernel = kernel
        base = super().handlers(kernel)
        mem_latency = self.mem_latency
        values = self.values

        def flat(addr, cycle):
            return cycle + mem_latency

        ref_local = self._ref_handler(kernel, flat)
        dep_local = self._dep_handler(kernel, flat)

        def gv_local(proc, t, op, cycle):
            t.pending_value = values.get(op[1])
            dep_local(proc, t, op, cycle)

        def pv_local(proc, t, op, cycle):
            values[op[1]] = op[2]
            ref_local(proc, t, op, cycle)

        base[GET_VALUE] = gv_local
        base[PUT_VALUE] = pv_local
        if self.plan.k == 1:
            return base  # single partition: the base machine, exactly

        owner_of = self.plan.owner_of
        proc_part = self._proc_part
        R = self.remote_latency
        post = self._post
        waiting_reply = self._waiting_reply

        def remote(addr, cycle):
            return cycle + R

        # plain refs carry no engine-owned value: flat remote latency
        remote_plain = self._ref_handler(kernel, remote)
        remote_ld = self._dep_handler(kernel, remote)

        def park(t, tag, addr, cycle):
            rid = self._rid
            self._rid = rid + 1
            waiting_reply[rid] = (t.tid, tag, addr, cycle)
            t.state = WAIT_REMOTE
            t.wait_since = cycle
            return rid

        def route(local_handler, remote_handler):
            def dispatch(proc, t, op, cycle):
                if owner_of(op[1]) == proc_part[t.proc]:
                    local_handler(proc, t, op, cycle)
                else:
                    remote_handler(proc, t, op, cycle)
            return dispatch

        def remote_fa(proc, t, op, cycle):
            addr = op[1]
            inc = op[2] if len(op) > 2 else 1
            rid = park(t, FETCH_ADD, addr, cycle)
            post(M_FA, proc_part[t.proc], cycle + R, owner_of(addr),
                 addr, inc, rid)

        def remote_sync_load(proc, t, op, cycle):
            addr = op[1]
            rid = park(t, op[0], addr, cycle)
            post(M_SYNC_LOAD, proc_part[t.proc], cycle + R, owner_of(addr),
                 addr, op[0], rid)

        def remote_sync_store(proc, t, op, cycle):
            addr = op[1]
            rid = park(t, SYNC_STORE_FULL, addr, cycle)
            post(M_SYNC_STORE, proc_part[t.proc], cycle + R, owner_of(addr),
                 addr, op[2], rid)

        def remote_gv(proc, t, op, cycle):
            addr = op[1]
            rid = park(t, GET_VALUE, addr, cycle)
            post(M_GET, proc_part[t.proc], cycle + R, owner_of(addr),
                 addr, rid)

        def remote_pv(proc, t, op, cycle):
            addr = op[1]
            post(M_PUT, proc_part[t.proc], cycle + R, owner_of(addr),
                 addr, op[2])
            remote_plain(proc, t, op, cycle)

        table = dict(base)
        for tag in (LOAD, STORE):
            table[tag] = route(base[tag], remote_plain)
        table[LOAD_DEP] = route(base[LOAD_DEP], remote_ld)
        table[FETCH_ADD] = route(base[FETCH_ADD], remote_fa)
        table[SYNC_LOAD_EMPTY] = route(base[SYNC_LOAD_EMPTY], remote_sync_load)
        table[SYNC_LOAD_FULL] = route(base[SYNC_LOAD_FULL], remote_sync_load)
        table[SYNC_STORE_FULL] = route(base[SYNC_STORE_FULL], remote_sync_store)
        table[GET_VALUE] = route(gv_local, remote_gv)
        table[PUT_VALUE] = route(pv_local, remote_pv)
        return table

    # -- diagnosis ---------------------------------------------------------------

    def _waiter_row(self, w, state: str, addr: int) -> dict:
        if isinstance(w, RemoteWaiter):
            return {"tid": None, "state": state, "addr": addr,
                    "remote": True, "partition": w.src_partition}
        return super()._waiter_row(w, state, addr)

    def blocked_rows(self) -> list:
        rows = super().blocked_rows()
        for entry in self._waiting_reply.values():
            rows.append({"tid": entry[0], "state": WAIT_REMOTE,
                         "addr": entry[2], "op": entry[1]})
        for bid, waiting in self._gbar_waiting.items():
            for w in waiting:
                rows.append({"tid": w.tid, "state": WAIT_BARRIER,
                             "barrier": bid, "arrived": len(waiting),
                             "need": self.gbar_needs.get(bid)})
        return rows

    # -- serializable-state contract ----------------------------------------------

    def config_state(self) -> dict:
        cfg = super().config_state()
        cfg["shard"] = {
            "plan": self.plan.signature(),
            "part_lo": self.part_lo,
            "part_hi": self.part_hi,
            "remote_latency": self.remote_latency,
        }
        return cfg

    @staticmethod
    def _enc_waiter(w):
        if isinstance(w, RemoteWaiter):
            return ("r", w.rid, w.src_partition, w.payload, w.wait_since)
        return ("t", w.tid)

    def _dec_waiter(self, enc, threads):
        if enc[0] == "r":
            return RemoteWaiter(enc[1], enc[2], enc[3], enc[4])
        return threads[enc[1]]

    def to_state(self) -> dict:
        if self.outbox or self._gbar_arrivals:
            raise SimulationError(
                "shard machine snapshot with undrained outbox: snapshots"
                " must be taken at exchange-round boundaries"
            )
        st = super().to_state()
        st["wait_full"] = {
            a: [self._enc_waiter(w) for w in q]
            for a, q in self._wait_full.items() if q
        }
        st["wait_empty"] = {
            a: [self._enc_waiter(w) for w in q]
            for a, q in self._wait_empty.items() if q
        }
        st["shard"] = {
            "values": dict(self.values),
            "seq": dict(self._seq),
            "rid": self._rid,
            "waiting_reply": {r: list(v) for r, v in self._waiting_reply.items()},
            "pending": [msg for _, msg in sorted(self._pending)],
            "gbar_waiting": {
                bid: [w.tid for w in ws]
                for bid, ws in self._gbar_waiting.items() if ws
            },
            "gbar_local_max": dict(self._gbar_local_max),
            "msgs_sent": self.msgs_sent,
            "msgs_processed": self.msgs_processed,
        }
        return st

    def from_state(self, state: dict, kernel) -> None:
        base = dict(state)
        base["wait_full"] = {}
        base["wait_empty"] = {}
        super().from_state(base, kernel)
        threads = kernel.threads
        self._wait_full.clear()
        for a, encs in state["wait_full"].items():
            self._wait_full[a] = deque(self._dec_waiter(e, threads) for e in encs)
        self._wait_empty.clear()
        for a, encs in state["wait_empty"].items():
            self._wait_empty[a] = deque(self._dec_waiter(e, threads) for e in encs)
        sh = state["shard"]
        self.values = dict(sh["values"])
        self._seq = dict(sh["seq"])
        self._rid = sh["rid"]
        self._waiting_reply = {r: tuple(v) for r, v in sh["waiting_reply"].items()}
        self._pending = [(msg_sort_key(m), m) for m in sh["pending"]]
        heapq.heapify(self._pending)
        self._gbar_waiting = {
            bid: [threads[tid] for tid in tids]
            for bid, tids in sh["gbar_waiting"].items()
        }
        self._gbar_local_max = dict(sh["gbar_local_max"])
        self._gbar_arrivals = []
        self.outbox = []
        self.msgs_sent = sh["msgs_sent"]
        self.msgs_processed = sh["msgs_processed"]


_SHARDED_CACHE: dict[type, type] = {}


def sharded_machine(base_cls: type = MTAMachine) -> type:
    """The sharded variant of an interleaved machine class.

    Returns (and caches) ``class _Sharded(ShardMixin, base_cls)``.  The
    base must be an :class:`~repro.sim.mta_engine.MTAMachine`-family
    interleaved model — the mixin reuses its memory/sync state layout.
    """
    cls = _SHARDED_CACHE.get(base_cls)
    if cls is None:
        if not issubclass(base_cls, MTAMachine):
            raise ConfigurationError(
                f"machine {base_cls.__name__} is not shardable: sharding"
                " wraps the MTAMachine family (interleaved scheduling,"
                " flat memory, full/empty + FA state)"
            )
        cls = type(f"Sharded{base_cls.__name__}", (ShardMixin, base_cls), {
            "kind": f"{base_cls.kind}-shard",
        })
        _SHARDED_CACHE[base_cls] = cls
    return cls
