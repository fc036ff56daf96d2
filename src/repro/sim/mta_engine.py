"""Machine model and engine facade for the multithreaded (Cray MTA-2 style) machine.

The machine-specific physics live in :class:`MTAMachine`, a
:class:`~repro.sim.kernel.MachineModel` plug-in; the run loop,
watchdog, barriers, phases, and instrumentation are the shared
:class:`~repro.sim.kernel.SimKernel`'s.  What makes this machine an
MTA:

* Each of the ``p`` processors holds up to ``streams_per_proc`` streams
  and issues **one instruction per cycle from some ready stream**,
  round-robin among ready streams (the kernel's ``"interleaved"``
  scheduling discipline — the hardware's fair scheduler).
* A memory operation takes ``mem_latency`` cycles.  After issuing one,
  a stream may issue up to ``lookahead`` further instructions (the
  compiler-scheduled lookahead; the MTA-2 allowed 8 outstanding
  references per stream) before it must wait — a *dependent* load
  (``LD``) waits immediately.
* ``int_fetch_add`` is atomic and its target cell services **one
  request per cycle**: concurrent FAs to one counter serialize, the
  hotspot the paper mentions.
* Full/empty bits implement synchronous loads and stores with real
  blocking and FIFO wakeup.
* Barriers block until every registered participant arrives
  (registration is required — no implicit barriers here).

There are no caches and no locality effects: an address's cost is the
flat memory latency, exactly like the hashed MTA memory.  (Addresses
still matter — FA serialization and full/empty state are per-address,
and with ``n_banks`` enabled each hashed bank admits one request per
cycle.)

Observability (``PHASE`` slices, contention counters in
``SimReport.detail``, optional tracer / concurrency checker) attaches
through the kernel's :class:`~repro.sim.hooks.HookBus`; see
:mod:`repro.obs`, ``docs/OBSERVABILITY.md``, and ``docs/SIMULATION.md``.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from ..errors import ConfigurationError, SimulationError
from .isa import (
    COMPUTE,
    FETCH_ADD,
    LOAD,
    LOAD_DEP,
    STORE,
    SYNC_LOAD_EMPTY,
    SYNC_LOAD_FULL,
    SYNC_STORE_FULL,
)
from .kernel import INTERLEAVED, MachineModel, SimKernel
from .thread import SimThread, WAIT_EMPTY, WAIT_FULL

__all__ = ["MTAEngine", "MTAMachine"]


class MTAMachine(MachineModel):
    """Flat hashed memory + streams + full/empty bits, as a kernel plug-in."""

    kind = "mta"
    scheduling = INTERLEAVED
    implicit_barriers = False
    default_budget = 200_000_000

    def __init__(
        self,
        p: int = 1,
        *,
        streams_per_proc: int = 128,
        mem_latency: int = 100,
        lookahead: int = 2,
        max_outstanding: int = 8,
        barrier_latency: int = 20,
        clock_hz: float = 220e6,
        n_banks: int = 0,
    ):
        if p < 1:
            raise ConfigurationError("p must be >= 1")
        if streams_per_proc < 1:
            raise ConfigurationError("streams_per_proc must be >= 1")
        if mem_latency < 1:
            raise ConfigurationError("mem_latency must be >= 1")
        if lookahead < 0:
            raise ConfigurationError(f"lookahead must be >= 0, got {lookahead}")
        if max_outstanding < 1:
            raise ConfigurationError(f"max_outstanding must be >= 1, got {max_outstanding}")
        if barrier_latency < 0:
            raise ConfigurationError(f"barrier_latency must be >= 0, got {barrier_latency}")
        if not clock_hz > 0:
            raise ConfigurationError(f"clock_hz must be > 0, got {clock_hz}")
        if n_banks and (n_banks < 1 or (n_banks & (n_banks - 1)) != 0):
            raise ConfigurationError(f"n_banks must be 0 or a power of two, got {n_banks}")
        self.p = p
        self.streams_per_proc = streams_per_proc
        self.threads_per_proc = streams_per_proc
        self.mem_latency = mem_latency
        self.lookahead = lookahead
        self.max_outstanding = max_outstanding
        self.barrier_latency = barrier_latency
        self.clock_hz = clock_hz
        self.n_banks = n_banks
        self._bank_next_free: dict[int, int] = {}
        self.bank_contention_stalls = 0
        # full/empty memory: address present in _full ⇔ word is Full
        self._full: dict[int, object] = {}
        self._wait_full: dict[int, deque] = {}
        self._wait_empty: dict[int, deque] = {}
        # fetch-add cells
        self.fa_values: dict[int, int] = {}
        self._fa_next_free: dict[int, int] = {}
        self.fa_serialization_stalls = 0
        #: addr -> [ops, serialization stall cycles] per fetch-add cell.
        self._fa_sites: dict[int, list] = {}
        #: log2 bucket -> full/empty wait episodes; plus total wait cycles.
        self._fe_wait_hist: dict[int, int] = {}
        self.fe_wait_cycles = 0

    def barrier_release_cost(self) -> int:
        return self.barrier_latency

    def init_counter(self, addr: int, value: int) -> None:
        self.fa_values[addr] = value

    def init_full(self, addr: int, value) -> None:
        self._full[addr] = value

    # -- contention bookkeeping -------------------------------------------------

    def _fe_wait(self, since: int, now: int) -> None:
        """Record one full/empty wait episode ending now."""
        wait = now - since
        bucket = 0 if wait <= 0 else int(wait).bit_length()
        self._fe_wait_hist[bucket] = self._fe_wait_hist.get(bucket, 0) + 1
        self.fe_wait_cycles += max(0, wait)

    def _mem_done(self, addr: int, cycle: int) -> int:
        """Completion cycle of a memory reference issued now.

        With bank modeling on, the hashed bank serving ``addr`` admits
        one request per cycle, so colliding references queue.
        """
        earliest = cycle + self.mem_latency
        if not self.n_banks:
            return earliest
        from ..arch.memory import bank_of

        bank = int(bank_of(addr, self.n_banks))
        done = max(earliest, self._bank_next_free.get(bank, 0) + 1)
        self.bank_contention_stalls += done - earliest
        self._bank_next_free[bank] = done
        return done

    # -- memory rules (shared with the sharded machine's owner side) -----------

    def _fetch_add(self, addr: int, inc: int, cycle: int) -> tuple:
        """Apply one ``int_fetch_add`` at its cell, issued at ``cycle``.

        The cell services one request per cycle, so concurrent FAs to
        one counter serialize.  Returns ``(old, done, stall)``.
        """
        fa_values = self.fa_values
        old = fa_values.get(addr, 0)
        fa_values[addr] = old + inc
        earliest = cycle + self.mem_latency
        done = self._fa_next_free.get(addr, 0) + 1
        if done < earliest:
            done = earliest
        stall = done - earliest
        self.fa_serialization_stalls += stall
        site = self._fa_sites.get(addr)
        if site is None:
            site = self._fa_sites[addr] = [0, 0]
        site[0] += 1
        site[1] += stall
        self._fa_next_free[addr] = done
        return old, done, stall

    def _fill(self, kernel: SimKernel, addr: int, value, cycle: int) -> None:
        """Set a word Full and service waiting sync-loads FIFO."""
        full = self._full
        full[addr] = value
        waiters = self._wait_full.get(addr)
        while waiters and addr in full:
            if self._wake_reader(kernel, waiters.popleft(), addr, full[addr], cycle):
                del full[addr]
                self._drain_empty_waiters(kernel, addr, cycle)

    def _drain_empty_waiters(self, kernel: SimKernel, addr: int, cycle: int) -> None:
        """A word just became Empty: let one waiting producer store."""
        waiters = self._wait_empty.get(addr)
        if waiters and addr not in self._full:
            value = self._wake_writer(kernel, waiters.popleft(), addr, cycle)
            self._fill(kernel, addr, value, cycle)

    def _wake_reader(self, kernel: SimKernel, w, addr: int, value, cycle: int) -> bool:
        """Hand a Full word's value to one parked sync-load; True when
        the load consumes the word (``SLE``)."""
        mode = w.pending_value
        w.pending_value = value
        h_sync = kernel._h_sync
        if h_sync is not None:
            consume = mode == SYNC_LOAD_EMPTY
            for fn in h_sync:
                fn(w.tid, addr, "read", consume)
        self._fe_wait(w.wait_since, cycle)
        h_span = kernel._h_span
        if h_span is not None:
            for fn in h_span:
                fn(f"{mode}:wait", w.wait_since, cycle + self.mem_latency,
                   w.proc, w.tid, {"addr": addr})
        kernel.block_until(w, cycle + self.mem_latency)
        return mode == SYNC_LOAD_EMPTY

    def _wake_writer(self, kernel: SimKernel, w, addr: int, cycle: int):
        """Let one parked sync-store write an Empty word; returns its value."""
        value = w.pending_value
        w.pending_value = None
        h_sync = kernel._h_sync
        if h_sync is not None:
            for fn in h_sync:
                fn(w.tid, addr, "write", False)
        self._fe_wait(w.wait_since, cycle)
        h_span = kernel._h_span
        if h_span is not None:
            for fn in h_span:
                fn("SSF:wait", w.wait_since, cycle + self.mem_latency,
                   w.proc, w.tid, {"addr": addr})
        kernel.block_until(w, cycle + self.mem_latency)
        return value

    def _ref_handler(self, kernel: SimKernel, done_at):
        """Handler for a non-blocking reference completing at
        ``done_at(addr, cycle)``: the stream keeps issuing on its
        lookahead credit until ``max_outstanding`` refs are in flight."""
        max_outstanding = self.max_outstanding
        block_until = kernel.block_until

        def h_ref(proc, t, op, cycle):
            done = done_at(op[1], cycle)
            h_span = kernel._h_span
            if h_span is not None:
                for fn in h_span:
                    fn(op[0], cycle, done, t.proc, t.tid, {"addr": op[1]})
            out = t.outstanding
            out.append(done)
            if len(out) > max_outstanding:
                block_until(t, out.popleft())
            elif t.lookahead_credit > 0:
                t.lookahead_credit -= 1
                proc.ready.append(t)
            else:
                block_until(t, out[0])

        return h_ref

    def _dep_handler(self, kernel: SimKernel, done_at):
        """Handler for a dependent load completing at ``done_at(addr,
        cycle)``: the stream waits for the value."""
        block_until = kernel.block_until

        def h_dep(proc, t, op, cycle):
            done = done_at(op[1], cycle)
            h_span = kernel._h_span
            if h_span is not None:
                for fn in h_span:
                    fn(op[0], cycle, done, t.proc, t.tid, {"addr": op[1]})
            block_until(t, done)

        return h_dep

    # -- dispatch table ---------------------------------------------------------

    def handlers(self, kernel: SimKernel) -> dict:
        """Interleaved-mode handlers: ``(proc, thread, op, cycle)``."""
        mem_latency = self.mem_latency
        block_until = kernel.block_until
        fetch_add = self._fetch_add
        full = self._full
        wait_full = self._wait_full
        wait_empty = self._wait_empty
        if self.n_banks:
            mem_done = self._mem_done
        else:
            def mem_done(addr, cycle):
                return cycle + mem_latency

        def h_compute(proc, t, op, cycle):
            k = op[1]
            if k < 1:
                raise SimulationError(f"compute burst must be >= 1, got {k}")
            t.compute_remaining = k - 1
            h_span = kernel._h_span
            if h_span is not None:
                for fn in h_span:
                    fn("C", cycle, cycle + k, t.proc, t.tid, None)
            proc.ready.append(t)

        h_mem = self._ref_handler(kernel, mem_done)

        def h_fetch_add(proc, t, op, cycle):
            addr = op[1]
            old, done_at, stall = fetch_add(addr, op[2] if len(op) > 2 else 1, cycle)
            t.pending_value = old
            h_span = kernel._h_span
            if h_span is not None:
                for fn in h_span:
                    fn("FA", cycle, done_at, t.proc, t.tid,
                       {"addr": addr, "stall": stall})
            block_until(t, done_at)

        def h_sync_load(proc, t, op, cycle):
            tag = op[0]
            addr = op[1]
            if addr in full:
                value = full[addr]
                h_sync = kernel._h_sync
                if h_sync is not None:
                    consume = tag == SYNC_LOAD_EMPTY
                    for fn in h_sync:
                        fn(t.tid, addr, "read", consume)
                if tag == SYNC_LOAD_EMPTY:
                    del full[addr]
                    self._drain_empty_waiters(kernel, addr, cycle)
                t.pending_value = value
                h_span = kernel._h_span
                if h_span is not None:
                    for fn in h_span:
                        fn(tag, cycle, cycle + mem_latency, t.proc, t.tid,
                           {"addr": addr})
                block_until(t, cycle + mem_latency)
            else:
                t.state = WAIT_FULL
                t.wait_since = cycle
                t.pending_value = tag  # remember consume-vs-peek
                q = wait_full.get(addr)
                if q is None:
                    q = wait_full[addr] = deque()
                q.append(t)

        def h_sync_store(proc, t, op, cycle):
            addr, value = op[1], op[2]
            if addr not in full:
                h_span = kernel._h_span
                if h_span is not None:
                    for fn in h_span:
                        fn(SYNC_STORE_FULL, cycle, cycle + mem_latency,
                           t.proc, t.tid, {"addr": addr})
                h_sync = kernel._h_sync
                if h_sync is not None:
                    for fn in h_sync:
                        fn(t.tid, addr, "write", False)
                self._fill(kernel, addr, value, cycle)
                block_until(t, cycle + mem_latency)
            else:
                t.state = WAIT_EMPTY
                t.wait_since = cycle
                t.pending_value = value  # the value awaiting an Empty slot
                q = wait_empty.get(addr)
                if q is None:
                    q = wait_empty[addr] = deque()
                q.append(t)

        return {
            COMPUTE: h_compute,
            LOAD: h_mem,
            STORE: h_mem,
            LOAD_DEP: self._dep_handler(kernel, mem_done),
            FETCH_ADD: h_fetch_add,
            SYNC_LOAD_EMPTY: h_sync_load,
            SYNC_LOAD_FULL: h_sync_load,
            SYNC_STORE_FULL: h_sync_store,
        }

    # -- serializable-state contract --------------------------------------------

    state_version = 1

    def config_state(self) -> dict:
        return {
            "streams_per_proc": self.streams_per_proc,
            "mem_latency": self.mem_latency,
            "lookahead": self.lookahead,
            "max_outstanding": self.max_outstanding,
            "barrier_latency": self.barrier_latency,
            "clock_hz": self.clock_hz,
            "n_banks": self.n_banks,
        }

    def to_state(self) -> dict:
        return {
            "bank_next_free": dict(self._bank_next_free),
            "bank_contention_stalls": self.bank_contention_stalls,
            "full": dict(self._full),
            "wait_full": {a: [w.tid for w in q] for a, q in self._wait_full.items() if q},
            "wait_empty": {a: [w.tid for w in q] for a, q in self._wait_empty.items() if q},
            "fa_values": dict(self.fa_values),
            "fa_next_free": dict(self._fa_next_free),
            "fa_serialization_stalls": self.fa_serialization_stalls,
            "fa_sites": {a: list(v) for a, v in self._fa_sites.items()},
            "fe_wait_hist": dict(self._fe_wait_hist),
            "fe_wait_cycles": self.fe_wait_cycles,
        }

    def from_state(self, state: dict, kernel: SimKernel) -> None:
        # in-place updates: handlers close over these dicts by reference
        threads = kernel.threads
        self._bank_next_free.clear()
        self._bank_next_free.update(state["bank_next_free"])
        self.bank_contention_stalls = state["bank_contention_stalls"]
        self._full.clear()
        self._full.update(state["full"])
        self._wait_full.clear()
        for a, tids in state["wait_full"].items():
            self._wait_full[a] = deque(threads[tid] for tid in tids)
        self._wait_empty.clear()
        for a, tids in state["wait_empty"].items():
            self._wait_empty[a] = deque(threads[tid] for tid in tids)
        self.fa_values.clear()
        self.fa_values.update(state["fa_values"])
        self._fa_next_free.clear()
        self._fa_next_free.update(state["fa_next_free"])
        self.fa_serialization_stalls = state["fa_serialization_stalls"]
        self._fa_sites.clear()
        self._fa_sites.update({a: list(v) for a, v in state["fa_sites"].items()})
        self._fe_wait_hist.clear()
        self._fe_wait_hist.update(state["fe_wait_hist"])
        self.fe_wait_cycles = state["fe_wait_cycles"]

    # -- diagnosis / reporting --------------------------------------------------

    def blocked_rows(self) -> list:
        """Full/empty wait inventory; the kernel appends barrier waiters."""
        rows = []
        for state, queues in ((WAIT_FULL, self._wait_full),
                              (WAIT_EMPTY, self._wait_empty)):
            for addr, waiters in queues.items():
                rows.extend(self._waiter_row(w, state, addr) for w in waiters)
        return rows

    def _waiter_row(self, w, state: str, addr: int) -> dict:
        return {"tid": w.tid, "state": state, "addr": addr}

    def report_detail(self, kernel: SimKernel) -> dict:
        detail = {
            "fa_serialization_stalls": self.fa_serialization_stalls,
            "fa_sites": {a: tuple(v) for a, v in self._fa_sites.items()},
            "fe_wait_hist": dict(self._fe_wait_hist),
            "fe_wait_cycles": self.fe_wait_cycles,
            "barrier_waits": {
                bid: {"episodes": v[0], "wait_cycles": v[1], "max_wait": v[2]}
                for bid, v in kernel.barrier_stats.items()
            },
        }
        if self.n_banks:
            detail["bank_contention_stalls"] = self.bank_contention_stalls
        return detail


class MTAEngine:
    """One simulated multithreaded machine, ready to run thread programs.

    A thin facade over ``SimKernel(MTAMachine(p, ...))`` that keeps the
    historical construction/run API.  Subclass hook: an alternate
    interleaved machine (e.g. ``mta-next``) overrides
    :attr:`machine_class` and reuses everything else.

    Parameters
    ----------
    p:
        Processor count.
    streams_per_proc:
        Hardware streams per processor; spawning more threads than
        ``p × streams_per_proc`` raises (map your work to fewer worker
        threads and use ``FA`` self-scheduling, like the real machine).
    mem_latency:
        Round-trip memory latency in cycles (~100 on the MTA-2).
    lookahead:
        Instructions a stream may issue past an outstanding memory op.
    max_outstanding:
        Hardware limit of in-flight memory refs per stream (8).
    barrier_latency:
        Cycles from last arrival to release.
    clock_hz:
        For seconds conversion in reports.
    n_banks:
        Simulated memory banks (power of two).  0 (default) disables
        bank modeling — appropriate because the MTA hashes logical
        addresses across physical banks, making collisions rare.
        Enable it to study hotspot traffic beyond ``int_fetch_add``.
    tracer:
        Optional :class:`repro.obs.Tracer`.  ``None`` (default)
        disables event recording entirely; contention *counters* are
        always collected.
    check:
        Optional :class:`repro.analysis.ConcurrencyChecker`.  When
        attached, the kernel reports every issued op, the semantic
        moment of each full/empty fill/drain, FA serialization order,
        barrier releases, and (on deadlock) the blocked-thread
        inventory.
    hooks:
        Additional :class:`~repro.sim.hooks.HookBus` subscribers.
    """

    #: The MachineModel this facade instantiates; subclasses override.
    machine_class = MTAMachine

    def __init__(
        self,
        p: int = 1,
        *,
        tracer=None,
        check=None,
        hooks=(),
        session=None,
        record: bool = False,
        **params,
    ) -> None:
        # Only caller-supplied parameters reach the machine, so a
        # subclass machine's own defaults (mta-next's latency, stream
        # budget…) apply; unknown parameters raise from its constructor.
        self.model = self.machine_class(p, **params)
        self.session = session
        self.kernel = SimKernel(
            self.model,
            tracer=tracer,
            check=check,
            hooks=hooks,
            record=record or session is not None,
        )

    # -- setup -----------------------------------------------------------------

    def spawn(self, gen: Generator, proc: int | None = None) -> SimThread:
        """Add a thread; round-robin processor placement unless pinned."""
        return self.kernel.add_thread(gen, proc)

    def register_barrier(self, barrier_id: str, count: int) -> None:
        """Declare that ``count`` threads will meet at ``barrier_id``."""
        self.kernel.register_barrier(barrier_id, count)

    def set_full(self, addr: int, value=0) -> None:
        """Pre-set a full/empty word to Full with ``value``."""
        self.kernel.set_full(addr, value)

    def set_counter(self, addr: int, value: int = 0) -> None:
        """Initialize a fetch-add cell."""
        self.kernel.set_counter(addr, value)

    # -- run --------------------------------------------------------------------

    def resume(self, state: dict) -> None:
        """Restore a kernel snapshot (spawn the same programs first);
        the next :meth:`run` continues from the checkpointed boundary."""
        self.kernel.resume(state)

    def run(
        self,
        name: str = "phase",
        max_cycles: int = 200_000_000,
        *,
        budget: int | None = None,
        checkpoint_every: int | None = None,
        checkpoint_sink=None,
    ):
        """Execute until every spawned thread finishes; return measurements.

        ``max_cycles`` is the historical name for the kernel ``budget``
        (cycles); ``budget`` wins when both are given.
        ``checkpoint_every``/``checkpoint_sink`` pass through to
        :meth:`SimKernel.run` (ignored when a session manages the run).
        """
        budget = budget if budget is not None else max_cycles
        if self.session is not None:
            return self.session.run(self.kernel, name, budget=budget)
        return self.kernel.run(
            name,
            budget=budget,
            checkpoint_every=checkpoint_every,
            checkpoint_sink=checkpoint_sink,
        )

    # -- public state the historical engine exposed -----------------------------

    @property
    def p(self) -> int:
        return self.model.p

    @property
    def streams_per_proc(self) -> int:
        return self.model.streams_per_proc

    @property
    def mem_latency(self) -> int:
        return self.model.mem_latency

    @property
    def lookahead(self) -> int:
        return self.model.lookahead

    @property
    def max_outstanding(self) -> int:
        return self.model.max_outstanding

    @property
    def barrier_latency(self) -> int:
        return self.model.barrier_latency

    @property
    def clock_hz(self) -> float:
        return self.model.clock_hz

    @property
    def n_banks(self) -> int:
        return self.model.n_banks

    @property
    def fa_values(self) -> dict:
        return self.model.fa_values

    @property
    def fa_serialization_stalls(self) -> int:
        return self.model.fa_serialization_stalls

    @property
    def bank_contention_stalls(self) -> int:
        return self.model.bank_contention_stalls

    @property
    def fe_wait_cycles(self) -> int:
        return self.model.fe_wait_cycles
