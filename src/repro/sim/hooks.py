"""The instrumentation bus shared by every simulated machine.

Historically each engine hand-called three parallel hook surfaces — the
tracer (``span``/``name_process``/``record_run``), the concurrency
checker (``on_op``/``on_sync_read``/…), and the post-hoc contention
profiler — and each new cross-cutting tool had to be duck-typed into
both interpreter loops.  The :class:`HookBus` replaces all of that with
one seam: the kernel emits a small set of named events, and any object
implementing a subset of them can attach.

Events (a hook implements any subset as plain methods):

``attach_engine(kind, p)``
    A machine of ``kind`` with ``p`` processors was constructed.
``register_barrier(bid, need)`` / ``init_full(addr)`` / ``init_counter(addr)``
    Setup-time declarations, before the run starts.
``on_run_start(name, p)``
    ``SimKernel.run(name)`` is about to enter its loop.
``on_op(tid, op)``
    Thread ``tid`` is issuing ``op`` (fired *before* the machine model's
    cost/semantics handler, so observers see program order).
``on_op_span(name, start, end, pid, tid, args)``
    A timed episode — an op's occupancy, a sync-wait, a barrier wait —
    resolved to the half-open interval ``[start, end)``.  Only emitted
    when someone subscribes (the tracer, at ``op`` level).
``on_sync(tid, addr, kind, consume)``
    The semantic moment of a full/empty transition: ``kind`` is
    ``"read"`` (an ``SLE``/``SLF`` observed Full; ``consume`` says
    whether it drained the word) or ``"write"`` (an ``SSF`` filled it).
``on_barrier_release(bid, tids)``
    The last participant arrived; ``tids`` are the released threads.
``on_phase(tid, label)``
    Thread ``tid`` executed a ``PHASE`` marker.
``on_blocked(inventory)``
    The run is aborting with threads stuck; ``inventory`` rows describe
    them (same schema as the deadlock diagnosis).
``end_run(report)``
    The run completed normally; ``report`` is the final
    :class:`~repro.sim.stats.SimReport`.

The bus is built for a hot interpreter loop: :meth:`HookBus.listeners`
returns a tuple of bound methods **or None when nobody subscribed**, so
the kernel's disabled path stays one ``is not None`` test per event —
exactly what the hand-rolled ``if self._check is not None`` tests cost
before.

:class:`TracerHook` and :class:`CheckerHook` adapt the existing
:class:`repro.obs.Tracer` and :class:`repro.analysis.ConcurrencyChecker`
interfaces onto the bus; neither of those classes knows anything about
engines anymore.
"""

from __future__ import annotations

__all__ = ["HookBus", "TracerHook", "CheckerHook", "HOOK_EVENTS"]

#: Every event a hook may implement, in documentation order.
HOOK_EVENTS = (
    "attach_engine",
    "register_barrier",
    "init_full",
    "init_counter",
    "on_run_start",
    "on_op",
    "on_op_span",
    "on_sync",
    "on_barrier_release",
    "on_phase",
    "on_blocked",
    "end_run",
)


class HookBus:
    """Fan-out of kernel events to attached hooks, in attach order."""

    def __init__(self, hooks=()):
        self._hooks = list(hooks)
        self._cache: dict[str, tuple | None] = {}
        #: Bumped on every :meth:`add`.  The kernel's run loops compare
        #: it against the value they cached their listener tuples from,
        #: so a hook attached *mid-run* (from another hook's callback)
        #: starts receiving events at the next scheduling boundary.
        self.version = 0

    def add(self, hook) -> None:
        """Attach ``hook``; it receives every event it has a method for."""
        self._hooks.append(hook)
        self._cache.clear()
        self.version += 1

    @property
    def hooks(self) -> tuple:
        return tuple(self._hooks)

    def listeners(self, event: str):
        """Bound methods subscribed to ``event``, or ``None`` if none.

        The ``None`` (not an empty tuple) lets the kernel's hot loop
        skip disabled events with a single identity test.
        """
        try:
            return self._cache[event]
        except KeyError:
            fns = tuple(
                fn
                for fn in (getattr(h, event, None) for h in self._hooks)
                if fn is not None
            )
            self._cache[event] = fns or None
            return fns or None

    # -- cold-path emitters (setup time; the kernel inlines the hot ones) -------

    def emit(self, event: str, *args) -> None:
        fns = self.listeners(event)
        if fns is not None:
            for fn in fns:
                fn(*args)

    def attach_engine(self, kind: str, p: int) -> None:
        self.emit("attach_engine", kind, p)

    def register_barrier(self, bid: str, need: int) -> None:
        self.emit("register_barrier", bid, need)

    def init_full(self, addr: int) -> None:
        self.emit("init_full", addr)

    def init_counter(self, addr: int) -> None:
        self.emit("init_counter", addr)


class TracerHook:
    """Adapts a :class:`repro.obs.Tracer` onto the :class:`HookBus`.

    Phase-level tracers subscribe only to ``on_run_start`` (process
    naming) and ``end_run`` (phase spans via ``record_run``); op-level
    tracers additionally receive every ``on_op_span`` episode.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        if not tracer.op_level:
            # None attribute => HookBus.listeners skips us for this event.
            self.on_op_span = None

    def on_run_start(self, name: str, p: int) -> None:
        for i in range(p):
            self.tracer.name_process(i, f"proc{i}")

    def on_op_span(self, name, start, end, pid, tid, args) -> None:
        self.tracer.span(name, start, end, pid=pid, tid=tid, args=args)

    def end_run(self, report) -> None:
        self.tracer.record_run(report)


class CheckerHook:
    """Adapts a :class:`repro.analysis.ConcurrencyChecker` onto the bus.

    Preserves the checker's event contract: ``on_op`` fires before any
    ``on_sync`` the same op produces (the checker indexes sync events by
    the op counter ``on_op`` advances), and an aborting run delivers the
    blocked inventory through ``on_blocked`` instead of a clean
    ``end_run``.
    """

    def __init__(self, check):
        self.check = check

    def attach_engine(self, kind: str, p: int) -> None:
        self.check.attach_engine(kind, p)

    def register_barrier(self, bid: str, need: int) -> None:
        self.check.register_barrier(bid, need)

    def init_full(self, addr: int) -> None:
        self.check.init_full(addr)

    def init_counter(self, addr: int) -> None:
        self.check.init_counter(addr)

    def on_run_start(self, name: str, p: int) -> None:
        self.check.start_run(name)

    def on_op(self, tid: int, op) -> None:
        self.check.on_op(tid, op)

    def on_sync(self, tid: int, addr: int, kind: str, consume: bool) -> None:
        if kind == "read":
            self.check.on_sync_read(tid, addr, consume)
        else:
            self.check.on_sync_write(tid, addr)

    def on_barrier_release(self, bid: str, tids) -> None:
        self.check.on_barrier_release(bid, tids)

    def on_phase(self, tid: int, label: str) -> None:
        self.check.on_phase(tid, label)

    def on_blocked(self, inventory) -> None:
        self.check.end_run(inventory)

    def end_run(self, report) -> None:
        self.check.end_run([])
