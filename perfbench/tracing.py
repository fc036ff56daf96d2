"""Host-time spans for the benchmark's traced run, recorded from outside ``src/``.

A :class:`Tracer` keeps a stack of open frames.  Two kinds of wrapper
feed it:

* **spans** (:meth:`Tracer.span`) wrap coarse layer boundaries — a job,
  a backend ``execute``, a kernel run, a cache read.  Each call becomes
  one record ``(id, parent, name, start, end, self)`` kept in memory.
* **per-op calls** (:meth:`Tracer.per_op`) wrap the hot paths called
  about a million times per job (``isa.*`` constructors,
  ``Allocation.addr``, ``CacheHierarchy.access``, fast-tier attempts).
  Keeping a record per call would cost hundreds of megabytes, so they are
  folded into one ``(calls, total, self)`` row per name instead.

Both push a frame, so every layer's self time is its duration minus the
time its children covered, whichever kind the children are.

:func:`install` patches the layers' public functions in place and
returns the list of patches; :func:`uninstall` puts the originals back.
Nothing is patched unless the traced run asks for it, so the
end-to-end numbers come from unwrapped code.

Pool workers are forked from the traced process and inherit its
patches.  Each job they run goes through :func:`traced_execute_payload`,
which appends the worker's records to ``spans-<pid>.jsonl`` in the
tracer's spill directory; :meth:`Tracer.records` reads them back.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from time import perf_counter_ns

__all__ = [
    "Tracer", "install", "uninstall", "restore", "traced_execute_payload", "per_call_overhead_ns",
]

# frame layout: [span id or None, start_ns, child_ns]
_ID, _START, _CHILD = 0, 1, 2

#: The tracer installed in this process.  Module state only because the
#: pool pickles ``traced_execute_payload`` by name: a forked worker finds
#: its inherited tracer here.
_ACTIVE: "Tracer | None" = None


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, spill_dir: str | os.PathLike):
        self.spill_dir = Path(spill_dir)
        #: The process whose records this tracer holds; a forked worker
        #: inherits the parent's value and resets on its first job.
        self.pid = os.getpid()
        self.owner_pid = self.pid
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns, self_ns)
        self.aggregates: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = [[None, 0, 0]]  # root frame, never popped
        self._next_id = 1
        self.run_payload = None

    # -- wrappers ----------------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call records one span.

        ``name`` is a string or a function of the call's arguments (a
        backend's ``execute`` names its span after the backend).
        ``after(result, *args)`` runs once the call returns, to take counts.
        """
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args)
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, perf_counter_ns(), 0]
            parent = stack[-1][_ID]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - frame[_START]
                stack[-1][_CHILD] += dur
                spans.append((sid, parent, label, frame[_START], end, dur - frame[_CHILD]))
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def per_op(self, name, fn):
        """Wrap a hot-path ``fn``: calls fold into one aggregate row."""
        stack = self._stack
        row = self.aggregates.setdefault(name, [0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [None, perf_counter_ns(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - frame[_START]
                stack.pop()
                stack[-1][_CHILD] += dur
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[_CHILD]

        return wrapper

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- records -----------------------------------------------------------------

    def _own_records(self) -> list[dict]:
        pid = os.getpid()
        out = [
            {"pid": pid, "id": sid, "parent": parent, "name": name,
             "start_ns": start, "end_ns": end, "self_ns": self_ns}
            for sid, parent, name, start, end, self_ns in self.spans
        ]
        out.extend(
            {"pid": pid, "name": name, "calls": calls, "total_ns": total, "self_ns": self_ns}
            for name, (calls, total, self_ns) in self.aggregates.items()
            if calls
        )
        out.extend({"pid": pid, "counter": k, "value": v} for k, v in self.counters.items())
        return out

    def reset(self) -> None:
        """Drop every record (open frames stay open)."""
        self.spans.clear()
        for row in self.aggregates.values():
            row[:] = [0, 0, 0]
        self.counters.clear()

    def spill(self) -> None:
        """Append this process's records to its spill file and drop them."""
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as f:
            for rec in self._own_records():
                f.write(json.dumps(rec, sort_keys=True) + "\n")
        self.reset()

    def records(self) -> list[dict]:
        """This process's records plus those pool workers spilled."""
        out = self._own_records()
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as f:
                out.extend(json.loads(line) for line in f)
        return out

    def clear_spills(self) -> None:
        for path in self.spill_dir.glob("spans-*.jsonl"):
            path.unlink()


def traced_execute_payload(payload: dict) -> dict:
    """Stand-in for ``repro.core.runner._execute_payload`` while tracing.

    Records the job as a ``core.runner.job`` span.  In a forked pool
    worker it first drops the records inherited from the parent, and
    spills its own after every job, since the worker's memory is lost
    when the pool shuts down.
    """
    tracer = _ACTIVE
    if tracer.pid != os.getpid():
        tracer.pid = os.getpid()
        tracer.reset()
        del tracer._stack[1:]
    try:
        return tracer.run_payload(payload)
    finally:
        if tracer.pid != tracer.owner_pid:
            tracer.spill()


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced layer's public functions; returns the patches."""
    global _ACTIVE
    from repro.arch import cache as arch_cache
    from repro.arch import memory
    from repro.backends import analytic, base, engine, inputs, kernels
    from repro.core import cache as core_cache
    from repro.core import machine, runner, smp_machine
    from repro.graphs import programs
    from repro.obs import summary
    from repro.sim import fastpath, isa, kernel

    patches: list[tuple] = []

    def patch(owner, attr, wrapped):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def after_run(_report, kern, *_args):
        stats = kern.window_stats
        tracer.count("sim.fastpath.windows", stats["windows"])
        tracer.count("sim.fastpath.window_ops", stats["ops"])

    def after_get(record, *_args):
        tracer.count("core.cache.hits" if record is not None else "core.cache.misses")

    def after_put(_none, cache, key, _record):
        tracer.count("core.cache.bytes_written", os.path.getsize(cache._path(key)))

    def after_stream(result, *_args):
        s1, s2 = result
        tracer.count("arch.cache.l1_accesses", s1.accesses)
        tracer.count("arch.cache.l1_hits", s1.hits)
        tracer.count("arch.cache.l2_accesses", s2.accesses)
        tracer.count("arch.cache.l2_hits", s2.hits)

    patch(kernel.SimKernel, "run",
          tracer.span("sim.kernel.run", kernel.SimKernel.run, after_run))
    for fname in ("simulate_smp_cc", "simulate_mta_cc"):
        patch(programs, fname, tracer.span("programs.simulate_cc", getattr(programs, fname)))
    for cls in (engine.SMPEngineBackend, engine.MTAEngineBackend, analytic.AnalyticBackend):
        patch(cls, "execute",
              tracer.span(lambda self, *_: f"backends.execute.{self.name}", cls.execute))
    patch(inputs, "input_for", tracer.span("backends.inputs.input_for", inputs.input_for))
    patch(summary.RunSummary, "to_dict",
          tracer.span("obs.summary.to_dict", summary.RunSummary.to_dict))
    patch(core_cache.SweepCache, "get",
          tracer.span("core.cache.get", core_cache.SweepCache.get, after_get))
    patch(core_cache.SweepCache, "put",
          tracer.span("core.cache.put", core_cache.SweepCache.put, after_put))
    patch(analytic, "instrument",
          tracer.span("backends.kernels.instrument", analytic.instrument))
    for cls in (machine.MachineModel, smp_machine.SMPMachine):
        patch(cls, "run", tracer.span("core.models.machine_run", cls.run))
    patch(arch_cache.CacheHierarchy, "__init__",
          tracer.span("arch.cache.hierarchy_init", arch_cache.CacheHierarchy.__init__))
    patch(arch_cache.CacheHierarchy, "simulate_stream",
          tracer.span("arch.cache.simulate_stream", arch_cache.CacheHierarchy.simulate_stream,
                      after_stream))

    canonical = tracer.per_op("backends.canonical_json", base.canonical_json)
    for module in (base, runner, core_cache, inputs, kernels):
        patch(module, "canonical_json", canonical)
    for fname in ("compute", "load", "load_dep", "store", "fetch_add", "sync_load_consume",
                  "sync_load_peek", "sync_store", "get_value", "put_value", "barrier",
                  "phase", "run_block"):
        patch(isa, fname, tracer.per_op(f"sim.isa.{fname}", getattr(isa, fname)))
    patch(memory.Allocation, "addr", tracer.per_op("arch.memory.addr", memory.Allocation.addr))
    patch(arch_cache.CacheHierarchy, "access",
          tracer.per_op("arch.cache.access", arch_cache.CacheHierarchy.access))
    patch(fastpath, "try_ld_window", tracer.per_op("sim.fastpath.try_ld_window",
                                                   fastpath.try_ld_window))

    tracer.run_payload = tracer.span("core.runner.job", runner._execute_payload)
    patch(runner, "_execute_payload", traced_execute_payload)
    _ACTIVE = tracer
    return patches


def restore(patches: list[tuple]) -> None:
    """Put back the originals of ``(owner, attr, original)`` patches, newest first."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def uninstall(patches: list[tuple]) -> None:
    """Undo :func:`install`."""
    global _ACTIVE
    restore(patches)
    _ACTIVE = None


def per_call_overhead_ns(calls: int = 200_000) -> float:
    """Host nanoseconds a per-op wrapper adds to one call, measured here.

    Times a trivial function bare and wrapped, best of five rounds each,
    so the figure can be multiplied by a run's wrapped-call count.
    """

    def noop(x):
        return x

    def best(fn):
        times = []
        for _ in range(5):
            t0 = perf_counter_ns()
            for i in range(calls):
                fn(i)
            times.append(perf_counter_ns() - t0)
        return min(times) / calls

    probe = Tracer(spill_dir=".")
    return max(best(probe.per_op("probe", noop)) - best(noop), 0.0)
