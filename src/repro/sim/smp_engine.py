"""Machine model and engine facade for the cache-based SMP machine.

The machine-specific physics live in :class:`SMPMachine`, a
:class:`~repro.sim.kernel.MachineModel` plug-in; the run loop,
watchdog, barriers, phases, and instrumentation are the shared
:class:`~repro.sim.kernel.SimKernel`'s.  What makes this machine an
SMP:

* One simulated thread per processor (the paper's POSIX-threads
  model), each with a private L1/L2
  :class:`~repro.arch.cache.CacheHierarchy`; the level that serves a
  load sets its latency.  Misses to memory also arbitrate for the
  shared bus, which transfers one cache line at the configured
  bandwidth — concurrent misses from different processors queue, which
  is what erodes SMP scalability at higher p.
* Stores probe the cache (write-allocate) but retire through the write
  buffer: the processor is charged a cycle of occupancy (plus bus
  traffic on a miss), not the miss latency.
* Barriers are software and implicit: the last arrival releases
  everyone after ``barrier_cycles(p)``.
* ``FETCH_ADD`` models a lock-free atomic: serialized per cell with a
  memory round-trip.

The machine is event-driven (``scheduling = "event"``) — processors
advance independently in local time, globally ordered through the bus
and barriers — so there is no per-cycle loop and large programs
simulate quickly.

Observability (``PHASE`` slices, contention counters in
``SimReport.detail``, optional tracer / concurrency checker) attaches
through the kernel's :class:`~repro.sim.hooks.HookBus`; see
:mod:`repro.obs`, ``docs/OBSERVABILITY.md``, and ``docs/SIMULATION.md``.
"""

from __future__ import annotations

from typing import Generator

from ..arch.cache import CacheHierarchy
from ..errors import ConfigurationError
from ..core.smp_machine import SMPConfig, SUN_E4500
from .isa import COMPUTE, FETCH_ADD, LOAD, LOAD_DEP, STORE
from .kernel import EVENT, MachineModel, SimKernel

__all__ = ["SMPEngine", "SMPMachine"]


class SMPMachine(MachineModel):
    """Cache hierarchy + shared bus + write buffer, as a kernel plug-in."""

    kind = "smp"
    scheduling = EVENT
    implicit_barriers = True
    default_budget = 500_000_000

    def __init__(self, p: int = 1, config: SMPConfig = SUN_E4500):
        if not 1 <= p <= config.max_p:
            raise ConfigurationError(f"p={p} outside [1, {config.max_p}]")
        self.p = p
        self.config = config
        self.clock_hz = config.clock_hz
        self._bus_free = 0.0
        self._bus_busy_cycles = 0.0
        self.fa_values: dict[int, int] = {}
        self._fa_next_free: dict[int, float] = {}
        self._line_transfer = config.l2.line_words / config.bus_words_per_cycle
        #: addr -> [ops, serialization stall cycles] per fetch-add cell.
        self._fa_sites: dict[int, list] = {}

    def thread_state(self) -> CacheHierarchy:
        return CacheHierarchy(self.config.l1, self.config.l2)

    def barrier_release_cost(self) -> float:
        return self.config.barrier_cycles(self.p)

    def init_counter(self, addr: int, value: int) -> None:
        self.fa_values[addr] = value

    def handlers(self, kernel: SimKernel) -> dict:
        """Event-mode handlers: ``(thread, op, time) -> end_time``."""
        cfg = self.config
        cpi = cfg.cpi
        l1_hit = cfg.l1_hit_cycles
        l2_hit = cfg.l2_hit_cycles
        mem = cfg.mem_cycles
        line = self._line_transfer
        allowance = cfg.store_buffer_depth * line
        fa_values = self.fa_values
        fa_next_free = self._fa_next_free
        fa_sites = self._fa_sites

        def bus_transfer(time):
            # arbitrate one line transfer; returns its completion time
            start = self._bus_free
            if time > start:
                start = time
            free = start + line
            self._bus_free = free
            self._bus_busy_cycles += line
            return free

        def h_compute(t, op, time):
            return time + op[1] * cpi

        def h_load(t, op, time):
            level = t.mstate.access(op[1])
            if level == "l1":
                return time + l1_hit
            if level == "l2":
                return time + l2_hit
            done = bus_transfer(time) + mem - line
            return time + max(done - time, mem)

        def h_store(t, op, time):
            level = t.mstate.access(op[1])  # write-allocate
            if level == "mem":
                bus_transfer(time)  # line fill occupies the bus, not the CPU
                # write-buffer backpressure: once the buffer's worth of
                # line fills is queued behind the bus, the processor
                # stalls until the backlog drains below the buffer depth
                backlog = self._bus_free - time
                if backlog > allowance:
                    return time + (backlog - allowance + 1.0)
            return time + 1.0

        def h_fetch_add(t, op, time):
            addr = op[1]
            inc = op[2] if len(op) > 2 else 1
            old = fa_values.get(addr, 0)
            fa_values[addr] = old + inc
            t.pending_value = old
            start = fa_next_free.get(addr, 0.0)
            if time > start:
                start = time
            done = start + l2_hit  # atomic at the coherence point
            fa_next_free[addr] = done
            site = fa_sites.get(addr)
            if site is None:
                site = fa_sites[addr] = [0, 0.0]
            site[0] += 1
            site[1] += start - time
            return done

        return {
            COMPUTE: h_compute,
            LOAD: h_load,
            LOAD_DEP: h_load,
            STORE: h_store,
            FETCH_ADD: h_fetch_add,
        }

    # -- serializable-state contract ------------------------------------------

    state_version = 1

    def config_state(self) -> dict:
        import dataclasses

        return dataclasses.asdict(self.config)

    def to_state(self) -> dict:
        return {
            "bus_free": self._bus_free,
            "bus_busy_cycles": self._bus_busy_cycles,
            "fa_values": dict(self.fa_values),
            "fa_next_free": dict(self._fa_next_free),
            "fa_sites": {a: list(v) for a, v in self._fa_sites.items()},
        }

    def from_state(self, state: dict, kernel: SimKernel) -> None:
        # in-place updates: handlers close over these dicts by reference
        self._bus_free = state["bus_free"]
        self._bus_busy_cycles = state["bus_busy_cycles"]
        self.fa_values.clear()
        self.fa_values.update(state["fa_values"])
        self._fa_next_free.clear()
        self._fa_next_free.update(state["fa_next_free"])
        self._fa_sites.clear()
        self._fa_sites.update({a: list(v) for a, v in state["fa_sites"].items()})

    def pack_thread_state(self, mstate):
        return None if mstate is None else mstate.to_state()

    def unpack_thread_state(self, packed):
        return None if packed is None else CacheHierarchy.from_state(packed)

    def report_detail(self, kernel: SimKernel) -> dict:
        l1 = [t.mstate.l1_stats for t in kernel.threads]
        l2 = [t.mstate.l2_stats for t in kernel.threads]
        return {
            "l1_hit_rate": [s.hit_rate for s in l1],
            "l2_hit_rate": [s.hit_rate for s in l2],
            "l1_misses": [s.misses for s in l1],
            "l2_misses": [s.misses for s in l2],
            "bus_busy_cycles": self._bus_busy_cycles,
            "barrier_wait_cycles": list(kernel.barrier_wait_per_proc),
            "barrier_episodes": kernel.barrier_episodes,
            "fa_sites": {a: (v[0], v[1]) for a, v in self._fa_sites.items()},
        }


class SMPEngine:
    """One simulated SMP, running exactly one thread per processor.

    A thin facade over ``SimKernel(SMPMachine(p, config))`` that keeps
    the historical construction/run API.

    Parameters
    ----------
    p:
        Processor count (== number of programs to attach).
    config:
        Machine description; defaults to the paper's Sun E4500.
    tracer:
        Optional :class:`repro.obs.Tracer`; ``None`` disables event
        recording (contention counters are always collected).
    check:
        Optional :class:`repro.analysis.ConcurrencyChecker`; when
        attached, the kernel reports every op, FA serialization order,
        barrier releases, and parked-processor inventories.
    hooks:
        Additional :class:`~repro.sim.hooks.HookBus` subscribers.
    session:
        Optional :class:`repro.sim.checkpoint.CheckpointSession`; runs
        then go through the session (periodic snapshots, resume,
        graceful pause — see ``docs/SIMULATION.md``).
    record:
        Record the generator-resume log so :meth:`SimKernel.snapshot`
        works even without a session (implied by ``session``).
    """

    def __init__(
        self,
        p: int = 1,
        config: SMPConfig = SUN_E4500,
        tracer=None,
        check=None,
        hooks=(),
        session=None,
        record: bool = False,
    ) -> None:
        self.model = SMPMachine(p, config)
        self.session = session
        self.kernel = SimKernel(
            self.model,
            tracer=tracer,
            check=check,
            hooks=hooks,
            record=record or session is not None,
        )

    @property
    def p(self) -> int:
        return self.model.p

    @property
    def config(self) -> SMPConfig:
        return self.model.config

    @property
    def fa_values(self) -> dict:
        return self.model.fa_values

    def attach(self, gen: Generator) -> int:
        """Attach the program for the next processor; returns its index."""
        return self.kernel.add_thread(gen).tid

    def set_counter(self, addr: int, value: int = 0) -> None:
        """Initialize a fetch-add cell."""
        self.kernel.set_counter(addr, value)

    def register_barrier(self, barrier_id: str, count: int) -> None:
        """Pre-register a barrier with an explicit arrival count.

        Optional on the SMP — its software barriers implicitly need all
        ``p`` processors — but lets a program run a barrier among a
        subset of processors.
        """
        self.kernel.register_barrier(barrier_id, count)

    def resume(self, state: dict) -> None:
        """Restore a kernel snapshot (attach the same programs first);
        the next :meth:`run` continues from the checkpointed boundary."""
        self.kernel.resume(state)

    def run(
        self,
        name: str = "phase",
        max_ops: int = 500_000_000,
        *,
        budget: int | None = None,
        checkpoint_every: int | None = None,
        checkpoint_sink=None,
    ):
        """Run all processors to completion; return measurements.

        ``max_ops`` is the historical name for the kernel ``budget``
        (scheduling steps); ``budget`` wins when both are given.
        ``checkpoint_every``/``checkpoint_sink`` pass through to
        :meth:`SimKernel.run` (ignored when a session manages the run).
        """
        budget = budget if budget is not None else max_ops
        if self.session is not None:
            return self.session.run(self.kernel, name, budget=budget)
        return self.kernel.run(
            name,
            budget=budget,
            checkpoint_every=checkpoint_every,
            checkpoint_sink=checkpoint_sink,
        )
