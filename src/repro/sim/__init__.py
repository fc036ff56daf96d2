"""Cycle-level simulation substrate: one kernel, pluggable machine models.

:class:`~repro.sim.kernel.SimKernel` owns the run loop, scheduling,
watchdog, barriers, phases, and instrumentation (via the
:class:`~repro.sim.hooks.HookBus`); machines plug in as
:class:`~repro.sim.kernel.MachineModel` implementations
(:class:`~repro.sim.smp_engine.SMPMachine`,
:class:`~repro.sim.mta_engine.MTAMachine`, …) behind the historical
``SMPEngine`` / ``MTAEngine`` facades.  A new interleaved machine
becomes a backend with one :func:`repro.backends.register` call around
a :class:`~repro.backends.engine.ModelEngineBackend`; this package never
imports the backend layer.  See ``docs/SIMULATION.md``.
"""

from . import isa
from .checkpoint import (
    Checkpoint,
    CheckpointSession,
    CheckpointStore,
    load_checkpoint,
)
from .hooks import HOOK_EVENTS, CheckerHook, HookBus, TracerHook
from .isa import OpBlock
from .kernel import (
    CHECKPOINT_STATE_VERSION,
    EVENT,
    INTERLEAVED,
    MachineModel,
    SimKernel,
)
from .mta_engine import MTAEngine, MTAMachine
from .mta_next import MTANextMachine
from .shard import PartitionPlan, ShardResult, run_sharded, sharded_machine
from .smp_engine import SMPEngine, SMPMachine
from .stats import PhaseSlice, SimReport, combine_reports
from .thread import SimThread

__all__ = [
    "isa",
    "Checkpoint",
    "CheckpointSession",
    "CheckpointStore",
    "CHECKPOINT_STATE_VERSION",
    "load_checkpoint",
    "MTAEngine",
    "MTAMachine",
    "MTANextMachine",
    "SMPEngine",
    "SMPMachine",
    "SimKernel",
    "MachineModel",
    "EVENT",
    "INTERLEAVED",
    "OpBlock",
    "HookBus",
    "TracerHook",
    "CheckerHook",
    "HOOK_EVENTS",
    "PhaseSlice",
    "SimReport",
    "combine_reports",
    "SimThread",
    "PartitionPlan",
    "ShardResult",
    "run_sharded",
    "sharded_machine",
]
