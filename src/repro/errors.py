"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError):
    """A machine, cache, or experiment was configured with invalid parameters.

    Examples: a cache whose size is not a multiple of its line size, a
    machine with zero processors, a sublist count smaller than the
    processor count.
    """


def require_positive(**knobs) -> None:
    """Raise :class:`ConfigurationError` naming the first knob below 1.

    For program knobs where zero or a negative value has no meaning
    (a chunk size, a stream count): rejecting it beats clamping it
    silently, and a zero-size fetch-add chunk would never terminate.
    """
    for key, value in knobs.items():
        if value < 1:
            raise ConfigurationError(f"{key} must be >= 1, got {value}")


class WorkloadError(ReproError):
    """A workload (list or graph) is malformed.

    Examples: a successor array that is not a single cycle-free chain, an
    edge list referencing vertices outside ``[0, n)``.
    """


class SimulationError(ReproError):
    """The cycle-level simulation reached an inconsistent state.

    Examples: deadlock (no stream can make progress but threads remain),
    a barrier waited on by more threads than were registered, a program
    yielding an unknown opcode.
    """


class DeadlockError(SimulationError):
    """All remaining simulated threads are blocked and none can ever wake.

    Raised by the cycle engines instead of spinning forever; the message
    includes the blocked-thread inventory to aid debugging of simulated
    programs.
    """


class WatchdogExceeded(SimulationError):
    """The simulation kernel's scheduling-step budget ran out mid-run.

    Raised by :class:`repro.sim.kernel.SimKernel` when a run exceeds its
    ``budget`` (event-driven machines count scheduling steps, interleaved
    machines count cycles).  Unlike a plain abort, the exception carries
    the diagnostic state at the moment the watchdog fired:

    Attributes
    ----------
    budget:
        The exhausted budget value.
    blocked:
        The blocked-thread inventory rows (same schema the deadlock path
        reports), so a watchdog trip on a livelocked program still names
        the threads that were stuck.
    phases:
        :class:`~repro.sim.stats.PhaseSlice` list closed at the abort
        cycle — the final, open phase slice ends where the run died
        rather than being lost.
    """

    def __init__(self, message: str, *, budget=None, blocked=(), phases=(), checkpoint=None):
        super().__init__(message)
        self.budget = budget
        self.blocked = list(blocked)
        self.phases = list(phases)
        #: Post-mortem kernel state dict (when the kernel was recording),
        #: resumable via :meth:`repro.sim.kernel.SimKernel.resume` with a
        #: larger budget.  ``None`` when the run was not checkpointable.
        self.checkpoint = checkpoint
        #: Path of the persisted post-mortem artifact, filled in by
        #: :class:`repro.sim.checkpoint.CheckpointSession` when a store
        #: is attached.
        self.checkpoint_path = None


class CheckpointError(ReproError):
    """A checkpoint could not be taken, stored, or restored.

    Examples: a snapshot artifact whose header version or code digests do
    not match the running code, a resume against a kernel whose workload
    setup differs from the checkpointed one, a machine model that does not
    implement the serializable-state contract.  Restore validation happens
    *before* any state is touched, so a raised ``CheckpointError`` never
    leaves a partially-restored kernel behind.
    """


class RunPaused(ReproError):
    """A run was paused cooperatively at a scheduling boundary.

    Raised by :class:`repro.sim.kernel.SimKernel` when a checkpoint sink
    returns truthy (e.g. a service drain or sweep cancellation asked the
    run to stop).  Carries the snapshot ``state`` taken at the pause
    boundary and, when a store persisted it, the artifact ``path``.
    """

    def __init__(self, message: str, *, state=None, path=None):
        super().__init__(message)
        self.state = state
        self.path = path
