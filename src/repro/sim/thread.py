"""Simulated-thread state shared by the cycle engines."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generator

__all__ = ["SimThread"]

# thread lifecycle states
READY = "ready"
BLOCKED = "blocked"  # waiting on a completion time (memory, barrier release)
WAIT_FULL = "wait-full"  # sync load on an Empty word
WAIT_EMPTY = "wait-empty"  # sync store on a Full word
WAIT_BARRIER = "wait-barrier"
WAIT_REMOTE = "wait-remote"  # reply pending from a remote shard (repro.sim.shard)
DONE = "done"


@dataclass
class SimThread:
    """One simulated thread: a generator plus its scheduling state.

    The engine resumes :attr:`gen` with the previous op's result value;
    the generator runs its Python code up to the next ``yield`` and
    hands back the next op.  Everything else here is bookkeeping the
    engines use to decide *when* that resume may happen.
    """

    tid: int
    gen: Generator  # nostate: live generator; checkpoint replay rebuilds it
    proc: int
    state: str = READY
    #: Cycle at which a BLOCKED thread becomes ready again.
    wake_at: int = 0
    #: Value to send into the generator on next resume (FA/sync-load results).
    pending_value: object = None
    #: Remaining instructions of an in-progress ("C", k) burst.
    compute_remaining: int = 0
    #: Completion cycles of outstanding memory operations (FIFO).
    outstanding: deque = field(default_factory=deque)
    #: Instructions the thread may still issue past its outstanding memory
    #: ops before it must wait (the MTA's compiler lookahead).
    lookahead_credit: int = 0
    #: Total instructions issued on behalf of this thread.
    issued: int = 0
    #: Cycle at which the thread started waiting (full/empty word or
    #: barrier) — consumed by the contention profiler when it wakes.
    wait_since: int = 0
    #: Event-driven machines: the thread's local time (one thread per
    #: processor advances independently; the kernel's heap orders them).
    time: float = 0.0
    #: What the thread is waiting on (barrier id for WAIT_BARRIER).
    wait_key: object = None
    #: Machine-model-private per-thread state (e.g. the SMP's per-
    #: processor cache hierarchy); opaque to the kernel.
    mstate: object = None  # nostate: serialized by the owning machine model
    #: Active :class:`~repro.sim.isa.OpBlock` being expanded (a
    #: ``VR`` pseudo-op's precompiled straight-line run), or None.  The
    #: kernel pulls the next op from ``fblock.ops[fbpos]`` before
    #: resuming the generator.
    fblock: object = None  # nostate: snapshot keeps fbpos; replay rebuilds the block
    #: Next unexecuted position within :attr:`fblock`.
    fbpos: int = 0

    #: Version of the serialized form produced by :meth:`to_state`.
    STATE_VERSION = 1

    def to_state(self) -> dict:
        """Serializable scheduling state (excludes the live generator).

        The generator itself cannot be pickled; checkpoint restore
        rebuilds it by re-running the workload and replaying the
        kernel's resume log, then re-attaches this state on top.  The
        active :attr:`fblock` is likewise rebound during replay (the
        block object is recovered from the last ``("VR", block)`` op the
        generator yielded); only its length is recorded here so the
        rebind can be validated.
        """
        return {
            "version": SimThread.STATE_VERSION,
            "tid": self.tid,
            "proc": self.proc,
            "state": self.state,
            "wake_at": self.wake_at,
            "pending_value": self.pending_value,
            "compute_remaining": self.compute_remaining,
            "outstanding": list(self.outstanding),
            "lookahead_credit": self.lookahead_credit,
            "issued": self.issued,
            "wait_since": self.wait_since,
            "time": self.time,
            "wait_key": self.wait_key,
            "in_block": self.fblock is not None,
            "block_len": None if self.fblock is None else self.fblock.n,
            "fbpos": self.fbpos,
        }

    def from_state(self, state: dict) -> None:
        """Restore the scheduling fields captured by :meth:`to_state`.

        Leaves :attr:`gen`, :attr:`mstate`, and :attr:`fblock` alone —
        those are rebuilt by the kernel's restore path.
        """
        self.state = state["state"]
        self.wake_at = state["wake_at"]
        self.pending_value = state["pending_value"]
        self.compute_remaining = state["compute_remaining"]
        self.outstanding = deque(state["outstanding"])
        self.lookahead_credit = state["lookahead_credit"]
        self.issued = state["issued"]
        self.wait_since = state["wait_since"]
        self.time = state["time"]
        self.wait_key = state["wait_key"]
        self.fbpos = state["fbpos"]

    def drain_completed(self, now: int) -> None:
        """Drop outstanding memory ops that have completed by cycle ``now``."""
        out = self.outstanding
        while out and out[0] <= now:
            out.popleft()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimThread(tid={self.tid}, proc={self.proc}, state={self.state},"
            f" wake_at={self.wake_at}, issued={self.issued})"
        )
