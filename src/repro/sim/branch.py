"""Deterministic one-bit branch predictor for engine programs.

The cycle engines have no branch opcode — control flow lives in the
host-side generators.  To let a thread program charge realistic branch
costs, it models the UltraSPARC II's simple predictor itself: one
:class:`OneBitPredictor` per static branch site per processor predicts
"same outcome as last time", and on a mispredict the program emits a
refetch-bubble's worth of ``compute`` ops (sized so the engine's
penalty cycles equal the analytic model's
``mispredicts × mispredict_penalty_cycles`` charge exactly).

Pure bookkeeping over the program's own deterministic outcome sequence
— no randomness, no wall clock — so op streams stay byte-identical
across runs and worker counts.
"""

from __future__ import annotations

__all__ = ["OneBitPredictor", "penalty_ops"]


class OneBitPredictor:
    """Last-outcome (one-bit) predictor for a single static branch site."""

    __slots__ = ("taken", "branches", "mispredicts")

    def __init__(self) -> None:
        #: Predicted outcome: the previous one.  Cold predictors guess
        #: not-taken, like the real machine's untrained BTB entry.
        self.taken = False
        self.branches = 0
        self.mispredicts = 0

    def record(self, outcome: bool) -> bool:
        """Record one executed branch; return ``True`` on a mispredict."""
        self.branches += 1
        missed = outcome != self.taken
        if missed:
            self.mispredicts += 1
        self.taken = outcome
        return missed


def penalty_ops(mispredict_penalty_cycles: float, cpi: float) -> int:
    """Compute-ops equivalent of one mispredict bubble.

    ``compute(k)`` costs ``k × cpi`` cycles on the SMP engine, so
    emitting this many ops per mispredict charges exactly the analytic
    model's per-mispredict penalty (after rounding to whole ops).
    """
    if mispredict_penalty_cycles <= 0:
        return 0
    return max(1, int(round(mispredict_penalty_cycles / cpi)))
