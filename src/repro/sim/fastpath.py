"""Stand-in for the removed vectorized execution tier.

The kernel has one execution path (:class:`repro.sim.kernel.SimKernel`)
and never calls anything here.  The module survives only because
perfbench's traced mode (``perfbench/tracing.py``) imports it and wraps
:func:`try_ld_window`; delete it once that wrapper is gone.
"""

from __future__ import annotations

__all__ = ["try_ld_window"]


def try_ld_window(kernel, cycle, budget) -> None:
    """Never called; see the module docstring.  Returns None."""
    return None
