"""Backend registry: one interface over every execution stack.

The built-in backends (three analytic machine models, three
cycle-level engines and the model-vs-engine ``cost-xval``) are
registered at import; ``repro backends`` lists them and :func:`create`
instantiates by name.  Third-party machines register the same way —
see ``examples/custom_machine.py`` and ``docs/BACKENDS.md``.
"""

from __future__ import annotations

from .base import Backend, RunHandle, Workload, canonical_json
from .inputs import clear_memo, input_for
from .kernels import algorithms_for
from .registry import backend, create, describe, names, register

__all__ = [
    "Backend",
    "RunHandle",
    "Workload",
    "canonical_json",
    "input_for",
    "clear_memo",
    "algorithms_for",
    "register",
    "backend",
    "create",
    "names",
    "describe",
]


def _register_builtins() -> None:
    from ..sim.hooks import HOOK_EVENTS
    from .analytic import make_cluster_model, make_mta_model, make_smp_model
    from .engine import (
        MTA_NEXT_DESCRIPTION,
        make_mta_engine,
        make_mta_next_engine,
        make_smp_engine,
    )
    from .xval import make_cost_xval

    register(
        "smp-model",
        make_smp_model,
        level="model",
        kinds=("rank", "cc", "bfs", "msf", "tree"),
        description="Analytic cache-based SMP model (Sun E4500)",
    )
    register(
        "mta-model",
        make_mta_model,
        level="model",
        kinds=("rank", "cc", "bfs", "msf", "tree"),
        description="Analytic multithreaded machine model (Cray MTA-2)",
    )
    register(
        "cluster-model",
        make_cluster_model,
        level="model",
        kinds=("rank", "cc", "bfs", "msf", "tree"),
        description="Analytic message-passing cluster model (Beowulf 2005)",
    )
    register(
        "smp-engine",
        make_smp_engine,
        level="engine",
        kinds=("rank", "cc"),
        description="Cycle-level SMP engine (simulated caches + bus)",
        machine="smp",
        hooks=HOOK_EVENTS,
        checkpoint=True,
        xval=True,
    )
    register(
        "mta-engine",
        make_mta_engine,
        level="engine",
        kinds=("rank", "cc", "chase"),
        description="Cycle-level MTA engine (multithreaded streams)",
        machine="mta",
        hooks=HOOK_EVENTS,
        checkpoint=True,
        shardable=True,
        xval=True,
    )
    register(
        "mta-next-engine",
        make_mta_next_engine,
        level="engine",
        kinds=("rank", "cc", "chase"),
        description=MTA_NEXT_DESCRIPTION,
        machine="mta-next",
        hooks=HOOK_EVENTS,
        checkpoint=True,
        shardable=True,
    )
    register(
        "cost-xval",
        make_cost_xval,
        level="xval",
        kinds=("rank", "cc", "chase"),
        description="Model-vs-engine per-phase divergence (repro.xval)",
        xval=True,
    )


_register_builtins()
