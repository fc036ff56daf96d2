"""Name-based backend registry.

Backends register a *factory* under a short name (``"smp-model"``,
``"mta-engine"``, …); callers create configured instances with
:func:`create`, passing backend-specific options (machine config
overrides, trace mode, engine latencies).  The CLI's ``repro
backends`` and the sweep runner resolve names through here, so adding
a machine is one ``register`` call — see ``examples/custom_machine.py``
and ``docs/BACKENDS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigurationError
from .base import Backend

__all__ = ["register", "create", "names", "describe", "backend"]


@dataclass(frozen=True)
class _Entry:
    name: str
    factory: Callable[..., Backend]
    level: str
    kinds: tuple
    description: str
    #: Machine model behind the backend ("" for analytic models).
    machine: str = ""
    #: HookBus events the backend's execution path can deliver
    #: (empty for analytic models, which run no instruction streams).
    hooks: tuple = ()
    #: True when the backend's runs can checkpoint/resume (the machine
    #: model implements the serializable-state contract).
    checkpoint: bool = False
    #: True when the backend accepts the ``shards`` workload option and
    #: runs through the sharded runtime (:mod:`repro.sim.shard`).
    shardable: bool = False
    #: True when the backend participates in model-vs-engine
    #: cross-validation (:mod:`repro.xval`) — either as a stack with an
    #: analytic counterpart or as the pairing backend itself.
    xval: bool = False


_REGISTRY: dict[str, _Entry] = {}


def register(
    name: str,
    factory: Callable[..., Backend],
    *,
    level: str = "model",
    kinds: tuple = (),
    description: str = "",
    machine: str = "",
    hooks: tuple = (),
    checkpoint: bool = False,
    shardable: bool = False,
    xval: bool = False,
    replace: bool = False,
) -> None:
    """Register ``factory`` under ``name``.

    ``factory(**options)`` must return a :class:`Backend`.  Registering
    an existing name raises unless ``replace=True`` (so typos fail loud
    but examples can re-run).  ``machine`` names the simulation machine
    model behind an engine backend, ``hooks`` lists the
    :class:`~repro.sim.hooks.HookBus` events its runs can deliver,
    ``checkpoint`` whether its runs support
    checkpoint/resume (the workload's ``checkpoint`` option),
    ``shardable`` whether they accept the ``shards`` workload option
    (the multi-process sharded runtime), and ``xval`` whether the
    backend participates in model-vs-engine cross-validation
    (:mod:`repro.xval`); all are informational (shown by ``repro
    backends``).
    """
    if not name:
        raise ConfigurationError("backend name must be non-empty")
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"backend {name!r} is already registered (pass replace=True to override)"
        )
    _REGISTRY[name] = _Entry(
        name=name,
        factory=factory,
        level=level,
        kinds=tuple(kinds),
        description=description,
        machine=machine,
        hooks=tuple(hooks),
        checkpoint=bool(checkpoint),
        shardable=bool(shardable),
        xval=bool(xval),
    )


def backend(name: str, **meta):
    """Decorator form of :func:`register` for factory functions."""

    def deco(factory):
        register(name, factory, **meta)
        return factory

    return deco


def create(name: str, **options) -> Backend:
    """Instantiate the backend registered under ``name``."""
    try:
        entry = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ConfigurationError(
            f"unknown backend {name!r}; registered backends: {known}"
        ) from None
    b = entry.factory(**options)
    return b


def names() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def describe() -> list[dict]:
    """One row per backend: name, level, kinds, machine, hooks,
    checkpoint, shardable, xval, description."""
    return [
        {
            "name": e.name,
            "level": e.level,
            "kinds": list(e.kinds),
            "machine": e.machine,
            "hooks": list(e.hooks),
            "checkpoint": e.checkpoint,
            "shardable": e.shardable,
            "xval": e.xval,
            "description": e.description,
        }
        for e in (_REGISTRY[n] for n in names())
    ]
