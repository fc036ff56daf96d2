"""The Backend protocol: one interface over every execution stack.

The repository times the paper's kernels five different ways — three
analytic machine models (SMP, MTA, cluster) and two cycle-level engines
(SMP, MTA).  Historically each CLI command and benchmark wired the
machine or engine it wanted by hand; a :class:`Backend` hides that
plumbing behind two calls:

``prepare(workload) -> RunHandle``
    Generate (or fetch from the memo) the workload's input — a
    successor list, a graph, an expression tree — and bundle it with
    the workload description.

``execute(handle) -> RunSummary``
    Run the kernel on this backend's execution stack and report the
    result as a :class:`repro.obs.RunSummary`, the one record type
    every stack already produces.  Kernel-specific measurements
    (iterations, cost triplet, algorithm stats) land in
    ``summary.detail``.

A :class:`Workload` (defined in :mod:`repro.core.workload`, re-exported
here) is declarative and JSON-serializable, so the sweep runner
(:mod:`repro.core.runner`) can hash it for the on-disk result cache and
ship it to worker processes.  Concrete backends live in
:mod:`repro.backends.analytic` and :mod:`repro.backends.engine`; the
name-based registry is :mod:`repro.backends.registry`.
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass, field
from typing import Any

from ..core.workload import Workload, canonical_json
from ..errors import ConfigurationError, WorkloadError

__all__ = ["Workload", "RunHandle", "Backend", "canonical_json", "int_value"]

_REQUIRED = object()


def int_value(values, key: str, default: Any = _REQUIRED, *, option: bool = False):
    """``values[key]`` as an int, or ``default`` when it is unset (None).

    Workload params and options reach the backends as loosely typed
    JSON from the CLI and the service, so the backends read integers
    from them through here.  An unset key without a default, a bool, a
    non-integral number or a non-numeric string raises an error naming
    the key: :class:`~repro.errors.WorkloadError` for a param,
    :class:`~repro.errors.ConfigurationError` for an option
    (``option=True``).
    """
    error, what = (ConfigurationError, "option") if option else (WorkloadError, "param")
    value = values.get(key)
    if value is None:
        if default is _REQUIRED:
            raise error(f"missing {what} {key!r}")
        return default
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
    elif isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} {key!r} must be an integer, got {value!r}")


@dataclass
class RunHandle:
    """A prepared run: the workload plus its generated input.

    ``data`` holds whatever the backend's kernels consume (a successor
    array, an :class:`~repro.graphs.edgelist.EdgeList`, a ``(graph,
    weights)`` pair, an expression tree); ``meta`` carries input
    statistics worth reporting (n, m, …).
    """

    workload: Workload
    data: Any = None
    meta: dict = field(default_factory=dict)


class Backend(abc.ABC):
    """One execution stack, able to run declarative workloads.

    Subclasses set :attr:`name`, :attr:`level`, and :attr:`kinds`, and
    implement :meth:`execute`.  :meth:`prepare` has a default that
    routes through :mod:`repro.backends.inputs`.
    """

    #: Registry name, e.g. ``"smp-model"``.
    name: str = "backend"
    #: ``"model"`` (analytic) or ``"engine"`` (cycle-level).
    level: str = "model"
    #: Workload kinds this backend can execute.
    kinds: tuple = ()
    #: One-line human description for ``repro backends``.
    description: str = ""

    def supports(self, workload: Workload) -> bool:
        """Whether this backend can execute ``workload``."""
        return workload.kind in self.kinds

    def prepare(self, workload: Workload) -> RunHandle:
        """Generate (or recall) the workload's input."""
        from .inputs import input_for

        if not self.supports(workload):
            raise ConfigurationError(
                f"backend {self.name!r} does not support workload kind"
                f" {workload.kind!r} (supported: {', '.join(self.kinds)})"
            )
        data, meta = input_for(workload)
        return RunHandle(workload=workload, data=data, meta=meta)

    @abc.abstractmethod
    def execute(self, handle: RunHandle):
        """Run the prepared workload; returns a :class:`repro.obs.RunSummary`."""

    def run(self, workload: Workload):
        """``execute(prepare(workload))`` — the one-call convenience."""
        return self.execute(self.prepare(workload))
