"""The declarative workload description and its canonical JSON form.

A :class:`Workload` names a kernel, an input and a scale; its canonical
JSON is what the sweep runner hashes for the result cache.  Both live
below the backend layer so that :mod:`repro.core` and
:mod:`repro.workloads` never import :mod:`repro.backends`; the backend
protocol re-exports them from :mod:`repro.backends.base`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Workload", "canonical_json"]


def _jsonable(value):
    """Coerce numpy scalars / tuples to plain JSON types, recursively."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if not isinstance(value, (str, bytes)):
        if hasattr(value, "tolist"):  # numpy arrays and scalars
            return _jsonable(value.tolist())
        if hasattr(value, "item"):
            try:
                return value.item()
            except (AttributeError, ValueError):
                pass
    return value


def canonical_json(obj) -> str:
    """Deterministic JSON for hashing: sorted keys, no whitespace."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Workload:
    """One declarative unit of work: a kernel on an input at a scale.

    Attributes
    ----------
    kind:
        Kernel family: ``"rank"`` (list ranking), ``"cc"`` (connected
        components), ``"bfs"``, ``"msf"``, ``"tree"`` (expression
        evaluation by contraction), or ``"chase"`` (the latency-hiding
        microbenchmark).
    p:
        Simulated processor count.
    seed:
        Seed for input generation and any randomized kernel choices.
        The sweep runner derives this deterministically from the spec
        seed and the grid point, so results never depend on worker
        count or completion order.
    params:
        Input description, e.g. ``{"n": 65536, "list": "random"}`` or
        ``{"graph": "random", "n": 4096, "m": 32768}``.
    options:
        Kernel/backend knobs, e.g. ``{"algorithm": "helman-jaja"}``,
        ``{"streams_per_proc": 64, "dynamic": False}``.  Everything
        here must be JSON-serializable.
    """

    kind: str
    p: int = 1
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)
    options: Mapping[str, Any] = field(default_factory=dict)

    def canonical(self) -> dict:
        """JSON-ready dict, the hashing and pickling form."""
        return {
            "kind": self.kind,
            "p": int(self.p),
            "seed": int(self.seed),
            "params": _jsonable(dict(self.params)),
            "options": _jsonable(dict(self.options)),
        }

    def digest(self) -> str:
        """Content hash of this workload description."""
        return hashlib.sha256(canonical_json(self.canonical()).encode()).hexdigest()

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Workload":
        return cls(
            kind=d["kind"],
            p=int(d.get("p", 1)),
            seed=int(d.get("seed", 0)),
            params=dict(d.get("params", {})),
            options=dict(d.get("options", {})),
        )

    def option(self, key: str, default=None):
        return self.options.get(key, default)
