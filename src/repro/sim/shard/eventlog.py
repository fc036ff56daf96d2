"""Canonical hook-event capture for shard-equivalence checks.

A :class:`ShardEventLog` subscribes to the kernel's per-op fidelity
events and records them with *global* thread/processor identities, so
the multiset of records from W worker kernels can be compared against
the single unsharded kernel's multiset byte for byte.  Two
normalizations make the comparison well-defined:

* identities are mapped local → global (``tid_map`` per worker kernel,
  ``proc_offset`` for processors);
* a barrier release — one kernel event carrying *all* released tids —
  is exploded into one record per tid, because the sharded run releases
  each worker's waiters in its own kernel (several events) while the
  unsharded run releases them all at once (one event).

Event *order* across workers is not defined (each kernel emits
independently), so :meth:`canonical` sorts the records; equality of the
sorted streams is the "byte-identical hook event stream" acceptance
check.  Note that subscribing to these events demands per-op fidelity,
which demotes the vector tier exactly as any tracer does.
"""

from __future__ import annotations

__all__ = ["ShardEventLog"]


class ShardEventLog:
    """Record op/span/sync/release/phase events with global identities.

    ``proc_offset`` shifts local processor indices to global ones;
    :attr:`tid_map` maps this kernel's local tids to global ones (the
    shard worker derives it from spawn order; identity when None — the
    unsharded reference kernel).
    """

    def __init__(self, proc_offset: int = 0):
        self.proc_offset = proc_offset
        #: local tid -> global tid, or None for the identity
        self.tid_map: list | None = None
        self.records: list[tuple] = []

    def _tid(self, tid: int) -> int:
        return tid if self.tid_map is None else self.tid_map[tid]

    # -- subscribed events -------------------------------------------------------

    def on_op(self, tid, op):
        self.records.append(("op", self._tid(tid), op))

    def on_op_span(self, name, start, end, pid, tid, args):
        self.records.append(
            ("span", name, start, end, pid + self.proc_offset,
             self._tid(tid), args)
        )

    def on_sync(self, tid, addr, kind, consume):
        self.records.append(("sync", self._tid(tid), addr, kind, consume))

    def on_barrier_release(self, bid, tids):
        for tid in tids:
            self.records.append(("release", bid, self._tid(tid)))

    def on_phase(self, tid, label):
        self.records.append(("phase", self._tid(tid), label))

    # -- comparison form ---------------------------------------------------------

    def canonical(self) -> list[str]:
        """The records as a sorted list of stable strings (a canonical
        multiset encoding; values inside ops keep their reprs)."""
        return sorted(repr(r) for r in self.records)
