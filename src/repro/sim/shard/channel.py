"""The explicit message channel between shard workers and the coordinator.

Topology is a star: every worker holds one :class:`Endpoint` whose peer
lives at the coordinator.  All cross-partition traffic — remote
operation requests, their replies, barrier arrivals and releases, and
the conservative-window control records — travels as *cycle-stamped
messages* through these endpoints; there is no shared memory between
workers.

Two transports implement the same two-method protocol:

:func:`loopback_pair`
    ``queue.SimpleQueue`` pairs for the inline executor (worker threads
    in the coordinator's process).  The default transport, and the
    reference implementation the multi-process executor must match
    byte for byte.

:func:`pipe_pair`
    ``multiprocessing.Pipe`` pairs for the process executor.  Messages
    are pickled by the stdlib connection, which is why every payload in
    the protocol is built from plain tuples/dicts/ints.

Message payloads (``Msg`` tuples) are stamped
``(arrival_cycle, src_partition, seq)``; receivers drain them in
exactly that sort order at conservative time-window boundaries, which
is what makes the simulation independent of transport timing, worker
count, and OS scheduling.
"""

from __future__ import annotations

import queue

__all__ = [
    "Endpoint",
    "loopback_pair",
    "pipe_pair",
    "ChannelClosed",
    "msg_sort_key",
    # message kinds
    "M_FA", "M_SYNC_LOAD", "M_SYNC_STORE", "M_GET", "M_PUT", "M_REPLY",
]

# -- remote-operation message kinds (first field of every Msg tuple) ----------
#: ``(kind, arrival, src_partition, seq, dst_partition, ...operands)``
M_FA = "fa"            # ... addr, inc, rid
M_SYNC_LOAD = "sl"     # ... addr, mode_tag, rid
M_SYNC_STORE = "ss"    # ... addr, value, rid
M_GET = "gv"           # ... addr, rid
M_PUT = "pv"           # ... addr, value
M_REPLY = "re"         # ... rid, value, unblock_cycle


def msg_sort_key(msg: tuple) -> tuple:
    """Deterministic drain order: ``(arrival, src_partition, seq)``.

    Remote requests arriving at one cycle are served in source-partition
    order, then issue order within the source — the same total order no
    matter which worker hosts which endpoint.
    """
    return (msg[1], msg[2], msg[3])


class ChannelClosed(Exception):
    """The peer endpoint went away (worker death / coordinator exit)."""


class Endpoint:
    """One end of a bidirectional message channel.

    ``send`` never blocks on the inline transport and follows pipe
    semantics on the process transport; ``recv`` blocks until a message
    arrives and raises :class:`ChannelClosed` when the peer is gone.
    """

    def __init__(self, send_fn, recv_fn, close_fn=None):
        self._send = send_fn
        self._recv = recv_fn
        self._close = close_fn

    def send(self, obj) -> None:
        try:
            self._send(obj)
        except (BrokenPipeError, OSError) as exc:
            raise ChannelClosed(str(exc)) from None

    def recv(self):
        try:
            obj = self._recv()
        except (EOFError, OSError) as exc:
            raise ChannelClosed(str(exc)) from None
        if obj is _CLOSED:
            raise ChannelClosed("peer closed the channel")
        return obj

    def close(self) -> None:
        try:
            self._send(_CLOSED)
        except Exception:
            pass
        if self._close is not None:
            try:
                self._close()
            except Exception:
                pass


#: In-band close marker for the queue transport (queues cannot signal EOF).
_CLOSED = ("__channel_closed__",)


def loopback_pair() -> tuple[Endpoint, Endpoint]:
    """An in-process channel: two endpoints over a pair of queues."""
    a_to_b: queue.SimpleQueue = queue.SimpleQueue()
    b_to_a: queue.SimpleQueue = queue.SimpleQueue()
    a = Endpoint(a_to_b.put, b_to_a.get)
    b = Endpoint(b_to_a.put, a_to_b.get)
    return a, b


def pipe_pair(ctx=None) -> tuple[Endpoint, Endpoint]:
    """A cross-process channel over a ``multiprocessing.Pipe``.

    Only one endpoint is used per process; the pair is created before
    fork/spawn and each side keeps its half.
    """
    if ctx is None:
        import multiprocessing as ctx
    conn_a, conn_b = ctx.Pipe(duplex=True)
    a = Endpoint(conn_a.send, conn_a.recv, conn_a.close)
    b = Endpoint(conn_b.send, conn_b.recv, conn_b.close)
    return a, b
