"""Pipe RPC between the sharded engine and its worker processes.

The sharded engine (:mod:`repro.core.shard`, docs/sharding.md) keeps
one persistent worker process per shard and talks to each over a
duplex :func:`multiprocessing.Pipe`.  Messages reuse the serving
layer's frame format (:mod:`repro.serve.protocol`): a JSON header plus
raw float64 array blobs.  That buys three things at once —

- **no pickling**: queries travel as their exact bytes and results as
  repr-round-trip JSON floats, so what a worker searches (and answers)
  is bit-for-bit what the parent sent, the same contract the TCP
  server already honours;
- **one wire vocabulary**: a frame captured off a shard pipe reads
  exactly like a frame off the network, so docs/serving.md's schema
  knowledge transfers;
- **cheap liveness**: ``Connection.poll(timeout)`` bounds every
  receive, so a dead worker surfaces as :class:`WorkerDied` (the pipe
  reports EOF the moment the process is gone) and a hung one as
  :class:`RpcTimeout` — both detected without signals or sidecar
  threads.

The parent is the only writer on its end and each worker serves its
pipe single-threaded (:func:`repro.core.worker.worker_main`), so
requests on one pipe are naturally serialized and responses never
interleave; scatter-gather parallelism comes from having N pipes, not
from multiplexing one.

**Pairing.**  Every request carries a ``req`` number (one counter per
engine, one number per call or per scatter) and the worker echoes it on
the reply.  :func:`recv_reply` returns only the frame whose ``req``
matches and discards older ones, so a reply is only ever paired with
the request that caused it — a reply left unread by a timeout is
dropped when it finally arrives instead of answering the next request.
A frame that does not decode, or whose ``req`` is neither the awaited
one nor older, means the peer can no longer be trusted to speak the
protocol and surfaces as :class:`WorkerDied`, which every supervisor
path already answers by reaping the worker.

Primaries and followers (docs/replication.md) speak the same frames
over the same pipes: besides the shard ops, a ``ship`` carries a
contiguous run of raw WAL frames as a uint8 blob and ``promote`` flips
the follower into a primary — see ``OP_SHIP``/``OP_PROMOTE`` in
:mod:`repro.serve.protocol`.
"""

from __future__ import annotations

import time
from multiprocessing.connection import Connection
from typing import Sequence

import numpy as np

from ..exceptions import ReproError
from ..serve.protocol import ProtocolError, pack_message, unpack_payload

__all__ = [
    "RpcError",
    "RpcTimeout",
    "WorkerDied",
    "call",
    "call_packed",
    "send_frame",
    "send_packed",
    "recv_frame",
    "recv_reply",
]

#: length prefix size of a packed frame; Connection.send_bytes frames
#: messages itself, so the prefix is redundant on a pipe and stripped
#: on receive (kept on send so both ends speak byte-identical frames).
_PREFIX = 4


class RpcError(ReproError):
    """A shard RPC failed (transport-level, not an application error)."""


class RpcTimeout(RpcError):
    """The worker did not answer within the timeout (hung or wedged)."""


class WorkerDied(RpcError):
    """The peer is gone or unusable (exited, killed, or sent garbage)."""


def send_frame(
    conn: Connection, header: dict, arrays: Sequence[np.ndarray] = ()
) -> None:
    """Send one protocol frame; raises :class:`WorkerDied` on a torn pipe."""
    send_packed(conn, pack_message(header, arrays))


def send_packed(conn: Connection, payload: bytes) -> None:
    """Send an already-packed frame (:func:`pack_message` output).

    The scatter path packs its query frame **once** and fans the same
    bytes out to every shard — at 4+ shards the repeated header
    encoding and blob concatenation of per-shard :func:`send_frame`
    calls is measurable parent-side critical path.
    """
    try:
        conn.send_bytes(payload)
    except (BrokenPipeError, ConnectionResetError, OSError) as exc:
        raise WorkerDied(f"shard pipe closed while sending: {exc}") from exc


def recv_frame(
    conn: Connection, timeout: float | None = None
) -> tuple[dict, list[np.ndarray]]:
    """Receive one frame as ``(header, arrays)``.

    ``timeout`` bounds the wait in seconds (None blocks forever).
    Raises :class:`RpcTimeout` when nothing arrives in time and
    :class:`WorkerDied` on EOF or on bytes that are not a frame — the
    distinction drives the engine's restart-vs-degrade decision (a dead
    worker restarts immediately; a hung one is abandoned for this query
    and restarted behind it).
    """
    try:
        if not conn.poll(timeout):
            raise RpcTimeout(
                f"no response from shard worker within {timeout}s"
            )
        payload = conn.recv_bytes()
    except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
        raise WorkerDied(f"shard pipe closed while receiving: {exc}") from exc
    try:
        return unpack_payload(payload[_PREFIX:])
    except ProtocolError as exc:
        raise WorkerDied(f"garbled frame on shard pipe: {exc}") from exc


def recv_reply(
    conn: Connection, req: int, timeout: float
) -> tuple[dict, list[np.ndarray]]:
    """Receive the reply to request ``req``, discarding older replies.

    ``timeout`` bounds the whole wait, discards included.
    """
    deadline = time.monotonic() + timeout
    while True:
        header, arrays = recv_frame(conn, max(deadline - time.monotonic(), 0.0))
        echoed = header.get("req")
        if echoed == req:
            return header, arrays
        if not isinstance(echoed, int) or echoed > req:
            raise WorkerDied(
                f"shard pipe out of step: awaiting reply {req}, got {echoed!r}"
            )


def call(
    conn: Connection,
    header: dict,
    arrays: Sequence[np.ndarray] = (),
    *,
    req: int,
    timeout: float,
) -> tuple[dict, list[np.ndarray]]:
    """One request/reply conversation: send ``header`` stamped ``req``,
    return the reply that echoes it."""
    return call_packed(
        conn, pack_message({**header, "req": req}, arrays), req, timeout
    )


def call_packed(
    conn: Connection, payload: bytes, req: int, timeout: float
) -> tuple[dict, list[np.ndarray]]:
    """:func:`call` for a frame already packed with ``req`` in its header
    (the query scatter packs once and re-sends the same bytes on retry)."""
    send_packed(conn, payload)
    return recv_reply(conn, req, timeout)
