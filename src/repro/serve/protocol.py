"""Wire protocol of the STS3 query service (docs/serving.md).

One framing, two layers:

- **Frame** — a 4-byte big-endian unsigned payload length, then the
  payload.  Length-prefixing makes message boundaries explicit, so a
  reader never scans for delimiters and a torn connection is detected
  as a short read, not a hang.
- **Payload** — a 4-byte big-endian header length, a UTF-8 JSON
  *header*, then the raw bytes of zero or more numpy arrays,
  concatenated in header order.  The header's ``arrays`` key describes
  each blob (``dtype`` as a numpy dtype string, ``shape``); everything
  else in the header is message-specific (see the request/response
  schemas in docs/serving.md).

Series travel as raw ``float64`` bytes, not JSON numbers, for two
reasons: a 256-sample series is 2 KiB of binary vs ~5 KiB of decimal
text, and — more importantly — the bytes *are* the array, so what the
server searches is bit-for-bit what the client sent.  Similarities in
responses are JSON floats; Python's ``json`` emits ``repr`` (shortest
round-trip) form, so they too survive the wire exactly.

Everything here is transport-agnostic pure functions plus a pair of
asyncio stream helpers; the sync client (:mod:`repro.serve.client`)
reuses :func:`pack_message` / :func:`unpack_payload` over a plain
socket.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Sequence

import numpy as np

from ..exceptions import ReproError
from ..core.result import Neighbor, QueryResult, SearchStats

__all__ = [
    "DEFAULT_PORT",
    "MAX_FRAME_BYTES",
    "OP_PROMOTE",
    "OP_SHIP",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeError",
    "ERROR_CODES",
    "HTTP_STATUS",
    "pack_message",
    "unpack_payload",
    "read_message",
    "write_message",
    "result_to_wire",
    "result_from_wire",
]

#: default TCP port of the binary protocol (the HTTP adapter defaults
#: to the next port up).  No IANA meaning — 0x5753 is "SW" reversed.
DEFAULT_PORT = 21335

#: protocol revision, echoed in every ``ping`` response; a server
#: rejects frames whose header carries a different ``v``.
PROTOCOL_VERSION = 1

#: refuse frames larger than this (64 MiB) — a corrupt or hostile
#: length prefix must not translate into an unbounded allocation.
MAX_FRAME_BYTES = 64 << 20

#: replication stream ops (docs/replication.md), spoken over the same
#: frame format on the shard pipes.  ``ship`` carries a contiguous run
#: of raw WAL frames as a uint8 blob plus
#: ``first_seq``/``last_seq``/``count`` in the header; ``promote``
#: carries the new fencing ``epoch`` and flips the follower into a
#: journaling primary.  Every replication reply echoes the sender's
#: current epoch, which is what makes zombie-primary fencing work.
OP_SHIP = "ship"
OP_PROMOTE = "promote"

_LEN = struct.Struct(">I")

#: error codes a request can fail with, and what they mean.  The HTTP
#: adapter maps them through :data:`HTTP_STATUS`; binary responses
#: carry the code verbatim in ``{"status": "error", "code": ...}``.
ERROR_CODES = (
    "BAD_REQUEST",   # malformed header, unknown op, invalid parameters
    "BUSY",          # admission queue full — shed, retry with backoff
    "RATE_LIMITED",  # this client exceeded its token bucket
    "DRAINING",      # server is shutting down; no new work accepted
    "INTERNAL",      # unexpected server-side failure
)

#: HTTP status per error code (the adapter's contract).
HTTP_STATUS = {
    "BAD_REQUEST": 400,
    "BUSY": 429,
    "RATE_LIMITED": 429,
    "DRAINING": 503,
    "INTERNAL": 500,
}


class ProtocolError(ReproError):
    """A frame violated the wire format (bad length, header, or blob)."""


class ServeError(ReproError):
    """A request the service refused or failed, with a wire code.

    ``code`` is one of :data:`ERROR_CODES`; the server serializes it
    into the error response and the client re-raises it on its side,
    so the exception crosses the wire without losing its meaning.
    """

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown serve error code {code!r}")
        super().__init__(message)
        self.code = code


# -- payload packing ----------------------------------------------------


def pack_message(header: dict, arrays: Sequence[np.ndarray] = ()) -> bytes:
    """One wire frame: length prefix + header JSON + array blobs."""
    blobs = [np.ascontiguousarray(a) for a in arrays]
    head = dict(header)
    head["arrays"] = [
        {"dtype": b.dtype.str, "shape": list(b.shape)} for b in blobs
    ]
    head_bytes = json.dumps(head, separators=(",", ":")).encode("utf-8")
    payload_len = _LEN.size + len(head_bytes) + sum(b.nbytes for b in blobs)
    if payload_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"message of {payload_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    parts = [
        _LEN.pack(payload_len),
        _LEN.pack(len(head_bytes)),
        head_bytes,
    ]
    parts.extend(b.tobytes() for b in blobs)
    return b"".join(parts)


def unpack_payload(payload: bytes) -> tuple[dict, list[np.ndarray]]:
    """Parse a frame payload back into ``(header, arrays)``.

    Arrays are fresh writable copies (not views into ``payload``), so
    callers may hold or mutate them after the receive buffer is gone.
    """
    if len(payload) < _LEN.size:
        raise ProtocolError("truncated payload: missing header length")
    (head_len,) = _LEN.unpack_from(payload, 0)
    head_end = _LEN.size + head_len
    if head_end > len(payload):
        raise ProtocolError(
            f"truncated payload: header claims {head_len} bytes, "
            f"{len(payload) - _LEN.size} available"
        )
    try:
        header = json.loads(payload[_LEN.size:head_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("header must be a JSON object")
    arrays: list[np.ndarray] = []
    offset = head_end
    for meta in header.get("arrays", ()):
        try:
            dtype = np.dtype(meta["dtype"])
            shape = tuple(int(n) for n in meta["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad array descriptor {meta!r}") from exc
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if offset + nbytes > len(payload):
            raise ProtocolError(
                f"truncated payload: array needs {nbytes} bytes at "
                f"offset {offset}, payload is {len(payload)}"
            )
        flat = np.frombuffer(payload, dtype=dtype, count=int(np.prod(shape, dtype=np.int64)), offset=offset)
        arrays.append(flat.reshape(shape).copy())
        offset += nbytes
    if offset != len(payload):
        raise ProtocolError(
            f"{len(payload) - offset} trailing bytes after the last array"
        )
    return header, arrays


# -- asyncio stream helpers ---------------------------------------------


async def read_message(
    reader: asyncio.StreamReader,
    max_bytes: int = MAX_FRAME_BYTES,
) -> tuple[dict, list[np.ndarray]] | None:
    """Read one frame; ``None`` on clean EOF before any byte."""
    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection torn mid length prefix") from exc
    (length,) = _LEN.unpack(prefix)
    if length > max_bytes:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection torn mid frame ({len(exc.partial)}/{length} bytes)"
        ) from exc
    return unpack_payload(payload)


async def write_message(
    writer: asyncio.StreamWriter,
    header: dict,
    arrays: Sequence[np.ndarray] = (),
) -> None:
    """Write one frame and drain the transport."""
    writer.write(pack_message(header, arrays))
    await writer.drain()


# -- result serialization -----------------------------------------------


def result_to_wire(result: QueryResult) -> dict:
    """A :class:`QueryResult` as a JSON-ready dict (lossless)."""
    stats = result.stats
    return {
        "neighbors": [[n.index, n.similarity] for n in result.neighbors],
        "stats": {
            "candidates": stats.candidates,
            "exact_computations": stats.exact_computations,
            "pruned": stats.pruned,
            "filter_rounds": stats.filter_rounds,
            "final_candidates": stats.final_candidates,
        },
        "complete": result.complete,
        "skipped_segments": list(result.skipped_segments),
        "degraded_reason": result.degraded_reason,
        "skipped_shards": list(result.skipped_shards),
    }


def result_from_wire(payload: dict) -> QueryResult:
    """Invert :func:`result_to_wire` (bit-identical round-trip)."""
    try:
        neighbors = [
            Neighbor(similarity=float(sim), index=int(idx))
            for idx, sim in payload["neighbors"]
        ]
        stats = SearchStats(**payload["stats"])
        return QueryResult(
            neighbors=neighbors,
            stats=stats,
            complete=bool(payload["complete"]),
            skipped_segments=list(payload["skipped_segments"]),
            degraded_reason=payload["degraded_reason"],
            # pre-shard peers omit the key; absent means none skipped
            skipped_shards=list(payload.get("skipped_shards", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed result payload: {exc}") from exc
