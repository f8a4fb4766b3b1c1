"""Save/load an :class:`~repro.core.database.STS3Database` to disk.

A database is a function of its series, parameters, and *segment
layout*, so the on-disk format stores exactly those — set
representations, searchers and packed bitsets are rebuilt on load (they
are derived state, and rebuilding guarantees a loaded database is
byte-for-byte equivalent, a property the tests assert via
:meth:`verify_integrity` and query equivalence).  Buffered (not yet
flushed) series are stored too and re-buffered on load.

There is one archive format, **version 4** (DESIGN.md §12), built for
crash safety:

- a single-file container: an 8-byte magic, one uncompressed ``.npz``
  payload (``series`` + ``lengths``) per segment **each followed by a
  CRC32 footer**, a buffer payload, a JSON manifest, and a fixed
  trailer locating the manifest;
- every write goes to a temp file that is fsynced and then
  ``os.replace``-d over the target, so an interrupted save never
  clobbers the previous good archive;
- :func:`load_database` verifies checksums and **quarantines**
  corrupt segment payloads (recorded on
  ``db.catalog.quarantined``, surfaced in query results and the
  ``sts3_quarantined_segments`` gauge) instead of raising — only a
  corrupt manifest/trailer, which leaves nothing trustworthy to load,
  is a :class:`~repro.exceptions.DatasetError`;
- the manifest records ``wal_seq``, the last write-ahead-log sequence
  the archive covers, which is what lets :func:`recover_database`
  replay exactly the tail of the WAL (see :mod:`repro.core.wal` and
  docs/durability.md).

Pre-v4 (one-``.npz``) archives are not read: a file without the v4
magic is a :class:`~repro.exceptions.DatasetError` whose message gives
the re-save recipe.  Transient I/O errors are retried with capped,
jittered, deterministically-seeded exponential backoff
(``sts3_io_retries_total``).
"""

from __future__ import annotations

import ast
import io
import json
import os
import random
import struct
import time
import zipfile
from collections.abc import Sequence
from pathlib import Path
from zlib import crc32

import numpy as np

from .. import faults
from ..exceptions import DatasetError
from ..obs import get_registry, span
from .cache import QueryResultCache
from .catalog import QuarantineRecord
from .database import STS3Database
from .grid import Bound, Grid
from .wal import WriteAheadLog, decode_series, replay_wal, scan_wal

__all__ = [
    "save_database",
    "save_segments",
    "load_database",
    "recover_database",
    "verify_archive",
    "default_wal_dir",
]

#: bumped on any incompatible change to the archive layout.
FORMAT_VERSION = 4

#: first 8 bytes of a v4 archive.
DB_MAGIC = b"STS3DB4\n"

#: trailer: manifest offset (u64), length (u32), crc32 (u32), end magic.
_TRAILER = struct.Struct("<QII8s")
_END_MAGIC = b"STS3END4"
_FOOTER = struct.Struct("<I")  # CRC32 footer after each payload blob

#: retry policy around persistence I/O — exponential backoff with
#: jitter from a deterministically-seeded RNG (reseed `_retry_rng` in
#: tests for reproducible schedules), capped per sleep and in attempts.
RETRY_ATTEMPTS = 4
RETRY_BASE_DELAY = 0.005
RETRY_MAX_DELAY = 0.25
_retry_rng = random.Random(0x5753)


def _with_retries(op: str, fn):
    """Run ``fn`` retrying transient ``OSError`` with backoff.

    :class:`~repro.faults.SimulatedCrash` is *not* an OSError and
    propagates immediately — a crash must never be retried into
    oblivion.  Under an installed fault plan the backoff sleeps on the
    plan's virtual clock, so tests never actually wait.
    """
    plan = faults.get_plan()
    sleep = plan.sleep if plan is not None else time.sleep
    delay = RETRY_BASE_DELAY
    for attempt in range(1, RETRY_ATTEMPTS + 1):
        try:
            return fn()
        except OSError:
            if attempt == RETRY_ATTEMPTS:
                raise
            get_registry().counter(
                "sts3_io_retries_total", "persistence I/O retries, by operation"
            ).inc(op=op)
            sleep(delay * (0.5 + _retry_rng.random()))
            delay = min(delay * 2.0, RETRY_MAX_DELAY)


def default_wal_dir(path: str | Path) -> Path:
    """The conventional WAL directory for the archive at ``path``."""
    return Path(str(path) + ".wal")


def _fsync_directory(directory: Path) -> None:
    """Make a directory entry durable (best-effort off POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def _pack(series_list: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
    """Pad series into one matrix + a lengths vector.

    Multi-dimensional series are flattened per time step; the number of
    dims travels in the header so unpacking can restore the shape.
    """
    if not series_list:
        return np.zeros((0, 0)), np.zeros(0, dtype=np.int64), 1
    n_dims = 1 if series_list[0].ndim == 1 else series_list[0].shape[1]
    lengths = np.asarray([len(s) for s in series_list], dtype=np.int64)
    width = int(lengths.max()) * n_dims
    matrix = np.zeros((len(series_list), width), dtype=np.float64)
    for row, series in zip(matrix, series_list):
        flat = series.reshape(-1)
        row[: flat.size] = flat
    return matrix, lengths, n_dims


def _unpack(
    matrix: np.ndarray, lengths: np.ndarray, n_dims: int, copy: bool = True
) -> list[np.ndarray]:
    """Split a padded matrix back into per-series arrays.

    With ``copy=False`` each series is a *view* into ``matrix`` — the
    zero-copy path over a mapped archive.  Views are read-only there
    (the memmap is opened ``mode="r"``), which is safe: stored series
    are never mutated, only transformed and compared.
    """
    out = []
    for row, length in zip(matrix, lengths.tolist()):
        flat = row[: length * n_dims]
        item = flat if n_dims == 1 else flat.reshape(length, n_dims)
        out.append(item.copy() if copy else item)
    return out


def _segment_entry(size: int, grid: Grid) -> dict:
    return {
        "size": size,
        "bound": {
            "t_min": grid.bound.t_min,
            "t_max": grid.bound.t_max,
            "x_min": list(grid.bound.x_min),
            "x_max": list(grid.bound.x_max),
        },
        "col_width": grid.col_width,
        "row_heights": list(grid.row_heights),
    }


def _segment_grid(entry: dict) -> Grid:
    bound = Bound(
        entry["bound"]["t_min"],
        entry["bound"]["t_max"],
        tuple(entry["bound"]["x_min"]),
        tuple(entry["bound"]["x_max"]),
    )
    return Grid(bound, entry["col_width"], tuple(entry["row_heights"]))


def _header_params(db: STS3Database) -> dict:
    wal = getattr(db, "wal", None)
    return {
        "sigma": db.sigma,
        "epsilon": list(db.epsilon) if isinstance(db.epsilon, tuple) else db.epsilon,
        "epsilon_is_tuple": isinstance(db.epsilon, tuple),
        "normalize": db.normalize,
        "value_padding": db.value_padding,
        "buffer_capacity": db.buffer.capacity,
        "default_scale": db.default_scale,
        "default_max_scale": db.default_max_scale,
        "rebuild_count": db.rebuild_count,
        "wal_seq": wal.last_seq if wal is not None else getattr(db, "wal_seq", 0),
    }


def _npz_bytes(**arrays) -> bytes:
    """``.npz`` bytes for ``arrays``.

    Payloads are written *uncompressed* (STORED zip members): that is
    what lets the mmap loader hand out :func:`np.frombuffer` views
    straight over the archive instead of inflating copies.
    """
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _atomic_write(path: Path, writer, op: str) -> None:
    """Write via temp-then-``os.replace`` so the old file always survives.

    ``writer(fileobj)`` produces the content; any failure (torn write,
    crash, ENOSPC) leaves the target untouched and removes the temp.
    """
    temp = path.with_name(path.name + ".tmp")

    def attempt() -> None:
        try:
            with open(temp, "wb") as fh:
                writer(fh)
                fh.flush()
                faults.fault_point("persist.sync")
                os.fsync(fh.fileno())
            faults.fault_point("persist.rename")
            os.replace(temp, path)
            _fsync_directory(path.parent)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise

    _with_retries(op, attempt)


def save_database(
    db: STS3Database,
    path: str | Path,
    checkpoint_wal: bool = True,
    extras: dict | None = None,
) -> None:
    """Write ``db`` to ``path`` atomically (temp file + ``os.replace``).

    The archive is format v4: checksummed and crash-safe.

    If the database has an attached write-ahead log, a successful save
    is a *checkpoint*: the archive records the WAL position it covers
    and (with ``checkpoint_wal=True``) retires the now-redundant log
    generations.

    ``extras`` is an opaque JSON-serializable dict stored in the
    manifest and surfaced as ``db.archive_extras`` on load — the hook
    the sharded engine uses to checkpoint its global-id tables inside
    each shard archive (docs/sharding.md).
    """
    wal = getattr(db, "wal", None)
    if wal is not None:
        wal.sync()  # everything the archive captures must be acknowledged
    params = _header_params(db)
    save_segments(
        path,
        [(segment.series, segment.grid) for segment in db.catalog.segments],
        params,
        buffered=db.buffer.series,
        extras=extras,
    )
    db.wal_seq = params["wal_seq"]
    if wal is not None and checkpoint_wal:
        wal.checkpoint()


def save_segments(
    path: str | Path,
    segments: list[tuple[list[np.ndarray], Grid]],
    params: dict,
    buffered: Sequence[np.ndarray] = (),
    extras: dict | None = None,
) -> None:
    """Write a v4 archive of ``(series, grid)`` segment pairs atomically.

    The writer behind :func:`save_database`.  An archive holds series
    and grids only (sets are derived state), so a caller that already
    has the series partitioned under known grids — the sharded build —
    writes it without assembling a database or transforming a series.
    ``params`` are the manifest's header fields (:func:`_header_params`
    names them); ``buffered`` series are re-buffered on load.
    """
    path = Path(path)
    with span(
        "persist.save",
        series=sum(len(series) for series, _ in segments),
        segments=len(segments),
        buffered=len(buffered),
        version=FORMAT_VERSION,
    ):
        _write_archive(path, segments, buffered, params, extras)
    get_registry().counter(
        "sts3_persist_total", "database archive writes and reads"
    ).inc(op="save")


def _write_archive(
    path: Path,
    segments: list[tuple[list[np.ndarray], Grid]],
    buffered: Sequence[np.ndarray],
    params: dict,
    extras: dict | None,
) -> None:
    """Checksummed container: per-segment payloads + manifest + trailer."""
    segment_entries = []
    blobs: list[bytes] = []
    n_dims = 1
    for series, grid in segments:
        entry = _segment_entry(len(series), grid)
        matrix, lengths, n_dims = _pack(series)
        blob = _npz_bytes(series=matrix, lengths=lengths)
        entry["payload"] = {"length": len(blob), "crc32": crc32(blob)}
        segment_entries.append(entry)
        blobs.append(blob)
    buf_matrix, buf_lengths, _ = _pack(buffered)
    buffer_blob = _npz_bytes(series=buf_matrix, lengths=buf_lengths)
    buffer_entry = {
        "size": len(buffered),
        "payload": {"length": len(buffer_blob), "crc32": crc32(buffer_blob)},
    }
    # Assign offsets now that every blob size is known.
    cursor = len(DB_MAGIC)
    for entry, blob in zip(segment_entries + [buffer_entry], blobs + [buffer_blob]):
        entry["payload"]["offset"] = cursor
        cursor += len(blob) + _FOOTER.size
    manifest = {
        "format_version": FORMAT_VERSION,
        **params,
        "n_dims": n_dims,
        "segments": segment_entries,
        "buffer_payload": buffer_entry,
    }
    if extras:
        manifest["extras"] = extras
    manifest_bytes = json.dumps(manifest).encode()

    def write(fh) -> None:
        fh.write(DB_MAGIC)
        for blob in blobs:
            faults.fault_write(fh, blob, "persist.payload.write")
            fh.write(_FOOTER.pack(crc32(blob)))
        faults.fault_write(fh, buffer_blob, "persist.payload.write")
        fh.write(_FOOTER.pack(crc32(buffer_blob)))
        faults.fault_write(fh, manifest_bytes, "persist.manifest.write")
        fh.write(
            _TRAILER.pack(cursor, len(manifest_bytes), crc32(manifest_bytes), _END_MAGIC)
        )

    _atomic_write(path, write, "save")


def load_database(
    path: str | Path,
    mmap: bool = False,
    cache_bytes: int = 0,
) -> STS3Database:
    """Rebuild a database previously written by :func:`save_database`.

    Archives are checksum-verified; a segment payload that fails its
    CRC is *quarantined* — the rest of the database loads, the loss is
    recorded on ``db.catalog.quarantined``, and queries degrade
    gracefully (``complete=False``) instead of raising.  Only an
    unreadable manifest (nothing trustworthy to load) or a file that is
    not a v4 archive raises :class:`~repro.exceptions.DatasetError`.

    With ``mmap=True`` segment payloads stay on disk: each segment
    is restored from its manifest row alone and maps its series as
    zero-copy buffer views on first touch.  Checksum verification moves
    with the payload — the manifest, trailer, and per-payload footers
    are still verified at open (structural damage quarantines exactly
    like the eager path), but a payload whose *bytes* rot after open
    raises :class:`~repro.exceptions.DatasetError` at first touch
    instead, since there is no load phase left to quarantine into.

    ``cache_bytes`` sizes the loaded database's query-result cache (see
    :class:`STS3Database`).
    """
    with span("persist.load", mmap=mmap):
        db = _with_retries("load", lambda: _open_archive(path, mmap))
    if cache_bytes:
        db.result_cache = QueryResultCache(int(cache_bytes))
    get_registry().counter(
        "sts3_persist_total", "database archive writes and reads"
    ).inc(op="load")
    return db


def _open_archive(path: str | Path, mmap: bool) -> STS3Database:
    """The one v4 loader: manifest, database shell, then every segment.

    A segment is adopted eagerly (``mmap=False``: full CRC now, a bad
    payload quarantined now) or lazily (``mmap=True``: bounds and
    footer now, full CRC at first touch via :class:`_MappedPayload`).
    """
    path = Path(path)
    faults.fault_point("persist.read")
    data = _archive_data(path, mmap)
    manifest = _read_manifest(path, data)
    n_dims = int(manifest["n_dims"])
    epsilon = manifest["epsilon"]
    if manifest["epsilon_is_tuple"]:
        epsilon = tuple(epsilon)

    db = STS3Database._assembly_shell(
        sigma=manifest["sigma"],
        epsilon=epsilon,
        normalize=manifest["normalize"],
        value_padding=manifest["value_padding"],
        default_scale=manifest["default_scale"],
        default_max_scale=manifest["default_max_scale"],
    )
    quarantined: list[QuarantineRecord] = []
    for position, entry in enumerate(manifest["segments"]):
        name, size = f"segment-{position}", int(entry["size"])
        payload = entry["payload"]
        blob, problem = _payload_blob(data, payload, full_crc=not mmap)
        if problem is None and not mmap:
            series, problem = _decode_series(blob, n_dims, size, copy=True)
        if problem is not None:
            quarantined.append(QuarantineRecord(name, size, problem))
            continue
        if mmap:
            segment = db.catalog.adopt_lazy(
                _segment_grid(entry), size,
                _MappedPayload(path, payload, n_dims, size, name),
                payload_bytes=int(payload["length"]),
            )
        else:
            segment = db.catalog.adopt(series, _segment_grid(entry))
        segment.payload_crc32 = int(payload["crc32"])
    if not db.catalog.segments:
        raise DatasetError(
            f"{path}: every segment payload failed verification "
            f"({'; '.join(f'{q.name}: {q.reason}' for q in quarantined)})"
        )
    db._finish_assembly(manifest["buffer_capacity"])
    db.rebuild_count = manifest["rebuild_count"]
    db.wal_seq = int(manifest.get("wal_seq", 0))
    for record in quarantined:
        db.catalog.quarantine(record)

    # The buffer is small and mutable (adds re-transform it), so it
    # loads eagerly even on the mapped path.
    buffer_entry = manifest["buffer_payload"]
    size = int(buffer_entry["size"])
    blob, problem = _payload_blob(data, buffer_entry["payload"])
    if problem is None:
        buffered, problem = _decode_series(blob, n_dims, size, copy=True)
    if problem is not None:
        db.catalog.quarantine(QuarantineRecord("buffer", size, problem))
    else:
        for series_item in buffered:
            db.buffer.add(series_item)
    db.archive_extras = manifest.get("extras", {})
    return db


def _archive_data(path: Path, mmap: bool):
    """The archive's bytes (a read-only map with ``mmap``), magic checked."""
    if not path.exists():
        raise DatasetError(f"no database archive at {path}")
    with open(path, "rb") as fh:
        if fh.read(len(DB_MAGIC)) != DB_MAGIC:
            raise DatasetError(
                f"{path} is not a v4 STS3 database archive; pre-v4 (.npz) "
                "archives are no longer read.  Open and re-save it with an "
                "earlier build that still reads them: "
                "save_database(load_database(old_path), new_path)"
            )
        if not mmap:
            fh.seek(0)
            return fh.read()
    return np.memmap(path, dtype=np.uint8, mode="r")


def _read_manifest(path: Path, data) -> dict:
    """Parse the manifest out of ``data`` (bytes or a uint8 memmap)."""
    if len(data) < len(DB_MAGIC) + _TRAILER.size:
        raise DatasetError(f"{path}: v4 archive truncated before its trailer")
    offset, length, checksum, end_magic = _TRAILER.unpack_from(
        data, len(data) - _TRAILER.size
    )
    if end_magic != _END_MAGIC:
        raise DatasetError(f"{path}: v4 archive trailer is damaged")
    blob = bytes(data[offset : offset + length])
    if len(blob) < length or crc32(blob) != checksum:
        raise DatasetError(f"{path}: v4 manifest fails its checksum")
    try:
        manifest = json.loads(blob.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatasetError(f"{path}: v4 manifest is not valid JSON") from exc
    if manifest.get("format_version") != FORMAT_VERSION:
        raise DatasetError(
            f"{path}: unsupported format version "
            f"{manifest.get('format_version')!r} (expected {FORMAT_VERSION})"
        )
    return manifest


def _payload_blob(data, payload: dict, full_crc: bool = True) -> tuple:
    """``(blob, problem)`` for one manifest payload; exactly one is None.

    Bounds and the CRC footer are always checked against the manifest;
    ``full_crc=False`` skips the whole-blob CRC, which the mapped open
    defers to first touch (over a memmap the blob is then a view that
    has not been read).
    """
    offset, length = int(payload["offset"]), int(payload["length"])
    end = offset + length
    if end + _FOOTER.size > len(data):
        return None, "payload extends past end of archive"
    (footer,) = _FOOTER.unpack_from(data, end)
    blob = data[offset:end]
    if footer != int(payload["crc32"]) or (full_crc and crc32(blob) != footer):
        return None, "checksum mismatch"
    return blob, None


def _decode_series(blob, n_dims: int, size: int, copy: bool) -> tuple:
    """``(series, problem)`` for a verified payload blob; one is None."""
    try:
        arrays = _npz_views(blob)
        series = _unpack(
            arrays["series"], np.asarray(arrays["lengths"]), n_dims, copy=copy
        )
    except Exception:
        return None, "unreadable payload"
    if len(series) != size:
        return None, f"payload holds {len(series)} series, manifest says {size}"
    return series, None


class _BufferIO(io.RawIOBase):
    """A seekable read-only file over a memoryview (no copies).

    ``zipfile`` needs a file object to walk the npz directory; wrapping
    the blob here lets it read central-directory records without
    materializing the payload.
    """

    def __init__(self, view: memoryview):
        self._view = view
        self._pos = 0

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def seek(self, pos: int, whence: int = io.SEEK_SET) -> int:
        if whence == io.SEEK_SET:
            self._pos = pos
        elif whence == io.SEEK_CUR:
            self._pos += pos
        else:
            self._pos = len(self._view) + pos
        return self._pos

    def tell(self) -> int:
        return self._pos

    def readinto(self, b) -> int:
        n = min(len(b), len(self._view) - self._pos)
        if n <= 0:
            return 0
        b[:n] = self._view[self._pos : self._pos + n]
        self._pos += n
        return n


def _npy_view(buf: memoryview) -> np.ndarray:
    """A zero-copy ndarray over the raw bytes of one ``.npy`` member."""
    if bytes(buf[:6]) != b"\x93NUMPY":
        raise DatasetError("npz member is not an npy array")
    major = buf[6]
    if major == 1:
        (hlen,) = struct.unpack_from("<H", buf, 8)
        header_start = 10
    else:
        (hlen,) = struct.unpack_from("<I", buf, 8)
        header_start = 12
    data_start = header_start + hlen
    header = ast.literal_eval(
        bytes(buf[header_start:data_start]).decode("latin1")
    )
    if header.get("fortran_order"):
        raise DatasetError("archive loader does not support fortran-order arrays")
    dtype = np.dtype(header["descr"])
    shape = header["shape"]
    count = int(np.prod(shape)) if shape else 1
    return np.frombuffer(buf, dtype=dtype, count=count, offset=data_start).reshape(
        shape
    )


def _npz_views(blob) -> dict[str, np.ndarray]:
    """Arrays of an (uncompressed) npz blob as views over its buffer.

    STORED members — what :func:`_npz_bytes` writes — become
    :func:`np.frombuffer` views at ``header_offset + 30 + name_len +
    extra_len`` (the zip local-header layout).  DEFLATED members (old
    archives saved compressed) fall back to an inflated copy, which
    still keeps the load lazy per segment.
    """
    view = memoryview(blob)
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(io.BufferedReader(_BufferIO(view))) as zf:
        for info in zf.infolist():
            name = info.filename
            if name.endswith(".npy"):
                name = name[:-4]
            if info.compress_type == zipfile.ZIP_STORED:
                nlen, xlen = struct.unpack_from(
                    "<HH", view, info.header_offset + 26
                )
                start = info.header_offset + 30 + nlen + xlen
                arrays[name] = _npy_view(view[start : start + info.file_size])
            else:
                arrays[name] = np.load(io.BytesIO(zf.read(info)))
    return arrays


class _MappedPayload:
    """Zero-arg loader over one mapped payload (:meth:`Segment.lazy`).

    Holds only the archive path and payload coordinates — the memmap is
    opened on first touch.
    """

    def __init__(self, path, payload: dict, n_dims: int, size: int, name: str):
        self.path = str(path)
        self.payload = payload
        self.n_dims = n_dims
        self.size = size
        self.name = name
        self._mmap = None

    def __call__(self) -> list[np.ndarray]:
        if self._mmap is None:
            self._mmap = np.memmap(self.path, dtype=np.uint8, mode="r")
        # First-touch verification: the one full read the mapped path
        # cannot avoid, paid exactly once per touched segment.
        blob, problem = _payload_blob(self._mmap, self.payload)
        if problem is None:
            series, problem = _decode_series(
                blob, self.n_dims, self.size, copy=False
            )
        if problem is not None:
            raise DatasetError(
                f"{self.path}: payload {self.name} fails verification on "
                f"first touch ({problem})"
            )
        return series


# -- recovery -----------------------------------------------------------


def apply_wal_records(
    db: STS3Database, records: list[dict], from_seq: int, observer=None
) -> int:
    """Re-apply WAL records with ``seq > from_seq`` to ``db``.

    Replay is deterministic and side-effect-free on the log itself:
    the database's WAL logging is suppressed while records are applied
    (they are already on disk), so recovery never re-writes history.
    Returns the number of records applied.

    ``"note"`` records are annotations other layers interleave with
    mutations (the sharded engine journals each insert's global series
    id this way, docs/sharding.md); they change nothing on replay.
    ``observer(record, info)`` — when given — is called after each
    record is applied, with ``info`` describing what the mutation did:
    for inserts ``{"path": "direct"|"buffered", "sealed": bool}``, for
    flushes ``{"sealed": bool}``, None otherwise.  That is what lets a
    caller rebuild bookkeeping (e.g. id tables) that tracks the
    database's structural transitions without re-deriving them.
    """
    applied = 0
    db._replaying = True
    try:
        for record in records:
            if record["seq"] <= from_seq:
                continue
            op = record["op"]
            info = None
            if op == "note":
                pass  # annotation only; nothing to re-apply
            elif op == "insert":
                report = db._insert_prepared(decode_series(record["series"]))
                info = {"path": report["path"], "sealed": report["sealed_segment"]}
            elif op == "flush":
                rebuilds_before = db.rebuild_count
                db.flush()
                info = {"sealed": db.rebuild_count > rebuilds_before}
            elif op == "compact":
                db.compact(record.get("min_size"))
            elif op == "merge":
                # Background maintenance merges journal their positional
                # run; re-merging the same positions over the replayed
                # layout rebuilds the identical segment (Segment.build
                # is a pure function of the run's series).
                db.merge_run(record["start"], record["stop"])
            else:
                raise DatasetError(f"unknown WAL operation {op!r} during replay")
            if observer is not None:
                observer(record, info)
            applied += 1
    finally:
        db._replaying = False
    return applied


def recover_database(
    path: str | Path,
    wal_dir: str | Path | None = None,
    fsync_batch: int | None = None,
    mmap: bool = False,
    cache_bytes: int = 0,
    observer=None,
) -> STS3Database:
    """Crash recovery: last checkpoint archive + write-ahead-log replay.

    Loads the archive at ``path`` (quarantining corrupt segments),
    replays the WAL tail (records past the archive's ``wal_seq``;
    a torn tail is truncated first), and re-attaches a live WAL so
    the recovered database keeps journaling.  ``wal_dir`` defaults to
    :func:`default_wal_dir`; a missing WAL directory simply means
    nothing to replay.  ``mmap``/``cache_bytes`` are
    forwarded to :func:`load_database` (replaying an insert against a
    mapped segment materializes just that segment); ``observer`` to
    :func:`apply_wal_records`.
    """
    path = Path(path)
    wal_dir = default_wal_dir(path) if wal_dir is None else Path(wal_dir)
    with span("recover", archive=str(path)):
        db = load_database(path, mmap=mmap, cache_bytes=cache_bytes)
        records, report = replay_wal(wal_dir, truncate=True)
        applied = apply_wal_records(
            db, records, from_seq=db.wal_seq, observer=observer
        )
        wal = WriteAheadLog(
            wal_dir,
            **({"fsync_batch": fsync_batch} if fsync_batch is not None else {}),
            start_seq=max(db.wal_seq, report.last_seq),
        )
        db.attach_wal(wal)
    get_registry().counter(
        "sts3_recoveries_total", "databases recovered from archive + WAL"
    ).inc()
    get_registry().counter(
        "sts3_wal_applied_records_total", "WAL records re-applied during recovery"
    ).inc(applied)
    return db


def verify_archive(path: str | Path, wal_dir: str | Path | None = None) -> dict:
    """Offline integrity report for ``sts3 verify`` / ``sts3 inspect``.

    Checks the archive's manifest and every payload checksum, then
    scans the WAL for frame damage and replay lag (records past the
    archive's ``wal_seq``).  Never builds the database; raises
    :class:`~repro.exceptions.DatasetError` only when the file is not a
    readable v4 archive.
    """
    path = Path(path)
    wal_dir = default_wal_dir(path) if wal_dir is None else Path(wal_dir)
    data = _archive_data(path, mmap=False)
    manifest = _read_manifest(path, data)
    report: dict = {
        "path": str(path),
        "format_version": FORMAT_VERSION,
        "wal_seq": int(manifest.get("wal_seq", 0)),
        "payloads": [],
        "problems": [],
    }
    entries = [
        (f"segment-{i}", e) for i, e in enumerate(manifest["segments"])
    ] + [("buffer", manifest["buffer_payload"])]
    for name, entry in entries:
        _, problem = _payload_blob(data, entry["payload"])
        report["payloads"].append(
            {
                "name": name,
                "n_series": int(entry["size"]),
                "crc32": int(entry["payload"]["crc32"]),
                "status": "ok" if problem is None else problem,
            }
        )
        if problem is not None:
            report["problems"].append(f"{name}: {problem}")
    records, wal_report = scan_wal(wal_dir)
    replay_lag = sum(1 for r in records if r["seq"] > report["wal_seq"])
    report["wal"] = {
        "directory": str(wal_dir),
        "present": wal_report.files > 0,
        "records": wal_report.records,
        "replay_lag": replay_lag,
        # checkpoint bookkeeping (sts3 inspect's sharded view renders
        # these as columns): the archive's watermark, the log's highest
        # frame, and how many journaled records a recovery would apply
        "checkpoint_seq": int(report["wal_seq"]),
        "last_seq": int(wal_report.last_seq),
        "records_since_checkpoint": replay_lag,
        "clean": wal_report.clean,
        "problems": list(wal_report.problems),
    }
    report["problems"].extend(wal_report.problems)
    return report
