"""Save/load an :class:`~repro.core.database.STS3Database` to disk.

A database is a function of its series, parameters, and *segment
layout*, so the on-disk format stores exactly those — set
representations and searchers are rebuilt on load (they are derived
state, and rebuilding guarantees a loaded database is byte-for-byte
equivalent, a property the tests assert via :meth:`verify_integrity`
and query equivalence).  Buffered (not yet flushed) series are stored
too and re-buffered on load.

**Format version 4** (the default, DESIGN.md §12) is built for crash
safety:

- a single-file container: an 8-byte magic, one ``.npz`` payload per
  segment **each followed by a CRC32 footer**, a buffer payload, a JSON
  manifest, and a fixed trailer locating the manifest;
- every write goes to a temp file that is fsynced and then
  ``os.replace``-d over the target, so an interrupted save never
  clobbers the previous good archive;
- :func:`load_database` verifies every checksum and **quarantines**
  corrupt segment payloads (recorded on
  ``db.catalog.quarantined``, surfaced in query results and the
  ``sts3_quarantined_segments`` gauge) instead of raising — only a
  corrupt manifest/trailer, which leaves nothing trustworthy to load,
  is a :class:`~repro.exceptions.DatasetError`;
- the manifest records ``wal_seq``, the last write-ahead-log sequence
  the archive covers, which is what lets :func:`recover_database`
  replay exactly the tail of the WAL (see :mod:`repro.core.wal` and
  docs/durability.md).

Earlier formats still load: v1 (pre-segmentation single grid), v2
(segment table), v3 (v2 + optional packed bitmaps) are one-``.npz``
archives; ``save_database(..., format_version=3)`` still writes one
(now atomically).  Transient I/O errors on either path are retried
with capped, jittered, deterministically-seeded exponential backoff
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
from pathlib import Path
from zlib import crc32

import numpy as np

from .. import faults
from ..exceptions import DatasetError
from ..obs import get_registry, span
from .bitset import BitsetStore
from .cache import QueryResultCache
from .catalog import QuarantineRecord
from .database import STS3Database
from .grid import Bound, Grid
from .wal import WriteAheadLog, decode_series, replay_wal, scan_wal

__all__ = [
    "save_database",
    "load_database",
    "recover_database",
    "verify_archive",
    "default_wal_dir",
]

#: bumped on any incompatible change to the archive layout.
FORMAT_VERSION = 4

#: versions this loader understands.
SUPPORTED_VERSIONS = (1, 2, 3, 4)

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
        if n_dims == 1:
            out.append(flat.copy() if copy else flat)
        else:
            out.append(flat.reshape(length, n_dims))
    return out


def _segment_entry(segment) -> dict:
    grid = segment.grid
    return {
        "size": len(segment),
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


def _npz_bytes(compressed: bool = True, **arrays) -> bytes:
    """``.npz`` bytes for ``arrays``.

    v4 payloads are written *uncompressed* (STORED zip members): that is
    what lets the mmap loader hand out :func:`np.frombuffer` views
    straight over the archive instead of inflating copies.  v3 keeps
    compression — it is a single monolithic blob with no mapped path.
    """
    buf = io.BytesIO()
    if compressed:
        np.savez_compressed(buf, **arrays)
    else:
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
    pack_bitsets: bool = False,
    format_version: int | None = None,
    checkpoint_wal: bool = True,
    extras: dict | None = None,
) -> None:
    """Write ``db`` to ``path`` atomically (temp file + ``os.replace``).

    The default writes format v4 (checksummed, crash-safe);
    ``format_version=3`` keeps the legacy single-``.npz`` layout for
    downgrade paths.  With ``pack_bitsets=True`` every segment's packed
    bitset (built on demand; segments whose memory gate declines are
    skipped) is archived alongside the series, so a loaded database
    answers its first popcount-kernel query without re-packing.

    If the database has an attached write-ahead log, a successful save
    is a *checkpoint*: the archive records the WAL position it covers
    and (with ``checkpoint_wal=True``) retires the now-redundant log
    generations.

    ``extras`` is an opaque JSON-serializable dict stored in the
    manifest and surfaced as ``db.archive_extras`` on load — the hook
    the sharded engine uses to checkpoint its global-id tables inside
    each shard archive (docs/sharding.md).
    """
    version = FORMAT_VERSION if format_version is None else int(format_version)
    if version not in (3, 4):
        raise DatasetError(
            f"can only write format versions 3 and 4, not {format_version!r}"
        )
    path = Path(path)
    wal = getattr(db, "wal", None)
    if wal is not None:
        wal.sync()  # everything the archive captures must be acknowledged
    all_series = db.catalog.all_series()
    with span(
        "persist.save",
        series=len(all_series),
        segments=len(db.catalog.segments),
        buffered=len(db.buffer.series),
        version=version,
    ):
        if version == 3:
            _save_v3(db, path, pack_bitsets, extras)
        else:
            _save_v4(db, path, pack_bitsets, extras)
    db.wal_seq = _header_params(db)["wal_seq"]
    if wal is not None and checkpoint_wal:
        wal.checkpoint()
    get_registry().counter(
        "sts3_persist_total", "database archive writes and reads"
    ).inc(op="save")


def _save_v3(
    db: STS3Database, path: Path, pack_bitsets: bool, extras: dict | None = None
) -> None:
    """Legacy one-``.npz`` archive (format v3), written atomically."""
    if not str(path).endswith(".npz"):
        path = path.with_name(path.name + ".npz")  # np.savez compatibility
    header = {"format_version": 3, **_header_params(db)}
    if extras:
        header["extras"] = extras
    header["segments"] = [_segment_entry(seg) for seg in db.catalog.segments]
    bitset_arrays: dict[str, np.ndarray] = {}
    if pack_bitsets:
        packed_positions = []
        for position, segment in enumerate(db.catalog.segments):
            store = segment.bitset_store()
            if store is None:
                continue
            packed_positions.append(position)
            bitset_arrays[f"bitset_vocab_{position}"] = store.vocab
            bitset_arrays[f"bitset_matrix_{position}"] = store.matrix
        header["bitset_segments"] = packed_positions
    matrix, lengths, n_dims = _pack(db.catalog.all_series())
    buf_matrix, buf_lengths, _ = _pack(db.buffer.series)
    blob = _npz_bytes(
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        n_dims=np.int64(n_dims),
        series=matrix,
        lengths=lengths,
        buffer_series=buf_matrix,
        buffer_lengths=buf_lengths,
        **bitset_arrays,
    )
    _atomic_write(
        path, lambda fh: faults.fault_write(fh, blob, "persist.payload.write"), "save"
    )


def _save_v4(
    db: STS3Database, path: Path, pack_bitsets: bool, extras: dict | None = None
) -> None:
    """Checksummed container: per-segment payloads + manifest + trailer."""
    segment_entries = []
    blobs: list[bytes] = []
    n_dims = 1
    for segment in db.catalog.segments:
        entry = _segment_entry(segment)
        matrix, lengths, n_dims = _pack(segment.series)
        arrays = {"series": matrix, "lengths": lengths}
        entry["bitset"] = False
        if pack_bitsets:
            store = segment.bitset_store()
            if store is not None:
                arrays["bitset_vocab"] = store.vocab
                arrays["bitset_matrix"] = store.matrix
                entry["bitset"] = True
        blob = _npz_bytes(compressed=False, **arrays)
        entry["payload"] = {"length": len(blob), "crc32": crc32(blob)}
        segment_entries.append(entry)
        blobs.append(blob)
    buf_matrix, buf_lengths, _ = _pack(db.buffer.series)
    buffer_blob = _npz_bytes(compressed=False, series=buf_matrix, lengths=buf_lengths)
    buffer_entry = {
        "size": len(db.buffer.series),
        "payload": {"length": len(buffer_blob), "crc32": crc32(buffer_blob)},
    }
    # Assign offsets now that every blob size is known.
    cursor = len(DB_MAGIC)
    for entry, blob in zip(segment_entries + [buffer_entry], blobs + [buffer_blob]):
        entry["payload"]["offset"] = cursor
        cursor += len(blob) + _FOOTER.size
    manifest = {
        "format_version": 4,
        **_header_params(db),
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

    v4 archives are checksum-verified; a segment payload that fails its
    CRC is *quarantined* — the rest of the database loads, the loss is
    recorded on ``db.catalog.quarantined``, and queries degrade
    gracefully (``complete=False``) instead of raising.  Only an
    unreadable manifest (nothing trustworthy to load) raises
    :class:`~repro.exceptions.DatasetError`.

    With ``mmap=True`` (v4 archives only; earlier formats silently fall
    back to the eager path) segment payloads stay on disk: each segment
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
        db = _with_retries("load", lambda: _load_database(path, mmap))
    if cache_bytes:
        db.result_cache = QueryResultCache(int(cache_bytes))
    get_registry().counter(
        "sts3_persist_total", "database archive writes and reads"
    ).inc(op="load")
    return db


def _load_database(path: str | Path, mmap: bool = False) -> STS3Database:
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no database archive at {path}")
    faults.fault_point("persist.read")
    if mmap:
        with open(path, "rb") as fh:
            magic = fh.read(len(DB_MAGIC))
        if magic == DB_MAGIC:
            return _load_v4_mapped(path)
        return _load_legacy(path)  # pre-v4: nothing addressable to map
    data = path.read_bytes()
    if data[: len(DB_MAGIC)] == DB_MAGIC:
        return _load_v4(path, data)
    return _load_legacy(path)


# -- format v4 ----------------------------------------------------------


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
    if manifest.get("format_version") not in SUPPORTED_VERSIONS:
        raise DatasetError(
            f"{path}: unsupported format version "
            f"{manifest.get('format_version')!r} (expected one of "
            f"{SUPPORTED_VERSIONS})"
        )
    return manifest


def _payload_blob(data: bytes, entry: dict) -> tuple[bytes | None, str | None]:
    """The verified blob for a manifest payload entry, or a problem."""
    payload = entry["payload"]
    offset, length = int(payload["offset"]), int(payload["length"])
    end = offset + length
    if end + _FOOTER.size > len(data):
        return None, "payload extends past end of archive"
    blob = data[offset:end]
    (footer,) = _FOOTER.unpack_from(data, end)
    actual = crc32(blob)
    if actual != int(payload["crc32"]) or actual != footer:
        return None, "checksum mismatch"
    return blob, None


def _load_v4(path: Path, data: bytes) -> STS3Database:
    manifest = _read_manifest(path, data)
    n_dims = int(manifest["n_dims"])
    epsilon = manifest["epsilon"]
    if manifest["epsilon_is_tuple"]:
        epsilon = tuple(epsilon)

    survivors: list[tuple[list[np.ndarray], Grid]] = []
    survivor_meta: list[tuple[int, dict, dict | None]] = []  # (pos, entry, bitset)
    quarantined: list[QuarantineRecord] = []
    for position, entry in enumerate(manifest["segments"]):
        name = f"segment-{position}"
        blob, problem = _payload_blob(data, entry)
        if blob is not None:
            try:
                with np.load(io.BytesIO(blob)) as payload:
                    series = _unpack(payload["series"], payload["lengths"], n_dims)
                    bitset = None
                    if entry.get("bitset"):
                        bitset = {
                            "vocab": payload["bitset_vocab"],
                            "matrix": payload["bitset_matrix"],
                        }
            except Exception:
                blob, problem = None, "unreadable payload"
        if blob is None:
            quarantined.append(
                QuarantineRecord(name, int(entry["size"]), problem)
            )
            continue
        if len(series) != int(entry["size"]):
            quarantined.append(
                QuarantineRecord(
                    name,
                    int(entry["size"]),
                    f"payload holds {len(series)} series, manifest says "
                    f"{entry['size']}",
                )
            )
            continue
        survivors.append((series, _segment_grid(entry)))
        survivor_meta.append((position, entry, bitset))
    if not survivors:
        raise DatasetError(
            f"{path}: every segment payload failed verification "
            f"({'; '.join(f'{q.name}: {q.reason}' for q in quarantined)})"
        )

    db = STS3Database.from_segments(
        survivors,
        sigma=manifest["sigma"],
        epsilon=epsilon,
        normalize=manifest["normalize"],
        value_padding=manifest["value_padding"],
        buffer_capacity=manifest["buffer_capacity"],
        default_scale=manifest["default_scale"],
        default_max_scale=manifest["default_max_scale"],
    )
    db.rebuild_count = manifest["rebuild_count"]
    db.wal_seq = int(manifest.get("wal_seq", 0))
    for segment, (position, entry, bitset) in zip(db.catalog.segments, survivor_meta):
        segment.payload_crc32 = int(entry["payload"]["crc32"])
        if bitset is not None:
            _attach_bitset(segment, bitset["vocab"], bitset["matrix"], path)
    for record in quarantined:
        db.catalog.quarantine(record)

    buffer_entry = manifest["buffer_payload"]
    blob, problem = _payload_blob(data, buffer_entry)
    buffered: list[np.ndarray] = []
    if blob is None:
        db.catalog.quarantine(
            QuarantineRecord("buffer", int(buffer_entry["size"]), problem)
        )
    else:
        try:
            with np.load(io.BytesIO(blob)) as payload:
                buffered = _unpack(payload["series"], payload["lengths"], n_dims)
        except Exception:
            db.catalog.quarantine(
                QuarantineRecord(
                    "buffer", int(buffer_entry["size"]), "unreadable payload"
                )
            )
    for series_item in buffered:
        db.buffer.add(series_item)
    db.archive_extras = manifest.get("extras", {})
    return db


def _attach_bitset(segment, vocab, matrix, path) -> None:
    lengths = np.asarray([len(s) for s in segment.sets], dtype=np.int64)
    # from_parts validates the matrix shape against the rebuilt sets,
    # so a truncated archive fails here instead of miscounting.
    segment._bitset = BitsetStore.from_parts(vocab, matrix, lengths)
    segment._bitset_decided = True
    get_registry().gauge(
        "sts3_bitset_bytes_resident",
        "packed bitset bytes, by segment and residency",
    ).set(
        segment._bitset.nbytes,
        segment=str(segment.segment_id),
        state="resident",
    )


# -- format v4, mapped (zero-copy) ---------------------------------------


class _BufferIO(io.RawIOBase):
    """A seekable read-only file over a memoryview (no copies).

    ``zipfile`` needs a file object to walk the npz directory; wrapping
    the mapped blob here lets it read central-directory records without
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
        raise DatasetError("mapped npz member is not an npy array")
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
        raise DatasetError("mapped loader does not support fortran-order arrays")
    dtype = np.dtype(header["descr"])
    shape = header["shape"]
    count = int(np.prod(shape)) if shape else 1
    return np.frombuffer(buf, dtype=dtype, count=count, offset=data_start).reshape(
        shape
    )


def _npz_views(blob) -> dict[str, np.ndarray]:
    """Arrays of an (uncompressed) npz blob as views over its buffer.

    STORED members — what :func:`_npz_bytes` writes for v4 — become
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


def _mapped_payload_problem(data, entry: dict) -> str | None:
    """Structural verification of one payload *without* reading its bytes.

    Bounds and the CRC footer (8 bytes) are checked against the
    manifest; the expensive whole-blob CRC is deferred to first touch
    (:class:`_MappedPayload`).  Damage detectable here quarantines at
    open, exactly like the eager loader.
    """
    payload = entry["payload"]
    offset, length = int(payload["offset"]), int(payload["length"])
    end = offset + length
    if end + _FOOTER.size > len(data):
        return "payload extends past end of archive"
    (footer,) = _FOOTER.unpack_from(data, end)
    if footer != int(payload["crc32"]):
        return "checksum mismatch"
    return None


class _MappedPayload:
    """Zero-arg loader over one mapped v4 payload (:meth:`Segment.lazy`).

    Holds only the archive path and payload coordinates — the memmap is
    opened on first touch.
    """

    def __init__(self, path, offset, length, crc, n_dims, size, has_bitset, name):
        self.path = str(path)
        self.offset = int(offset)
        self.length = int(length)
        self.crc = int(crc)
        self.n_dims = int(n_dims)
        self.size = int(size)
        self.has_bitset = bool(has_bitset)
        self.name = name
        self._mmap = None

    def __call__(self) -> dict:
        if self._mmap is None:
            self._mmap = np.memmap(self.path, dtype=np.uint8, mode="r")
        blob = self._mmap[self.offset : self.offset + self.length]
        # First-touch verification: the one full read the mapped path
        # cannot avoid, paid exactly once per touched segment.
        if crc32(blob) != self.crc:
            raise DatasetError(
                f"{self.path}: payload {self.name} fails its checksum "
                "on first touch"
            )
        arrays = _npz_views(blob)
        series = _unpack(
            arrays["series"], np.asarray(arrays["lengths"]), self.n_dims,
            copy=False,
        )
        if len(series) != self.size:
            raise DatasetError(
                f"{self.path}: payload {self.name} holds {len(series)} "
                f"series, manifest says {self.size}"
            )
        payload: dict = {"series": series}
        if self.has_bitset:
            payload["bitset"] = {
                "vocab": arrays["bitset_vocab"],
                "matrix": arrays["bitset_matrix"],
            }
        return payload


def _load_v4_mapped(path: Path) -> STS3Database:
    """Zero-copy cold start: manifest now, payload bytes on first touch."""
    data = np.memmap(path, dtype=np.uint8, mode="r")
    manifest = _read_manifest(path, data)
    n_dims = int(manifest["n_dims"])
    epsilon = manifest["epsilon"]
    if manifest["epsilon_is_tuple"]:
        epsilon = tuple(epsilon)

    shell = STS3Database._assembly_shell(
        sigma=manifest["sigma"],
        epsilon=epsilon,
        normalize=manifest["normalize"],
        value_padding=manifest["value_padding"],
        default_scale=manifest["default_scale"],
        default_max_scale=manifest["default_max_scale"],
    )
    quarantined: list[QuarantineRecord] = []
    for position, entry in enumerate(manifest["segments"]):
        name = f"segment-{position}"
        problem = _mapped_payload_problem(data, entry)
        if problem is not None:
            quarantined.append(
                QuarantineRecord(name, int(entry["size"]), problem)
            )
            continue
        payload = entry["payload"]
        loader = _MappedPayload(
            path, payload["offset"], payload["length"], payload["crc32"],
            n_dims, entry["size"], bool(entry.get("bitset")), name,
        )
        segment = shell.catalog.adopt_lazy(
            _segment_grid(entry), int(entry["size"]), loader,
            payload_bytes=int(payload["length"]),
        )
        segment.payload_crc32 = int(payload["crc32"])
    if not shell.catalog.segments:
        raise DatasetError(
            f"{path}: every segment payload failed verification "
            f"({'; '.join(f'{q.name}: {q.reason}' for q in quarantined)})"
        )
    shell._finish_assembly(manifest["buffer_capacity"])
    shell.rebuild_count = manifest["rebuild_count"]
    shell.wal_seq = int(manifest.get("wal_seq", 0))
    for record in quarantined:
        shell.catalog.quarantine(record)

    # The buffer is small and mutable (adds re-transform it), so it
    # loads eagerly even on the mapped path.
    buffer_entry = manifest["buffer_payload"]
    blob, problem = _payload_blob(data, buffer_entry)
    buffered: list[np.ndarray] = []
    if blob is None:
        shell.catalog.quarantine(
            QuarantineRecord("buffer", int(buffer_entry["size"]), problem)
        )
    else:
        try:
            with np.load(io.BytesIO(bytes(blob))) as payload:
                buffered = _unpack(payload["series"], payload["lengths"], n_dims)
        except Exception:
            shell.catalog.quarantine(
                QuarantineRecord(
                    "buffer", int(buffer_entry["size"]), "unreadable payload"
                )
            )
    for series_item in buffered:
        shell.buffer.add(series_item)
    shell.archive_extras = manifest.get("extras", {})
    return shell


# -- formats v1-v3 ------------------------------------------------------


def _load_legacy(path: Path) -> STS3Database:
    with np.load(path) as archive:
        try:
            header = json.loads(bytes(archive["header"]).decode())
        except (KeyError, json.JSONDecodeError) as exc:
            raise DatasetError(f"{path} is not an STS3 database archive") from exc
        if header.get("format_version") not in SUPPORTED_VERSIONS:
            raise DatasetError(
                f"{path}: unsupported format version "
                f"{header.get('format_version')!r} (expected one of "
                f"{SUPPORTED_VERSIONS})"
            )
        n_dims = int(archive["n_dims"])
        series = _unpack(archive["series"], archive["lengths"], n_dims)
        buffered = _unpack(archive["buffer_series"], archive["buffer_lengths"], n_dims)
        bitsets: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for position in header.get("bitset_segments", []):
            try:
                bitsets[int(position)] = (
                    archive[f"bitset_vocab_{position}"],
                    archive[f"bitset_matrix_{position}"],
                )
            except KeyError as exc:
                raise DatasetError(
                    f"{path}: header names a packed bitset for segment "
                    f"{position} but the arrays are missing"
                ) from exc

    epsilon = header["epsilon"]
    if header["epsilon_is_tuple"]:
        epsilon = tuple(epsilon)

    if header["format_version"] == 1 or "segments" not in header:
        # Legacy single-grid archive: constructing fresh reproduces the
        # pre-segmentation engine exactly (one bootstrap segment with a
        # tight bound + padding).  Stored series are already normalized;
        # construct raw then restore the flag.
        db = STS3Database(
            series,
            sigma=header["sigma"],
            epsilon=epsilon,
            normalize=False,
            value_padding=header["value_padding"],
            buffer_capacity=header["buffer_capacity"],
            default_scale=header["default_scale"],
            default_max_scale=header["default_max_scale"],
        )
        db.normalize = header["normalize"]
    else:
        payloads = []
        cursor = 0
        for entry in header["segments"]:
            size = int(entry["size"])
            payloads.append((series[cursor : cursor + size], _segment_grid(entry)))
            cursor += size
        if cursor != len(series):
            raise DatasetError(
                f"{path}: segment table covers {cursor} series, archive "
                f"holds {len(series)}"
            )
        db = STS3Database.from_segments(
            payloads,
            sigma=header["sigma"],
            epsilon=epsilon,
            normalize=header["normalize"],
            value_padding=header["value_padding"],
            buffer_capacity=header["buffer_capacity"],
            default_scale=header["default_scale"],
            default_max_scale=header["default_max_scale"],
        )
    db.rebuild_count = header["rebuild_count"]
    db.wal_seq = int(header.get("wal_seq", 0))
    for position, (vocab, matrix) in bitsets.items():
        if not 0 <= position < len(db.catalog.segments):
            raise DatasetError(
                f"{path}: packed bitset refers to segment {position}, "
                f"archive restored {len(db.catalog.segments)} segments"
            )
        _attach_bitset(db.catalog.segments[position], vocab, matrix, path)
    for series_item in buffered:
        db.buffer.add(series_item)
    db.archive_extras = header.get("extras", {})
    return db


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

    Checks the archive's manifest and every payload checksum (v4) or
    basic readability (v1-v3), then scans the WAL for frame damage and
    replay lag (records past the archive's ``wal_seq``).  Never builds
    the database; raises :class:`~repro.exceptions.DatasetError` only
    when the file is entirely unreadable.
    """
    path = Path(path)
    wal_dir = default_wal_dir(path) if wal_dir is None else Path(wal_dir)
    if not path.exists():
        raise DatasetError(f"no database archive at {path}")
    data = path.read_bytes()
    report: dict = {"path": str(path), "payloads": [], "problems": []}
    if data[: len(DB_MAGIC)] == DB_MAGIC:
        manifest = _read_manifest(path, data)
        report["format_version"] = 4
        report["wal_seq"] = int(manifest.get("wal_seq", 0))
        entries = [
            (f"segment-{i}", e) for i, e in enumerate(manifest["segments"])
        ] + [("buffer", manifest["buffer_payload"])]
        for name, entry in entries:
            blob, problem = _payload_blob(data, entry)
            status = "ok" if problem is None else problem
            report["payloads"].append(
                {
                    "name": name,
                    "n_series": int(entry["size"]),
                    "crc32": int(entry["payload"]["crc32"]),
                    "status": status,
                }
            )
            if problem is not None:
                report["problems"].append(f"{name}: {problem}")
    else:
        try:
            with np.load(path) as archive:
                header = json.loads(bytes(archive["header"]).decode())
        except Exception as exc:
            raise DatasetError(f"{path} is not an STS3 database archive") from exc
        report["format_version"] = int(header.get("format_version", 1))
        report["wal_seq"] = int(header.get("wal_seq", 0))
        for position, entry in enumerate(header.get("segments", [])):
            report["payloads"].append(
                {
                    "name": f"segment-{position}",
                    "n_series": int(entry["size"]),
                    "crc32": None,
                    "status": "unchecksummed (pre-v4 archive)",
                }
            )
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
