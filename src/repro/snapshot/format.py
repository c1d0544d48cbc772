"""The versioned binary snapshot layout (mmap-able index image).

A snapshot is one file holding everything a reader needs to serve
queries without touching SQL: the stacked float feature matrices, the
row-id table, the range-index bucket arrays, and (optionally) the IVF
coarse-quantizer state.  Readers ``np.memmap`` the file read-only, so a
replica reaches first-query readiness in milliseconds and co-located
workers share page cache instead of duplicating the matrices per
process.

Layout (all integers little-endian)::

    [ 0: 8)   magic           b"RSNAP1\\r\\n"
    [ 8:12)   format version  u32  (currently 1)
    [12:16)   endian marker   u32  0x01020304 (catches byte-order swaps)
    [16:20)   header crc32    u32  (of the header JSON bytes)
    [20:28)   header length   u64
    [28:  )   header JSON     utf-8
    ...       sections        raw array bytes, each 64-byte aligned

The header JSON carries ``meta`` (writer-defined: generations, frame
metadata, video table) and ``sections`` -- a table of
``{name, offset, nbytes, dtype, shape, crc32}`` entries describing every
array.  Section dtypes are always little-endian (``<f8``, ``<i8``), so a
snapshot written on any host reads identically everywhere.

Writes are atomic: the file is assembled in a temporary sibling and
``os.replace``-d into place, so a crash mid-write can never tear the
live snapshot.  Opening validates the preamble, the header checksum and
the section table against the real file size; the (expensive) per-section
checksums are left to :meth:`Snapshot.verify`, which ``repro snapshot
verify`` runs -- paying a full file read on every open would defeat the
instant cold start the format exists for.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

__all__ = [
    "MAGIC",
    "VERSION",
    "Snapshot",
    "SnapshotError",
    "CorruptSnapshotError",
    "SnapshotVersionError",
    "write_snapshot",
]

MAGIC = b"RSNAP1\r\n"
VERSION = 1
_ENDIAN_MARKER = 0x01020304
_PREAMBLE = struct.Struct("<8sIII Q".replace(" ", ""))
_ALIGN = 64


class SnapshotError(Exception):
    """Base error for snapshot reading/writing."""


class CorruptSnapshotError(SnapshotError):
    """Checksum mismatch, truncation, or malformed structure."""


class SnapshotVersionError(SnapshotError):
    """Unknown format version or wrong byte order."""


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _little_endian(array: np.ndarray) -> np.ndarray:
    """A C-contiguous little-endian view/copy of ``array``."""
    arr = np.ascontiguousarray(array)
    dt = arr.dtype.newbyteorder("<")
    if arr.dtype != dt:
        arr = arr.astype(dt)
    return arr


def write_snapshot(
    path: Union[str, "os.PathLike[str]"],
    arrays: Mapping[str, np.ndarray],
    meta: Mapping[str, object],
) -> None:
    """Atomically write ``arrays`` + ``meta`` as one snapshot file.

    Section order follows ``arrays``' iteration order.  The temporary
    sibling is fsynced before the rename, so after ``write_snapshot``
    returns the snapshot at ``path`` is either the old image or the
    complete new one -- never a torn mix.
    """
    path = os.fspath(path)
    prepared: List[Tuple[str, np.ndarray]] = [
        (name, _little_endian(arr)) for name, arr in arrays.items()
    ]
    # lay the sections out before rendering the header: the header length
    # shifts every offset, so resolve with a fixed-point on the JSON size
    sections: List[Dict[str, object]] = [
        {
            "name": name,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "nbytes": int(arr.nbytes),
            "crc32": zlib.crc32(arr.tobytes()) & 0xFFFFFFFF,
        }
        for name, arr in prepared
    ]

    def render(offsets: List[int], file_size: int) -> bytes:
        table = [dict(s, offset=off) for s, off in zip(sections, offsets)]
        header = {"meta": dict(meta), "sections": table, "file_size": file_size}
        return json.dumps(header, sort_keys=True).encode("utf-8")

    offsets = [0] * len(prepared)
    header_bytes = render(offsets, 0)
    for _ in range(8):  # converges in 2 passes; JSON length is stable after 1
        cursor = _align(_PREAMBLE.size + len(header_bytes))
        offsets = []
        for _name, arr in prepared:
            offsets.append(cursor)
            cursor = _align(cursor + arr.nbytes)
        file_size = cursor
        new_header = render(offsets, file_size)
        if len(new_header) == len(header_bytes):
            header_bytes = new_header
            break
        header_bytes = new_header
    else:  # pragma: no cover - the fixed point always settles
        raise SnapshotError("snapshot header layout did not converge")

    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(
            _PREAMBLE.pack(
                MAGIC,
                VERSION,
                _ENDIAN_MARKER,
                zlib.crc32(header_bytes) & 0xFFFFFFFF,
                len(header_bytes),
            )
        )
        fh.write(header_bytes)
        pos = _PREAMBLE.size + len(header_bytes)
        for (_name, arr), offset in zip(prepared, offsets):
            fh.write(b"\0" * (offset - pos))
            fh.write(arr.tobytes())
            pos = offset + arr.nbytes
        fh.write(b"\0" * (file_size - pos))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _section_table(
    path: str, header: object, start: int
) -> Tuple[Dict[str, object], Dict[str, Dict[str, object]], int]:
    """``(meta, sections by name, file size)`` of a parsed header.

    Every section entry is checked against the layout :func:`write_snapshot`
    gives it: a little-endian numeric dtype, a shape whose size is its byte
    count, and the first 64-byte-aligned offset after the previous section.
    A header that passes its CRC but breaks any of that is corrupt.
    """
    if not isinstance(header, dict):
        raise CorruptSnapshotError(f"{path}: the header is not a JSON object")
    meta, entries = header.get("meta", {}), header.get("sections", [])
    if not isinstance(meta, dict) or not isinstance(entries, list):
        raise CorruptSnapshotError(f"{path}: malformed header meta or section table")
    table: Dict[str, Dict[str, object]] = {}
    cursor = _align(start)
    for entry in entries:
        fields = entry if isinstance(entry, dict) else {}
        name, dtype_str, shape = fields.get("name"), fields.get("dtype"), fields.get("shape")
        numbers = [fields.get(key) for key in ("offset", "nbytes", "crc32")]
        if not (
            isinstance(name, str)
            and name not in table
            and isinstance(dtype_str, str)
            and isinstance(shape, list)
            and all(_is_count(n) for n in numbers + shape)
        ):
            raise CorruptSnapshotError(f"{path}: malformed section entry {entry!r}")
        try:
            dtype = np.dtype(dtype_str)
        except (TypeError, ValueError) as exc:
            raise CorruptSnapshotError(f"{path}: section {name!r}: {exc}") from exc
        if dtype.byteorder not in ("<", "|", "="):
            raise SnapshotVersionError(
                f"{path}: section {name!r} has non-little-endian dtype {dtype_str!r}"
            )
        if dtype.kind not in "biuf":
            raise CorruptSnapshotError(f"{path}: section {name!r} has dtype {dtype_str!r}")
        offset, nbytes, crc = numbers
        if math.prod(shape) * dtype.itemsize != nbytes:
            raise CorruptSnapshotError(
                f"{path}: section {name!r} shape {shape} x {dtype} != {nbytes} bytes"
            )
        if offset != cursor:
            raise CorruptSnapshotError(
                f"{path}: section {name!r} at offset {offset}, the layout puts it at {cursor}"
            )
        cursor = _align(offset + nbytes)
        table[name] = {
            "name": name, "dtype": dtype_str, "shape": shape,
            "offset": offset, "nbytes": nbytes, "crc32": crc,
        }
    if header.get("file_size") != cursor:
        raise CorruptSnapshotError(
            f"{path}: header says {header.get('file_size')!r} bytes, "
            f"its sections end at {cursor}"
        )
    return meta, table, cursor


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class Snapshot:
    """A read-only, memory-mapped snapshot file.

    ``sections[name]`` yields a zero-copy ``np.ndarray`` view into the
    mapping; the OS pages matrix bytes in on first touch and shares them
    across every process mapping the same file.  Views stay valid as
    long as this object (or any view) is referenced.
    """

    def __init__(
        self,
        path: str,
        mm: np.memmap,
        meta: Dict[str, object],
        table: Dict[str, Dict[str, object]],
        file_size: int,
    ):
        self.path = path
        self._mm: Optional[np.memmap] = mm
        self.meta: Dict[str, object] = dict(meta)
        self._table = table
        self.file_size = file_size

    # -- opening ---------------------------------------------------------------

    @classmethod
    def open(cls, path: Union[str, "os.PathLike[str]"]) -> "Snapshot":
        """Map and validate a snapshot (cheap: preamble + header only).

        Raises ``FileNotFoundError`` when absent,
        :class:`SnapshotVersionError` for an unknown version or foreign
        byte order, :class:`CorruptSnapshotError` for a damaged preamble,
        header, or section table.
        """
        path = os.fspath(path)
        size = os.path.getsize(path)
        if size < _PREAMBLE.size:
            raise CorruptSnapshotError(f"{path}: truncated preamble ({size} bytes)")
        mm = np.memmap(path, dtype=np.uint8, mode="r")
        magic, version, endian, header_crc, header_len = _PREAMBLE.unpack_from(
            mm[: _PREAMBLE.size].tobytes()
        )
        if magic != MAGIC:
            raise CorruptSnapshotError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise SnapshotVersionError(
                f"{path}: format version {version}, this reader supports {VERSION}"
            )
        if endian != _ENDIAN_MARKER:
            raise SnapshotVersionError(
                f"{path}: endianness marker 0x{endian:08x} != 0x{_ENDIAN_MARKER:08x}"
            )
        if _PREAMBLE.size + header_len > size:
            raise CorruptSnapshotError(f"{path}: header extends past end of file")
        header_bytes = mm[_PREAMBLE.size : _PREAMBLE.size + header_len].tobytes()
        if zlib.crc32(header_bytes) & 0xFFFFFFFF != header_crc:
            raise CorruptSnapshotError(f"{path}: header checksum mismatch")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptSnapshotError(f"{path}: unreadable header: {exc}") from exc
        meta, table, file_size = _section_table(path, header, _PREAMBLE.size + header_len)
        if file_size != size:
            raise CorruptSnapshotError(
                f"{path}: header says {file_size} bytes, file has {size}"
            )
        return cls(path, mm, meta, table, file_size)

    # -- access ----------------------------------------------------------------

    def section_names(self) -> List[str]:
        return list(self._table)

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def _entry(self, name: str) -> Dict[str, object]:
        try:
            return self._table[name]
        except KeyError:
            raise KeyError(f"snapshot has no section {name!r}") from None

    def section(self, name: str) -> np.ndarray:
        """A zero-copy read-only array view of one section."""
        if self._mm is None:
            raise SnapshotError(f"{self.path}: snapshot is closed")
        entry = self._entry(name)
        offset, nbytes = entry["offset"], entry["nbytes"]
        return (
            self._mm[offset : offset + nbytes]
            .view(np.dtype(entry["dtype"]))
            .reshape(entry["shape"])
        )

    # -- integrity -------------------------------------------------------------

    def verify(self) -> List[str]:
        """Recompute every section checksum; returns the failing names.

        This reads the whole file (unlike :meth:`open`), so it belongs in
        ``repro snapshot verify`` and CI, not on the serving path.
        """
        failures = []
        for name in self.section_names():
            entry = self._entry(name)
            data = self.section(name)
            if zlib.crc32(data.tobytes()) & 0xFFFFFFFF != entry["crc32"]:
                failures.append(name)
        return failures

    def info(self) -> Dict[str, object]:
        """Header summary for ``repro snapshot info``."""
        return {
            "path": self.path,
            "version": VERSION,
            "file_size": self.file_size,
            "meta": dict(self.meta),
            "sections": [
                {
                    "name": name,
                    "dtype": entry["dtype"],
                    "shape": list(entry["shape"]),
                    "nbytes": entry["nbytes"],
                }
                for name, entry in self._table.items()
            ],
        }

    def close(self) -> None:
        """Drop this object's reference to the mapping.

        Existing section views keep their own references, so they stay
        valid; the OS unmaps once the last view is garbage collected.
        """
        self._mm = None
