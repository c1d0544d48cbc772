"""Column types for the mini relational engine.

These mirror the types in the paper's DDL (§3.4)::

    CREATE TABLE "VIDEO_STORE" (
        "V_ID"   NUMBER NOT NULL ENABLE,
        "V_NAME" VARCHAR2(60),
        "VIDEO"  ORD_Video,
        "STREAM" BLOB,
        "DOSTORE" DATE, ...)

Each type validates and canonicalizes Python values, and serializes them
for the snapshot/WAL files.  ORD_VIDEO and ORD_IMAGE are Oracle interMedia
object types; here they are BLOBs that additionally know how to decode
their payload (RVF video bytes / PPM-PGM-BMP image bytes).  A BLOB cell
loaded from the database file is a :class:`Lob` locator -- where its bytes
sit in that file -- as Oracle keeps LOBs out of line; statements read it
when they need the bytes.
"""

from __future__ import annotations

import datetime as _dt
import struct
from typing import Callable, Dict, Optional

from repro.db.errors import StorageError, TypeMismatchError

__all__ = [
    "Lob",
    "SqlType",
    "NUMBER",
    "VARCHAR2",
    "DATE",
    "BLOB",
    "ORD_VIDEO",
    "ORD_IMAGE",
    "type_from_name",
    "encode_value",
    "encode_blob_head",
    "decode_value",
    "decode_rows",
    "cell_checks",
]

#: value tags of the snapshot/WAL encoding (see :func:`encode_value`)
_TAG_NULL = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_STR = 3
_TAG_BYTES = 4
_TAG_DATE = 5


class SqlType:
    """Base class: a named type with validation and an SQL rendering."""

    type_name = "ANY"
    #: the value tags (besides NULL) a stored cell of this type may carry
    tags: frozenset = frozenset()
    #: of those, the tags whose decoded value :meth:`validate` always
    #: returns unchanged
    exact_tags: frozenset = frozenset()

    def validate(self, value):
        """Return the canonical Python value, or raise TypeMismatchError."""
        return value

    def render(self) -> str:
        """The type as it appears in DDL."""
        return self.type_name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


class NUMBER(SqlType):
    """Oracle NUMBER: int or float (bools rejected -- they are not numbers)."""

    type_name = "NUMBER"
    tags = frozenset({_TAG_INT, _TAG_FLOAT})
    exact_tags = frozenset({_TAG_INT})  # a float may be NaN

    def validate(self, value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatchError(f"NUMBER expects int/float, got {type(value).__name__}")
        if isinstance(value, float) and (value != value):  # NaN breaks ordering
            raise TypeMismatchError("NUMBER cannot store NaN")
        return value


class VARCHAR2(SqlType):
    """Bounded string. ``VARCHAR2(60)`` rejects strings longer than 60."""

    type_name = "VARCHAR2"
    tags = frozenset({_TAG_STR})

    def __init__(self, max_length: int = 4000):
        if max_length < 1:
            raise TypeMismatchError("VARCHAR2 length must be >= 1")
        self.max_length = max_length

    def validate(self, value):
        if not isinstance(value, str):
            raise TypeMismatchError(f"VARCHAR2 expects str, got {type(value).__name__}")
        if len(value) > self.max_length:
            raise TypeMismatchError(
                f"value of length {len(value)} exceeds VARCHAR2({self.max_length})"
            )
        return value

    def render(self) -> str:
        return f"VARCHAR2({self.max_length})"


class DATE(SqlType):
    """Calendar date (datetime.date). ISO-format strings are coerced."""

    type_name = "DATE"
    tags = frozenset({_TAG_DATE, _TAG_STR})  # an ISO string is coerced
    exact_tags = frozenset({_TAG_DATE})

    def validate(self, value):
        if isinstance(value, _dt.datetime):
            return value.date()
        if isinstance(value, _dt.date):
            return value
        if isinstance(value, str):
            try:
                return _dt.date.fromisoformat(value)
            except ValueError as exc:
                raise TypeMismatchError(f"DATE string must be ISO format: {value!r}") from exc
        raise TypeMismatchError(f"DATE expects date or ISO string, got {type(value).__name__}")


class Lob:
    """A LOB locator: ``length`` bytes at ``offset`` in an open database
    file, read by :meth:`read` (one ``pread``) only when a statement
    needs them."""

    __slots__ = ("file", "offset", "length")

    def __init__(self, file, offset: int, length: int):
        self.file = file
        self.offset = offset
        self.length = length

    def read(self) -> bytes:
        return self.file.read(self.offset, self.length)


class BLOB(SqlType):
    """Arbitrary bytes (or a :class:`Lob` locator to them)."""

    type_name = "BLOB"
    tags = frozenset({_TAG_BYTES})
    exact_tags = tags

    def validate(self, value):
        if isinstance(value, bytearray):
            return bytes(value)
        if not isinstance(value, (bytes, Lob)):
            raise TypeMismatchError(f"BLOB expects bytes, got {type(value).__name__}")
        return value


class ORD_VIDEO(BLOB):
    """Oracle interMedia ORDVideo stand-in: a BLOB holding RVF video bytes."""

    type_name = "ORD_VIDEO"

    @staticmethod
    def decode(value: bytes):
        """Open the stored bytes as an RVF video reader."""
        from repro.video.codec import RvfReader

        return RvfReader(value)


class ORD_IMAGE(BLOB):
    """Oracle interMedia ORDImage stand-in: a BLOB holding encoded image bytes."""

    type_name = "ORD_IMAGE"

    @staticmethod
    def decode(value: bytes):
        """Decode the stored bytes into an Image."""
        from repro.imaging.image import decode_image

        return decode_image(value)


_SIMPLE_TYPES = {
    "NUMBER": NUMBER,
    "DATE": DATE,
    "BLOB": BLOB,
    "ORDVIDEO": ORD_VIDEO,
    "ORDIMAGE": ORD_IMAGE,
}


def type_from_name(name: str, arg: Optional[int] = None) -> SqlType:
    """Instantiate a type from its DDL spelling (case-insensitive).

    Accepts the paper's spacing/underscore variants: ``ORD_Video``,
    ``ORD_ Video`` and ``ORDVideo`` all mean :class:`ORD_VIDEO`.
    """
    key = name.upper().replace(" ", "").replace("_", "")
    if key in ("VARCHAR2", "VARCHAR"):
        return VARCHAR2(arg) if arg is not None else VARCHAR2()
    cls = _SIMPLE_TYPES.get(key)
    if cls is None:
        raise TypeMismatchError(f"unknown SQL type {name!r}")
    if arg is not None:
        raise TypeMismatchError(f"type {name} takes no length argument")
    return cls()


# ---------------------------------------------------------------------------
# binary value encoding for snapshot/WAL files
# ---------------------------------------------------------------------------

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


def encode_blob_head(length: int) -> bytes:
    """The tag + length that precede ``length`` bytes of a BLOB cell."""
    return bytes([_TAG_BYTES]) + _U32.pack(length)


def encode_value(value) -> bytes:
    """Tag + payload encoding of one cell value."""
    if value is None:
        return bytes([_TAG_NULL])
    if isinstance(value, bool):
        raise TypeMismatchError("bool is not a storable SQL value")
    if isinstance(value, int):
        return bytes([_TAG_INT]) + _I64.pack(value)
    if isinstance(value, float):
        return bytes([_TAG_FLOAT]) + _F64.pack(value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return bytes([_TAG_STR]) + _U32.pack(len(raw)) + raw
    if isinstance(value, (bytes, bytearray)):
        return encode_blob_head(len(value)) + bytes(value)
    if isinstance(value, _dt.date):
        raw = value.isoformat().encode("ascii")
        return bytes([_TAG_DATE]) + _U32.pack(len(raw)) + raw
    raise TypeMismatchError(f"cannot encode value of type {type(value).__name__}")


def cell_checks(sql_type: SqlType, nullable: bool) -> Dict[int, Optional[Callable]]:
    """One column's cells as :func:`decode_rows` takes them: per value tag
    the column may hold, the check a decoded value still needs -- None
    where the decode already guarantees what ``sql_type.validate`` would
    (an INT cell is an int, a BYTES cell a LOB).  NULL only if nullable."""
    checks = {
        tag: None if tag in sql_type.exact_tags else sql_type.validate for tag in sql_type.tags
    }
    if nullable:
        checks[_TAG_NULL] = None
    return checks


def decode_rows(buf, offset: int, cells, n_rows: int, file=None, end=None):
    """Decode ``n_rows`` rows at ``offset``; returns ``(rows, next_offset)``.

    ``cells`` holds one :func:`cell_checks` mapping per column: the value
    tags it takes and the check each decoded value must still pass.  A
    BYTES cell becomes a :class:`Lob` into ``file`` -- its length checked
    against ``buf``, its bytes not copied -- or, without a file, bytes.
    No row may run past ``end`` (default: the end of ``buf``).
    """
    size = len(buf) if end is None else end
    rows = []
    try:
        for _ in range(n_rows):
            row = []
            for checks in cells:
                tag = buf[offset]
                offset += 1
                if tag not in checks:
                    if tag == _TAG_NULL:
                        raise StorageError("NULL in a NOT NULL column")
                    raise StorageError(f"value tag {tag} where the column takes {sorted(checks)}")
                if tag == _TAG_NULL:
                    row.append(None)
                    continue
                if tag == _TAG_INT:
                    value = _I64.unpack_from(buf, offset)[0]
                    offset += 8
                elif tag == _TAG_FLOAT:
                    value = _F64.unpack_from(buf, offset)[0]
                    offset += 8
                else:
                    n = _U32.unpack_from(buf, offset)[0]
                    start, offset = offset + 4, offset + 4 + n
                    if offset > size:
                        what = "a LOB" if tag == _TAG_BYTES else "a value"
                        raise StorageError(
                            f"value payload truncated: the stream ends inside {what} at offset {start}"
                        )
                    if tag != _TAG_BYTES:
                        value = buf[start:offset].decode("utf-8")
                        if tag == _TAG_DATE:
                            value = _dt.date.fromisoformat(value)
                    elif file is None:
                        value = buf[start:offset]
                    else:
                        value = Lob(file, start, n)
                check = checks[tag]
                row.append(value if check is None else check(value))
            if offset > size:
                raise StorageError("value stream truncated")
            rows.append(tuple(row))
    except (IndexError, struct.error) as exc:
        raise StorageError("value stream truncated") from exc
    except ValueError as exc:  # bad UTF-8, a malformed date
        raise StorageError(f"corrupt encoded value: {exc}") from exc
    return rows, offset


#: :func:`decode_value`'s one column: any tag, no check
_ANY_CELL = (dict.fromkeys(range(_TAG_DATE + 1)),)


def decode_value(buf: bytes, offset: int):
    """Decode one value; returns ``(value, next_offset)``."""
    rows, offset = decode_rows(buf, offset, _ANY_CELL, 1)
    return rows[0][0], offset
