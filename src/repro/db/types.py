"""The paper's column types (§3.4 DDL) and the ``COMMITS`` body codec.

Each type is a named CHECK constraint on its SQLite column: a cell keeps
the value it was bound with, and one that does not fit is refused.  A
``COMMITS`` body is a CRC-32 of the rest, then JSON: a list of ``[text,
[parameter, ...]]``, a BLOB parameter as ``{"b": base64}``, a date as
``{"d": iso}``.
"""

from __future__ import annotations

import base64
import binascii
import datetime as _dt
import json
import zlib
from typing import List, Optional, Tuple

from repro.db.errors import StorageError, TypeMismatchError

__all__ = ["SqlType", "NUMBER", "VARCHAR2", "DATE", "BLOB", "ORD_VIDEO", "ORD_IMAGE",
           "type_from_name", "encode_commit", "decode_commit"]

Statement = Tuple[str, Tuple]  # one logged statement: (text, params)


class SqlType:
    """A column type: its DDL spelling, the SQLite storage classes a cell
    may hold besides NULL, the type SQLite is told (empty: no affinity, so
    no conversion) and the CHECK that keeps a column to it."""

    type_name, storage, declared = "ANY", (), ""

    def check(self, column: str) -> str:
        """The CHECK expression on ``column`` (quoted)."""
        return f"typeof({column}) IN ({', '.join(repr(s) for s in self.storage + ('null',))})"

    def render(self) -> str:
        return self.type_name


class NUMBER(SqlType):
    """Oracle NUMBER: int or float (bools and NaN are refused at bind)."""

    type_name, storage = "NUMBER", ("integer", "real")


class VARCHAR2(SqlType):
    """Bounded string: ``VARCHAR2(60)`` refuses strings longer than 60."""

    type_name, storage = "VARCHAR2", ("text",)

    def __init__(self, max_length: int = 4000):
        if max_length < 1:
            raise TypeMismatchError("VARCHAR2 length must be >= 1")
        self.max_length = max_length

    def check(self, column: str) -> str:
        return f"{super().check(column)} AND length({column}) <= {self.max_length}"

    def render(self) -> str:
        return f"VARCHAR2({self.max_length})"


class DATE(SqlType):
    """Calendar date, stored as its ISO string."""

    type_name = declared = "DATE"

    def check(self, column: str) -> str:
        return f"date({column}) IS {column}"


class BLOB(SqlType):
    """Arbitrary bytes."""

    type_name, storage = "BLOB", ("blob",)


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


_SIMPLE_TYPES = {"NUMBER": NUMBER, "DATE": DATE, "BLOB": BLOB, "ORDVIDEO": ORD_VIDEO,
                 "ORDIMAGE": ORD_IMAGE}


def type_from_name(name: str, arg: Optional[int] = None) -> SqlType:
    """A type from its DDL spelling (case-insensitive; ``ORD_Video``,
    ``ORD_ Video`` and ``ORDVideo`` all mean :class:`ORD_VIDEO`)."""
    key = name.upper().replace(" ", "").replace("_", "")
    if key in ("VARCHAR2", "VARCHAR"):
        return VARCHAR2(arg) if arg is not None else VARCHAR2()
    if key not in _SIMPLE_TYPES:
        raise TypeMismatchError(f"unknown SQL type {name!r}")
    if arg is not None:
        raise TypeMismatchError(f"type {name} takes no length argument")
    return _SIMPLE_TYPES[key]()


def _tagged(value):
    if isinstance(value, bool):
        raise TypeMismatchError("bool is not a storable SQL value")
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return {"b": base64.b64encode(value).decode("ascii")}
    if isinstance(value, _dt.date):
        return {"d": value.isoformat()}
    raise TypeMismatchError(f"cannot encode value of type {type(value).__name__}")


def _untagged(item):
    if item is None or type(item) in (int, float, str):
        return item
    if isinstance(item, dict) and len(item) == 1 and next(iter(item)) in ("b", "d"):
        ((tag, text),) = item.items()
        return base64.b64decode(text, validate=True) if tag == "b" else _dt.date.fromisoformat(text)
    raise StorageError(f"{item!r} is no encoded value")


def encode_commit(statements) -> bytes:
    """One ``COMMITS`` body."""
    rest = json.dumps([[text, [_tagged(v) for v in params]] for text, params in statements])
    return zlib.crc32(rest.encode("ascii")).to_bytes(4, "little") + rest.encode("ascii")


def decode_commit(body: bytes) -> List[Statement]:
    """The statements of one ``COMMITS`` body; one that fails its CRC or
    does not hold statements is :class:`StorageError`."""
    body = bytes(body)
    if len(body) < 4 or int.from_bytes(body[:4], "little") != zlib.crc32(body[4:]):
        raise StorageError("a commit body fails its CRC")
    try:
        statements = json.loads(body[4:].decode("ascii"))
        if not isinstance(statements, list) or not all(
                isinstance(s, list) and len(s) == 2 and isinstance(s[0], str)
                and isinstance(s[1], list) for s in statements):
            raise StorageError("a commit body holds no list of statements")
        return [(text, tuple(map(_untagged, params))) for text, params in statements]
    except (ValueError, TypeError, RecursionError, binascii.Error) as exc:
        raise StorageError(f"a commit body is malformed: {exc}") from exc
