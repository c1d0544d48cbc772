"""Durability: snapshot files + a write-ahead log.

A durable database lives in two files:

- ``<path>``      -- the snapshot: catalog DDL + all rows, binary encoded.
- ``<path>.wal``  -- the write-ahead log: every committed write statement
  (text + bound parameters), CRC-protected, appended and flushed as it
  commits.  A transaction is ONE record holding all of its statements, so
  it commits with one write and one fsync and replays whole or not at all.

On open, the snapshot is loaded and the WAL replayed on top; a torn final
record (crash mid-append) is detected by its CRC and ignored.
``checkpoint()`` folds everything into a fresh snapshot (written to a temp
file and atomically renamed) and truncates the WAL.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import List, Sequence, Tuple, Union

from repro.db.errors import StorageError
from repro.db.types import decode_value, encode_value

__all__ = ["Storage"]

_SNAPSHOT_MAGIC = b"RDB1"
_WAL_MAGIC = b"RWL1"
_U32 = struct.Struct("<I")
#: a record body opening with this word is a transaction (it cannot be a
#: statement's text length: the body would have to be longer than 4 GiB)
_TRANSACTION_MARK = _U32.pack(0xFFFFFFFF)


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def _read_u32(buf: bytes, offset: int) -> Tuple[int, int]:
    if offset + 4 > len(buf):
        raise StorageError("file truncated")
    return _U32.unpack_from(buf, offset)[0], offset + 4


def _read_str(buf: bytes, offset: int) -> Tuple[str, int]:
    n, offset = _read_u32(buf, offset)
    raw = buf[offset : offset + n]
    if len(raw) != n:
        raise StorageError("file truncated")
    try:
        return raw.decode("utf-8"), offset + n
    except UnicodeDecodeError as exc:
        raise StorageError(f"corrupt string data: {exc}") from exc


def _statement_parts(text: str, params: Sequence) -> List[bytes]:
    return [_pack_str(text), _U32.pack(len(params))] + [encode_value(v) for v in params]


def _read_statement(body: bytes, offset: int) -> Tuple[Tuple[str, Tuple], int]:
    """One ``(text, params)`` statement at ``offset``, and where it ends."""
    text, offset = _read_str(body, offset)
    n_params, offset = _read_u32(body, offset)
    params = []
    for _ in range(n_params):
        value, offset = decode_value(body, offset)
        params.append(value)
    return (text, tuple(params)), offset


class Storage:
    """Snapshot + WAL manager bound to one path."""

    def __init__(self, path: Union[str, "os.PathLike[str]"]):
        self.path = os.fspath(path)
        self.wal_path = self.path + ".wal"
        self._wal_fh = None

    # -- WAL ------------------------------------------------------------------

    def _ensure_wal(self):
        if self._wal_fh is None:
            new = not os.path.exists(self.wal_path) or os.path.getsize(self.wal_path) == 0
            self._wal_fh = open(self.wal_path, "ab")
            if new:
                self._wal_fh.write(_WAL_MAGIC)
                self._wal_fh.flush()
        return self._wal_fh

    def _append(self, body: bytes) -> None:
        """One framed record: length, body, CRC -- one write, one fsync."""
        fh = self._ensure_wal()
        fh.write(_U32.pack(len(body)))
        fh.write(body)
        fh.write(_U32.pack(zlib.crc32(body)))
        fh.flush()
        os.fsync(fh.fileno())

    def log_statement(self, text: str, params: Sequence) -> None:
        """Append one committed write statement to the WAL and flush."""
        self._append(b"".join(_statement_parts(text, params)))

    def log_transaction(self, statements: Sequence[Tuple[str, Sequence]]) -> None:
        """Append a committed transaction as one record.

        A crash mid-append tears that one record, which replay drops: the
        database reopens with all of the transaction or none of it.
        """
        if not statements:
            return
        parts = [_TRANSACTION_MARK, _U32.pack(len(statements))]
        for text, params in statements:
            statement = _statement_parts(text, params)
            parts.append(_U32.pack(sum(map(len, statement))))
            parts += statement
        self._append(b"".join(parts))

    def read_wal(self) -> List[Tuple[str, Tuple]]:
        """Parse the WAL; a torn/corrupt tail ends the replay silently."""
        if not os.path.exists(self.wal_path):
            return []
        with open(self.wal_path, "rb") as fh:
            buf = fh.read()
        if not buf:
            return []
        if buf[:4] != _WAL_MAGIC:
            raise StorageError(f"bad WAL magic in {self.wal_path}")
        records: List[Tuple[str, Tuple]] = []
        offset = 4
        while offset < len(buf):
            try:
                body_len, o = _read_u32(buf, offset)
                body = buf[o : o + body_len]
                if len(body) != body_len:
                    break  # torn write
                o += body_len
                crc, o = _read_u32(buf, o)
                if zlib.crc32(body) != crc:
                    break  # torn/corrupt record: stop replay here
                if body[:4] == _TRANSACTION_MARK:
                    statements = []  # decoded whole before any is kept
                    n_statements, bo = _read_u32(body, 4)
                    for _ in range(n_statements):
                        size, bo = _read_u32(body, bo)
                        statement, end = _read_statement(body, bo)
                        if end != bo + size:
                            raise StorageError("transaction record is malformed")
                        statements.append(statement)
                        bo = end
                    records.extend(statements)
                else:  # a lone statement (and every pre-transaction-record WAL)
                    records.append(_read_statement(body, 0)[0])
                offset = o
            except StorageError:
                break
        return records

    # -- snapshot ---------------------------------------------------------------

    def write_snapshot(self, db) -> None:
        """Serialize the whole database, atomically replace, truncate WAL."""
        chunks = [_SNAPSHOT_MAGIC, _U32.pack(len(db.tables))]
        for name in sorted(db.tables):
            table = db.tables[name]
            chunks.append(_pack_str(table.schema.render_ddl()))
            rows = [row for _rid, row in table.rows()]
            chunks.append(_U32.pack(len(rows)))
            for row in rows:
                for value in row:
                    chunks.append(encode_value(value))
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(b"".join(chunks))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        # WAL content is now folded into the snapshot
        if self._wal_fh is not None:
            self._wal_fh.close()
            self._wal_fh = None
        with open(self.wal_path, "wb") as fh:
            fh.write(_WAL_MAGIC)

    def load_into(self, db) -> None:
        """Populate an empty Database from snapshot + WAL."""
        if db.tables:
            raise StorageError("load_into requires an empty database")
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            with open(self.path, "rb") as fh:
                buf = fh.read()
            if buf[:4] != _SNAPSHOT_MAGIC:
                raise StorageError(f"bad snapshot magic in {self.path}")
            offset = 4
            n_tables, offset = _read_u32(buf, offset)
            from repro.db import sql as ast

            for _ in range(n_tables):
                ddl, offset = _read_str(buf, offset)
                db.execute(ddl)
                stmt, _n = ast.parse(ddl)
                table = db.tables[stmt.schema.name]
                n_rows, offset = _read_u32(buf, offset)
                n_cols = len(table.schema.columns)
                for _r in range(n_rows):
                    values = []
                    for _c in range(n_cols):
                        value, offset = decode_value(buf, offset)
                        values.append(value)
                    table.insert(dict(zip(table.schema.column_names, values)))
        for text, params in self.read_wal():
            db.execute(text, params)

    def close(self) -> None:
        if self._wal_fh is not None:
            self._wal_fh.close()
            self._wal_fh = None
