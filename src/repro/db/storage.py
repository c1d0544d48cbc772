"""Durability: a database file + a write-ahead log, on one commit sequence.

- ``<path>``      -- the database file: catalog DDL + all rows, binary encoded.
- ``<path>.wal``  -- the write-ahead log: one CRC-framed record per commit
  (its statements: text + bound parameters), one write and one fsync, so a
  commit replays whole or not at all.

Both files open with magic, a commit sequence and the library token minted
at creation: the log's sequence is its base (record ``k`` is commit
``base + k``), the database file's the last commit it folds.  The mmap
image of the feature store is stamped with the sequence and catches up
through :func:`read_log`.  On open the file is loaded and the log's later
commits replayed; a torn final record is dropped and the next append
overwrites it.  ``checkpoint()`` renames a fresh file into place, then
restarts the log; a crash between the two leaves commits in the log that
replay skips.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.db.errors import StorageError
from repro.db.types import decode_value, encode_value

__all__ = ["Log", "Storage", "read_log"]

_DB_MAGIC = b"RDB2"
_WAL_MAGIC = b"RWL2"
#: magic, commit sequence, library token
_HEADER = struct.Struct("<4sQ16s")
_U32 = struct.Struct("<I")
#: a record body opening with this word is a transaction (it cannot be a
#: statement's text length: the body would have to be longer than 4 GiB)
_TRANSACTION_MARK = _U32.pack(0xFFFFFFFF)

#: one logged statement: ``(text, params)``
Statement = Tuple[str, Tuple]


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


def _read_header(buf: bytes, magic: bytes, path: str) -> Tuple[int, str]:
    """``(sequence, token)`` of a database or log file."""
    if len(buf) < _HEADER.size:
        raise StorageError(f"truncated header in {path}")
    found, seq, token = _HEADER.unpack_from(buf)
    if found != magic:
        raise StorageError(f"bad magic {found!r} in {path}")
    return seq, token.hex()


def _statement_parts(text: str, params: Sequence) -> List[bytes]:
    return [_pack_str(text), _U32.pack(len(params))] + [encode_value(v) for v in params]


def _read_statement(body: bytes, offset: int) -> Tuple[Statement, int]:
    """One ``(text, params)`` statement at ``offset``, and where it ends."""
    text, offset = _read_str(body, offset)
    n_params, offset = _read_u32(body, offset)
    params = []
    for _ in range(n_params):
        value, offset = decode_value(body, offset)
        params.append(value)
    return (text, tuple(params)), offset


def _read_commit(body: bytes) -> List[Statement]:
    """The statements of one record body, decoded whole before any is kept."""
    if body[:4] != _TRANSACTION_MARK:  # a lone statement (an auto-commit)
        return [_read_statement(body, 0)[0]]
    statements = []
    n_statements, offset = _read_u32(body, 4)
    for _ in range(n_statements):
        size, offset = _read_u32(body, offset)
        statement, end = _read_statement(body, offset)
        if end != offset + size:
            raise StorageError("transaction record is malformed")
        statements.append(statement)
        offset = end
    return statements


class Log(NamedTuple):
    """A log file as read: its header and every intact commit, in order
    (commit ``base + 1 + i`` is ``commits[i]``)."""

    base: int
    token: str
    commits: List[List[Statement]]
    #: offset just past the last intact record
    end: int

    @property
    def last(self) -> int:
        """The sequence of the last intact commit."""
        return self.base + len(self.commits)

    def after(self, token: str, seq: int) -> List[List[Statement]]:
        """The commits after ``seq`` in library ``token``'s history;
        :class:`StorageError` when this log cannot say what they are."""
        if token != self.token:
            raise StorageError("the log belongs to another library")
        if not self.base <= seq <= self.last:
            raise StorageError(
                f"the log holds commits {self.base + 1}..{self.last}, "
                f"not those after {seq}"
            )
        return self.commits[seq - self.base :]


def read_log(wal_path: Union[str, "os.PathLike[str]"]) -> Optional[Log]:
    """Parse a log file; None when it is absent or empty.  A torn or
    corrupt record ends the log silently: it never committed."""
    try:
        with open(wal_path, "rb") as fh:
            buf = fh.read()
    except FileNotFoundError:
        return None
    if not buf:
        return None
    base, token = _read_header(buf, _WAL_MAGIC, os.fspath(wal_path))
    commits: List[List[Statement]] = []
    offset = _HEADER.size
    while offset < len(buf):
        try:
            body_len, o = _read_u32(buf, offset)
            body = buf[o : o + body_len]
            if len(body) != body_len:
                break  # torn write
            crc, o = _read_u32(buf, o + body_len)
            if zlib.crc32(body) != crc:
                break  # torn/corrupt record: the log ends here
            commits.append(_read_commit(body))
        except StorageError:
            break
        offset = o
    return Log(base, token, commits, offset)


class Storage:
    """Database file + log bound to one path."""

    def __init__(self, path: Union[str, "os.PathLike[str]"]):
        self.path = os.fspath(path)
        self.wal_path = self.path + ".wal"
        #: a new library's token, until :meth:`load_into` reads the files'
        self.token = os.urandom(16).hex()
        #: the last commit
        self.seq = 0
        #: where the next record goes in the existing log (None: start one)
        self._log_end: Optional[int] = None
        self._wal_fh = None

    def _header(self, magic: bytes) -> bytes:
        return _HEADER.pack(magic, self.seq, bytes.fromhex(self.token))

    # -- log ------------------------------------------------------------------

    def _ensure_wal(self):
        if self._wal_fh is None:
            if self._log_end is None:
                self._wal_fh = open(self.wal_path, "wb")
                self._wal_fh.write(self._header(_WAL_MAGIC))
            else:  # drop a torn tail: record k must stay commit base + k
                self._wal_fh = open(self.wal_path, "r+b")
                self._wal_fh.truncate(self._log_end)
                self._wal_fh.seek(self._log_end)
        return self._wal_fh

    def _append(self, body: bytes) -> None:
        """One framed record: length, body, CRC -- one write, one fsync."""
        fh = self._ensure_wal()
        fh.write(_U32.pack(len(body)))
        fh.write(body)
        fh.write(_U32.pack(zlib.crc32(body)))
        fh.flush()
        os.fsync(fh.fileno())
        self.seq += 1

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

    # -- database file ------------------------------------------------------------

    def write_snapshot(self, db) -> None:
        """Write the database file at the last commit, atomically, then
        restart the log there."""
        chunks = [self._header(_DB_MAGIC), _U32.pack(len(db.tables))]
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
        # the log's commits are in the file now; a crash before the restart
        # leaves them for replay to skip
        self.close()
        self._wal_fh = open(self.wal_path, "wb")
        self._wal_fh.write(self._header(_WAL_MAGIC))
        self._wal_fh.flush()

    def load_into(self, db) -> None:
        """Populate an empty Database from the database file + the log."""
        if db.tables:
            raise StorageError("load_into requires an empty database")
        buf = b""
        if os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                buf = fh.read()
        log = read_log(self.wal_path)
        if buf:
            self.seq, self.token = _read_header(buf, _DB_MAGIC, self.path)
        elif log is not None:  # not checkpointed yet: the log starts at 0
            self.token = log.token
        commits = log.after(self.token, self.seq) if log is not None else []
        if buf:
            from repro.db import sql as ast

            n_tables, offset = _read_u32(buf, _HEADER.size)
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
        for statements in commits:
            for text, params in statements:
                db.execute(text, params)
        if log is not None:
            self.seq, self._log_end = log.last, log.end

    def close(self) -> None:
        if self._wal_fh is not None:
            self._wal_fh.close()
            self._wal_fh = None
