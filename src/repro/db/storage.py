"""Durability: a database file + a write-ahead log, on one commit sequence.

- ``<path>``      -- the database file: one section per table (its
  ``CREATE TABLE`` text, its row count, the byte length of its rows,
  then the rows, binary encoded), nothing after.
- ``<path>.wal``  -- the write-ahead log: one frame per commit (its
  statements: text + bound parameters), one write and one fsync, so a
  commit replays whole or not at all.

Both files open with magic, a commit sequence and the library token minted
at creation: the log's sequence is its base (frame ``k`` is commit
``base + k``), the database file's the last commit it folds.  The mmap
image of the feature store is stamped with the sequence and catches up
through :func:`read_log`.  On open the file is loaded and the log's later
commits replayed.

A frame is ``<IQ>`` (body length, commit sequence), the body, then a CRC
of all three that runs on from the previous frame's (the first frame's
from the log header's).  Replay stops at the first frame that is torn,
corrupt, or not commit ``base + k``; the next append overwrites it.
``checkpoint()`` renames a fresh file into place, fsyncs the directory,
then restarts the log *in place*: it rewrites the header at the new base
and appends from just past it.  The bytes of earlier generations stay
behind the appends -- every frame in them is at or below the new base,
so none can pass for the next commit -- and the log keeps the most it
ever held between two checkpoints.  Nothing on the write path truncates
the log: releasing a written file's blocks costs tens of ms per MB on a
disk that discards them.  A crash between the rename and the restart
leaves commits in the log that replay skips.

Opening walks the section heads of the mapped database file -- each
DDL parsed once, each section's bounds checked -- and decodes no row.
Each table decodes its section, from a fresh mapping of the open file,
the first time it is used (:meth:`~repro.db.table.Table.defer`); a
corrupt row is a :class:`StorageError` there, not at the open.  A BLOB
cell is not copied: it becomes a :class:`~repro.db.types.Lob` locator
into the open file (:class:`LobFile`), read when a statement needs its
bytes.  A checkpoint decodes every table and points every LOB cell into
the new file.  A file in the ``RDB2`` layout (sections without their
length) is refused (bad magic).
"""

from __future__ import annotations

import mmap
import os
import stat
import struct
import weakref
import zlib
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.db import sql as ast
from repro.db.errors import DatabaseError, StorageError
from repro.db.table import Table
from repro.db.types import (
    Lob,
    cell_checks,
    decode_rows,
    decode_value,
    encode_blob_head,
    encode_value,
)

__all__ = ["LobFile", "Log", "Storage", "read_log"]

_DB_MAGIC = b"RDB3"
_WAL_MAGIC = b"RWL3"
#: magic, commit sequence, library token
_HEADER = struct.Struct("<4sQ16s")
#: a log frame's head: body length, commit sequence
_FRAME = struct.Struct("<IQ")
_U32 = struct.Struct("<I")
#: a table section's head after its DDL: row count, byte length of the rows
_SECTION = struct.Struct("<IQ")
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
    #: offset just past the last intact frame
    end: int
    #: the CRC the next frame runs on from
    crc: int

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
    """Parse a log file; None when it is absent or empty.  The first frame
    that is torn, corrupt or not the next commit ends the log silently: it
    never committed, or belongs to an earlier generation.  Reads frame by
    frame, each frame's sequence before its body, so the bytes a recycled
    log holds past its last commit are never read."""
    path = os.fspath(wal_path)
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    with fh:
        header = fh.read(_HEADER.size)
        if not header:
            return None
        base, token = _read_header(header, _WAL_MAGIC, path)
        size = os.fstat(fh.fileno()).st_size
        commits: List[List[Statement]] = []
        offset, crc = _HEADER.size, zlib.crc32(header)
        while offset + _FRAME.size + _U32.size <= size:
            head = fh.read(_FRAME.size)
            body_len, seq = _FRAME.unpack(head)
            end = offset + _FRAME.size + body_len + _U32.size
            if seq != base + len(commits) + 1 or end > size:
                break  # an earlier generation's frame, or a torn length
            body = fh.read(body_len)
            found = fh.read(_U32.size)
            frame_crc = zlib.crc32(body, zlib.crc32(head, crc))
            if len(found) != _U32.size or _U32.unpack(found)[0] != frame_crc:
                break  # torn/corrupt frame: the log ends here
            try:
                commits.append(_read_commit(body))
            except StorageError:
                break
            offset, crc = end, frame_crc
    return Log(base, token, commits, offset, crc)


class LobFile:
    """An open database file that :class:`Lob` locators read from.  It
    closes with its database, or when the last locator into it is gone."""

    def __init__(self, fd: int, path: str):
        self.path = path
        self.fd = fd
        self._close = weakref.finalize(self, os.close, fd)

    def read(self, offset: int, length: int) -> bytes:
        """``length`` bytes at ``offset``, in one ``pread``."""
        if not self._close.alive:
            raise StorageError(f"{self.path} is closed")
        data = os.pread(self.fd, length, offset)
        if len(data) != length:
            raise StorageError(f"{self.path} ends inside a LOB at offset {offset}")
        return data

    def mapped(self) -> mmap.mmap:
        """The whole file as it is now, mapped for reading."""
        if not self._close.alive:
            raise StorageError(f"{self.path} is closed")
        try:
            return mmap.mmap(self.fd, 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:  # ValueError: the file is empty now
            raise StorageError(f"cannot map {self.path}: {exc}") from exc

    def close(self) -> None:
        self._close()


def _open_file(path: str) -> Optional[LobFile]:
    """The database file, open for reading; None when absent or empty."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise StorageError(f"cannot open {path}: {exc}") from exc
    info = os.fstat(fd)
    if stat.S_ISREG(info.st_mode) and info.st_size:
        return LobFile(fd, path)
    os.close(fd)
    if stat.S_ISREG(info.st_mode):
        return None  # empty: a new database
    raise StorageError(f"{path} is not a database file")


def _read_schema(ddl: str):
    """A table section's schema: its text must be one CREATE TABLE."""
    try:
        stmt, _n = ast.parse(ddl)
    except DatabaseError as exc:
        raise StorageError(f"unreadable table section: {exc}") from exc
    if not isinstance(stmt, ast.CreateTable):
        raise StorageError(f"a table section holds {type(stmt).__name__}, not CREATE TABLE")
    return stmt.schema


def _section_loader(file: LobFile, schema, start: int, end: int, n_rows: int):
    """A table section's rows, decoded from ``start`` to ``end`` of the
    file, mapped again when the table is first used: a file cut short
    since the open fails there, as a LOB read would."""
    cells = [cell_checks(col.sql_type, col.nullable) for col in schema.columns]

    def load() -> list:
        with file.mapped() as buf:
            rows, stop = decode_rows(buf, start, cells, n_rows, file, min(end, len(buf)))
        if stop != end:
            raise StorageError(f"its section holds {end - stop} bytes after its {n_rows} rows")
        return rows

    return load


def _read_tables(buf, file: LobFile) -> Dict[str, Table]:
    """Every table of a mapped database file, in one walk over the section
    heads: each table's rows stay in the file until it is first used."""
    n_tables, offset = _read_u32(buf, _HEADER.size)
    tables: Dict[str, Table] = {}
    for _ in range(n_tables):
        ddl, offset = _read_str(buf, offset)
        table = Table(_read_schema(ddl))
        if table.name in tables:
            raise StorageError(f"table {table.name} appears twice")
        if offset + _SECTION.size > len(buf):
            raise StorageError("file truncated")
        n_rows, length = _SECTION.unpack_from(buf, offset)
        start = offset + _SECTION.size
        end = start + length
        if end > len(buf):
            raise StorageError(f"table {table.name}: its rows run past the end of the file")
        table.defer(_section_loader(file, table.schema, start, end, n_rows))
        tables[table.name] = table
        offset = end
    if offset != len(buf):
        raise StorageError(f"{len(buf) - offset} bytes after the last table")
    return tables


def _fsync_dir(path: str) -> None:
    """Make a rename into ``path``'s directory durable."""
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class Storage:
    """Database file + log bound to one path."""

    def __init__(self, path: Union[str, "os.PathLike[str]"]):
        self.path = os.fspath(path)
        self.wal_path = self.path + ".wal"
        #: a new library's token, until :meth:`load_into` reads the files'
        self.token = os.urandom(16).hex()
        #: the last commit
        self.seq = 0
        #: where the next frame goes in the existing log (None: start one)
        self._log_end: Optional[int] = None
        #: the CRC the next frame runs on from
        self._log_crc = 0
        self._wal_fd: Optional[int] = None
        #: the database file as loaded or last written (its LOBs' home)
        self._file: Optional[LobFile] = None

    def _header(self, magic: bytes) -> bytes:
        return _HEADER.pack(magic, self.seq, bytes.fromhex(self.token))

    # -- log ------------------------------------------------------------------

    def _log_fd(self) -> int:
        """The log, open for writing (created when there is none)."""
        if self._wal_fd is None:
            self._wal_fd = os.open(self.wal_path, os.O_RDWR | os.O_CREAT, 0o666)
        return self._wal_fd

    def _restart_log(self) -> int:
        """Start the log's generation at the last commit: its header,
        written in place; the next frame goes just past it."""
        fd = self._log_fd()
        header = self._header(_WAL_MAGIC)
        os.pwrite(fd, header, 0)
        self._log_end, self._log_crc = _HEADER.size, zlib.crc32(header)
        return fd

    def _append(self, body: bytes) -> None:
        """One frame: length, sequence, body, CRC -- one write, one fsync."""
        fd = self._log_fd() if self._log_end is not None else self._restart_log()
        head = _FRAME.pack(len(body), self.seq + 1)
        crc = zlib.crc32(body, zlib.crc32(head, self._log_crc))
        frame = b"".join((head, body, _U32.pack(crc)))
        if os.pwrite(fd, frame, self._log_end) != len(frame):
            raise StorageError(f"short write to {self.wal_path}")
        os.fsync(fd)
        self.seq += 1
        self._log_end += len(frame)
        self._log_crc = crc

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
        """Write the database file at the last commit, atomically, point
        every LOB cell into it, then restart the log there."""
        chunks = [self._header(_DB_MAGIC), _U32.pack(len(db.tables))]
        pos = len(chunks[0]) + 4
        # per table, its rows with LOB cells: (rowid, row, [(column, offset, length)])
        moved: List[Tuple[Table, list]] = []
        for name in sorted(db.tables):
            table = db.tables[name]
            rows = list(table.rows())
            ddl = _pack_str(table.schema.render_ddl())
            head_at = len(chunks)
            chunks.append(b"")  # the section's head, once its length is known
            pos += len(ddl) + _SECTION.size
            start = pos
            lobs = {table.schema.index_of(c) for c in table.schema.lob_columns}
            placed = []
            for rowid, row in rows:
                cells = []
                for i, value in enumerate(row):
                    if value is None or i not in lobs:
                        chunk = encode_value(value)
                        chunks.append(chunk)
                        pos += len(chunk)
                        continue
                    data = value.read() if isinstance(value, Lob) else value
                    head = encode_blob_head(len(data))
                    chunks += (head, data)
                    cells.append((i, pos + len(head), len(data)))
                    pos += len(head) + len(data)
                if cells:
                    placed.append((rowid, row, cells))
            chunks[head_at] = ddl + _SECTION.pack(len(rows), pos - start)
            moved.append((table, placed))
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        # the old file closes once no locator points into it (a rolled-back
        # transaction's rows may still)
        self._file = _open_file(self.path)
        for table, placed in moved:
            rebound = {}
            for rowid, row, cells in placed:
                values = list(row)
                for i, offset, length in cells:
                    values[i] = Lob(self._file, offset, length)
                rebound[rowid] = tuple(values)
            table.replace_rows(rebound)
        # the log's commits are in the file now; a crash before the restart
        # leaves them for replay to skip.  The rename reaches the disk
        # before the new base does: a log ahead of its file cannot open.
        _fsync_dir(self.path)
        os.fsync(self._restart_log())

    def load_into(self, db) -> None:
        """Populate an empty Database from the database file + the log."""
        if db.tables:
            raise StorageError("load_into requires an empty database")
        log = read_log(self.wal_path)
        file = _open_file(self.path)
        try:
            if file is not None:
                with file.mapped() as buf:
                    self.seq, self.token = _read_header(buf, _DB_MAGIC, self.path)
                    commits = log.after(self.token, self.seq) if log is not None else []
                    db.tables.update(_read_tables(buf, file))
            elif log is not None:  # not checkpointed yet: the log starts at 0
                self.token = log.token
                commits = log.after(self.token, self.seq)
            else:
                commits = []
            for statements in commits:
                for text, params in statements:
                    db.execute(text, params)
        except BaseException:
            if file is not None:
                file.close()
            raise
        self._file = file
        if log is not None:
            self.seq, self._log_end, self._log_crc = log.last, log.end, log.crc

    def close(self) -> None:
        if self._wal_fd is not None:
            os.close(self._wal_fd)
            self._wal_fd = None
        if self._file is not None:
            self._file.close()
