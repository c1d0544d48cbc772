"""The :class:`Database` facade over one stdlib :mod:`sqlite3` connection.

Each statement of the paper's dialect (``docs/sql_dialect.md``) is
checked and rewritten for SQLite (:func:`_prepare`); every :mod:`sqlite3`
error leaves as the :class:`DatabaseError` it stands for.  A durable
library is one file in WAL mode, ``synchronous=FULL`` (one fsync per
commit); each commit also writes its statements (BLOB parameters as NULL)
into ``COMMITS``, numbered by ``commit_seq``, and ``LIBRARY`` holds the library's token and the log's
base (the last commit a checkpoint dropped): the store's image catches up
from them (:func:`repro.core.snapshots.read_log`).
"""

from __future__ import annotations

import contextlib
import datetime
import os
import re
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.db.errors import (CatalogError, ConstraintError, DatabaseError, SqlSyntaxError,
                             StorageError, TransactionError, TypeMismatchError)
from repro.db.types import Statement, encode_commit, type_from_name

__all__ = ["Database", "ResultSet", "build_insert", "build_select", "quote_ident"]

#: prepared statements a database keeps, by text (started over when full)
_PARSE_CACHE_SIZE = 256
_OWN_TABLES = ("COMMITS", "LIBRARY")  # the facade's own tables in a durable library


@dataclass(frozen=True)
class ResultSet:
    """One statement's rows (column -> value dicts, SELECT only) and the
    number of rows it touched or returned."""

    rows: List[Dict[str, object]] = field(default_factory=list)
    rowcount: int = 0

    def scalar(self):
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise DatabaseError(f"scalar() needs one row and column, got {len(self.rows)} row(s)")
        return next(iter(self.rows[0].values()))


# statement builders (R16: the one way to assemble SQL from names)
def quote_ident(name: str) -> str:
    """Validate (and return) one plain SQL identifier."""
    if not isinstance(name, str) or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_$#]*", name):
        raise SqlSyntaxError(f"invalid SQL identifier {name!r}")
    return name


def build_select(table: str, columns: Sequence[str] = ("*",), where_eq: Optional[str] = None,
                 order_by: Sequence[str] = ()) -> str:
    """``SELECT cols FROM table [WHERE col = ?] [ORDER BY cols]``."""
    cols = ", ".join("*" if c == "*" else quote_ident(c) for c in columns)
    text = f"SELECT {cols} FROM {quote_ident(table)}"
    if where_eq is not None:
        text += f" WHERE {quote_ident(where_eq)} = ?"
    if order_by:
        text += " ORDER BY " + ", ".join(quote_ident(c) for c in order_by)
    return text


def build_insert(table: str, columns: Sequence[str]) -> str:
    """``INSERT INTO table (cols) VALUES (?, ...)`` -- one ``?`` per column."""
    if not columns:
        raise SqlSyntaxError("INSERT needs at least one column")
    cols, marks = ", ".join(map(quote_ident, columns)), ", ".join("?" for _ in columns)
    return f"INSERT INTO {quote_ident(table)} ({cols}) VALUES ({marks})"


_VERBS = {"SELECT": "select", "INSERT": "insert", "UPDATE": "update", "DELETE": "delete",
          "CREATE": "create"}
_LITERAL = r"'(?:[^']|'')*'"
#: in DML: a string literal (kept), a form the dialect leaves out, MAX(, or
#: the keyword of a ``DATE '...'`` literal (dropped)
_DML = re.compile(rf"({_LITERAL})|\b(?:(LIMIT|BETWEEN|IN|IS|NOT|GROUP\b|LIKE\s+(?![?']))\b"
                  r"|(COUNT|MIN|SUM|AVG|MAX)\s*\()|\bDATE\s+(?=')", re.I)
_MAX_ONLY = re.compile(r"\s*SELECT\s+MAX\s*\(\s*\w+\s*\)\s+FROM\s+\S+"
                       r"(?:\s+WHERE\s(?:(?!\bORDER\b).)*)?;?\s*", re.I | re.S)
#: the columns an INSERT or an UPDATE writes
_TARGETS = re.compile(r"\s*(?:INSERT\s+INTO\s+\S+\s*\(([^)]*)\)"
                      r"|UPDATE\s+\S+\s+SET\s(.*?)(?:\bWHERE\b|$))", re.I | re.S)
_CREATE = re.compile(r'\s*CREATE\s+TABLE\s+("[^"]+"|\w+)\s*\((.*)\)\s*;?\s*', re.I | re.S)
_COLUMN = re.compile(r'\s*("[^"]+"|\w+)\s+(ORD_\s*\w+|\w+)\s*(?:\(\s*(\d+)\s*\))?(.*)', re.S)
_PRIMARY_KEY = re.compile(r"\s*PRIMARY\s+KEY\s*\((.*)\)\s*", re.I | re.S)


def _name(token: str) -> str:
    return token.strip().strip('"').upper()


def _create_table(text: str) -> str:
    """A ``CREATE TABLE`` in the paper's DDL as SQLite's."""
    m = _CREATE.fullmatch(re.sub(r"\bENABLE\b", "", text, flags=re.I))
    if m is None:
        raise SqlSyntaxError(f"not a CREATE TABLE statement: {text[:60]!r}")
    parts = re.split(r",(?![^(]*\))", m.group(2))
    keys = [_PRIMARY_KEY.fullmatch(part) for part in parts]
    primary = {_name(n) for k in keys if k for n in k.group(1).split(",")}
    unknown, columns = set(primary), []
    for part, key in zip(parts, keys):
        col = _COLUMN.fullmatch(part)
        if key or col is None:
            if not key:
                raise SqlSyntaxError(f"cannot read column definition {part.strip()!r}")
            columns.append(part.strip())
            continue
        name, rest = _name(col.group(1)), col.group(4).strip()
        try:
            sql_type = type_from_name(col.group(2), int(col.group(3)) if col.group(3) else None)
        except TypeMismatchError as exc:
            raise SqlSyntaxError(f"column {name}: {exc}") from exc
        keyed = name in primary or re.search(r"\bPRIMARY\s+KEY\b", rest, re.I)
        if keyed and not re.search(r"\bNOT\s+NULL\b", rest, re.I):
            rest += " NOT NULL"
        unknown.discard(name)
        columns.append(f'"{name}" {sql_type.declared} CONSTRAINT "{name} {sql_type.render()}" '
                       f'CHECK ({sql_type.check(chr(34) + name + chr(34))}) {rest}')
    if unknown:
        raise SqlSyntaxError(f"PRIMARY KEY names unknown column(s) {sorted(unknown)}")
    return f'CREATE TABLE "{_name(m.group(1))}" ({", ".join(columns)})'


def _prepare(text: str) -> Tuple[str, str]:
    """``(kind, SQLite text)`` of one statement of the dialect."""
    kind = _VERBS.get(re.match(r"\s*(?:--[^\n]*\n\s*)*(\w*)", text).group(1).upper())
    if kind is None:
        raise SqlSyntaxError(f"unsupported statement {text.strip()[:40]!r}")
    if kind == "create":
        return kind, _create_table(text)
    aggregate = False

    def rewrite(m: "re.Match") -> str:
        nonlocal aggregate
        literal, keyword, function = m.groups()
        if keyword or function and function.upper() != "MAX":
            raise SqlSyntaxError(f"{(keyword or function).upper()} is outside the dialect")
        aggregate = aggregate or function is not None
        return literal or m.group(0) if function or literal else ""

    sql = _DML.sub(rewrite, text)
    if aggregate and (kind != "select" or not _MAX_ONLY.fullmatch(sql)):
        raise SqlSyntaxError("MAX(col) must be the only item of a SELECT without ORDER BY")
    targets = _TARGETS.match(sql)
    if targets:
        columns, assignments = targets.groups()
        names = [_name(n) for n in (columns.split(",") if columns is not None else re.findall(
            r'("[^"]+"|\w+)\s*=', re.sub(_LITERAL, "", assignments)))]
        if len(set(names)) != len(names):
            raise SqlSyntaxError(f"a column appears twice among {names}")
    head, *order = re.split(r"\bORDER\s+BY\b", sql, 1, flags=re.I)
    if order:  # NULL after every value: last going up, first going down
        items = [item.strip() for item in order[0].strip().rstrip(";").split(",")]
        sql = head + "ORDER BY " + ", ".join(
            f"{i} NULLS {'FIRST' if re.search(r'(?i)DESC$', i) else 'LAST'}" for i in items)
    return kind, sql


def _bind(value):
    """A parameter as SQLite stores it (a date as its ISO string; no bool, no NaN)."""
    if isinstance(value, bool):
        raise TypeMismatchError("bool is not a storable SQL value")
    if isinstance(value, float) and value != value:
        raise TypeMismatchError("NUMBER cannot store NaN")
    if isinstance(value, datetime.date):
        return (value.date() if isinstance(value, datetime.datetime) else value).isoformat()
    return value


def _mapped(exc: Exception) -> DatabaseError:
    """The :class:`DatabaseError` an :mod:`sqlite3` error stands for."""
    text = str(exc)
    if isinstance(exc, sqlite3.IntegrityError):
        return (TypeMismatchError if text.startswith("CHECK") else ConstraintError)(text)
    if isinstance(exc, OverflowError) or "binding parameter" in text:
        return TypeMismatchError(text)
    if re.match(r"no such (table|column)|table \S+ (already exists|has no column)", text):
        return CatalogError(text)
    if re.search(r"syntax error|incomplete input|unrecognized token|bindings|one statement|"
                 r"wrong number of arguments|misuse of aggregate|values for", text):
        return SqlSyntaxError(text)
    return StorageError(text)  # a corrupt, closed or unreadable file; a cell that is no UTF-8


class Database:
    """One SQLite connection (shared behind a lock), the paper's dialect,
    typed errors, and a durable library's commit log.  ``path``,
    ``commit_seq`` (the last commit) and ``token`` are None in memory."""

    def __init__(self, path: Optional[str] = None):
        self.path, self._lock, self.commit_seq, self.token = path, threading.RLock(), None, None
        #: the open transaction's logged statements (None: no transaction)
        self._tx: Optional[List[Statement]] = None
        self._parsed: Dict[str, Tuple[str, str]] = {}
        self._dates: Optional[frozenset] = None  # the DATE columns (None: read again)
        # observability and resilience are opt-in; None keeps execute() lean
        self._m_statements = self._m_seconds = self._policies = None
        self._conn = None
        try:
            self._conn = sqlite3.connect(path or ":memory:", isolation_level=None,
                                         check_same_thread=False)
            self._sql("PRAGMA case_sensitive_like = ON")
            if path is not None:
                if self._sql("PRAGMA journal_mode = WAL")[1] != [("wal",)]:
                    raise StorageError("SQLite refuses WAL mode")
                self._sql("PRAGMA synchronous = FULL")
                self._sql("CREATE TABLE IF NOT EXISTS COMMITS (SEQ INTEGER PRIMARY KEY, BODY)")
                self._sql("CREATE TABLE IF NOT EXISTS LIBRARY (TOKEN TEXT, BASE INTEGER)")
                self._sql("INSERT INTO LIBRARY SELECT ?, 0 WHERE NOT EXISTS (SELECT * FROM LIBRARY)",
                          (os.urandom(16).hex(),))
                rows = self._sql("SELECT TOKEN, BASE FROM LIBRARY")[1]
                if len(rows) != 1 or not (isinstance(rows[0][0], str) and type(rows[0][1]) is int):
                    raise StorageError(f"the library table holds {rows!r}, not one token and base")
                ((last,),) = self._sql("SELECT MAX(SEQ) FROM COMMITS")[1]
                self.token, self.commit_seq = rows[0][0], rows[0][1] if last is None else last
        except (sqlite3.Error, DatabaseError) as exc:
            if self._conn is not None:
                self._conn.close()
            raise StorageError(f"cannot open {path}: {exc}") from exc

    @classmethod
    def open(cls, path) -> "Database":
        """Open (or create) the durable library at ``path``."""
        path = os.fspath(path)
        if os.path.exists(path) and not os.path.isfile(path):
            raise StorageError(f"{path} is not a database file")
        return cls(path)

    @property
    def is_durable(self) -> bool:
        return self.path is not None

    def attach_obs(self, obs) -> None:
        """Count and time each statement in ``obs``'s registry (a disabled
        :class:`repro.obs.Obs` keeps the uninstrumented path)."""
        self._m_statements = self._m_seconds = None
        if obs.enabled:
            self._m_statements = obs.counter("repro_db_statements_total", "SQL statements "
                                             "executed, by statement kind.", labelnames=("kind",))
            self._m_seconds = obs.histogram("repro_db_statement_seconds", "Statement execution "
                                            "time (parse + dispatch).", labelnames=("kind",))

    def attach_resilience(self, policies) -> None:
        """Fire ``policies``' ``db.execute`` fault point before each
        statement; a fault fails the statement (no retry), so an open
        transaction rolls back as on any other statement error."""
        self._policies = policies

    def checkpoint(self, upto: Optional[int] = None) -> None:
        """Drop the logged commits up to ``upto`` (default: all) and move
        the log's base there (:meth:`_fold`), then checkpoint SQLite's WAL
        passively, which does not truncate it (durable only)."""
        if self.path is None:
            raise DatabaseError("checkpoint() requires a durable database")
        with self._lock:
            self._fold(self.commit_seq if upto is None else min(upto, self.commit_seq))
            self._sql("PRAGMA wal_checkpoint(PASSIVE)")

    def _fold(self, upto: int) -> None:
        with self.transaction():
            self._sql("UPDATE LIBRARY SET BASE = MAX(BASE, ?)", (upto,))
            self._sql("DELETE FROM COMMITS WHERE SEQ <= ?", (upto,))

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def _sql(self, text: str, params: Sequence = ()):
        """``(cursor, rows)`` of one statement on the connection."""
        with self._lock:
            try:
                cursor = self._conn.execute(text, params)
                return cursor, cursor.fetchall()
            except (sqlite3.Error, OverflowError, UnicodeDecodeError) as exc:
                raise _mapped(exc) from exc

    def begin(self) -> None:
        with self._lock:
            if self._tx is not None:
                raise TransactionError("transaction already open")
            self._sql("BEGIN IMMEDIATE")
            self._tx = []

    def commit(self) -> None:
        """Commit, logging the transaction's writes as one ``COMMITS`` row."""
        with self._lock:
            if self._tx is None:
                raise TransactionError("no open transaction")
            try:
                if self._tx:
                    self._sql("INSERT INTO COMMITS (SEQ, BODY) VALUES (?, ?)",
                              (self.commit_seq + 1, encode_commit(self._tx)))
                self._sql("COMMIT")
            except BaseException:
                self.rollback()
                raise
            if self._tx:
                self.commit_seq += 1
            self._tx = None

    def rollback(self) -> None:
        with self._lock:
            if self._tx is None:
                raise TransactionError("no open transaction")
            self._tx = self._dates = None  # a rolled-back CREATE TABLE takes its columns along
            if self._conn.in_transaction:
                self._sql("ROLLBACK")

    @contextlib.contextmanager
    def transaction(self):
        """``with db.transaction(): ...`` -- commit on success, rollback on error."""
        self.begin()
        try:
            yield self
        except BaseException:
            self.rollback()
            raise
        self.commit()

    def execute(self, text: str, params: Sequence = ()) -> ResultSet:
        """Run one statement of the dialect with optional ``?`` bind parameters."""
        if self._policies is not None:
            self._policies.fire("db.execute")
        t0 = time.perf_counter() if self._m_statements is not None else 0.0
        kind, sql = self._prepared(text)
        values = tuple(map(_bind, params))
        with self._lock:
            if kind == "select":
                result = self._select(sql, values)
            else:  # a write: in the open transaction, or in its own
                with self.transaction() if self._tx is None else contextlib.nullcontext():
                    result = ResultSet(rowcount=max(self._sql(sql, values)[0].rowcount, 0))
                    if self.path is not None:  # a BLOB is logged as NULL: no replay reads one
                        self._tx.append((text, tuple(None if isinstance(p, (bytes, bytearray))
                                                     else p for p in params)))
                if kind == "create":
                    self._dates = None
        if self._m_statements is not None:
            self._m_statements.labels(kind=kind).inc()
            self._m_seconds.labels(kind=kind).observe(time.perf_counter() - t0)
        return result

    def _prepared(self, text: str) -> Tuple[str, str]:
        """:func:`_prepare`, remembered by text (ingest runs the same few
        INSERTs once per key frame); DDL runs once and is not kept."""
        prepared = self._parsed.get(text)
        if prepared is None:
            prepared = _prepare(text)
            if prepared[0] != "create":
                if len(self._parsed) >= _PARSE_CACHE_SIZE:
                    self._parsed.clear()
                self._parsed[text] = prepared
        return prepared

    def _select(self, sql: str, values: Tuple) -> ResultSet:
        cursor, found = self._sql(sql, values)
        names = [d[0].upper() for d in cursor.description]
        rows = [dict(zip(names, row)) for row in found]
        if self._dates is None:
            self._dates = frozenset(name.upper() for (name,) in self._sql(
                "SELECT p.name FROM sqlite_master AS m, pragma_table_info(m.name) AS p "
                "WHERE m.type = 'table' AND p.type = 'DATE'")[1])
        dates = self._dates.intersection(names)
        try:
            for row in rows if dates else ():
                for name in dates:
                    if row[name] is not None:
                        row[name] = datetime.date.fromisoformat(row[name])
        except (TypeError, ValueError) as exc:  # a cell no CHECK let through
            raise StorageError(f"a DATE cell is no ISO date: {exc}") from exc
        return ResultSet(rows, len(rows))

    def table_names(self) -> List[str]:
        rows = self._sql("SELECT CAST(name AS TEXT) FROM sqlite_master WHERE type = 'table'")[1]
        names = (name.upper() for (name,) in rows)
        return sorted(n for n in names if n not in _OWN_TABLES or self.path is None)

    def create_index(self, table: str, column: str) -> None:
        """An index on ``table.column`` (kept if it exists)."""
        name = f"IX_{quote_ident(table)}_{quote_ident(column)}".upper()
        self._sql(f'CREATE INDEX IF NOT EXISTS "{name}" ON "{table}" ("{column}")')
