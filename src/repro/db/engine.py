"""The :class:`Database` facade: execution, transactions, persistence.

Usage::

    db = Database()                      # in-memory
    db = Database.open("corpus.rdb")     # durable (snapshot + WAL)

    db.execute('CREATE TABLE T (ID NUMBER PRIMARY KEY, NAME VARCHAR2(20))')
    db.execute('INSERT INTO T (ID, NAME) VALUES (?, ?)', (1, "intro"))
    rows = db.execute('SELECT * FROM T WHERE ID = ?', (1,)).rows

Write statements auto-commit unless a transaction is open (``begin()`` /
``commit()`` / ``rollback()``, also usable as a context manager via
:meth:`transaction`).  Durable databases append each commit to a WAL as
one record, numbered by :attr:`Database.commit_seq`, and replay it on open;
:meth:`checkpoint` folds the WAL into a snapshot.  A BLOB cell loaded from
the file is a locator; a statement reads its bytes only for its result
rows or a WHERE / ORDER BY / ``MAX()`` that names its column.

A statement resolves its column names and compiles its WHERE clause (its
LIKE patterns included) once, before it looks at a row, so an unknown
column is a :class:`CatalogError` whatever the table holds.  A WHERE
that is one ``column = value`` on the primary key or an indexed column
reads the index instead of every row -- for SELECT, MAX, UPDATE and
DELETE alike -- and selects what the scan would (no row for NULL, a
DATE column's string coerced first).
"""

from __future__ import annotations

import contextlib
import operator
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.db import sql as ast
from repro.db.errors import (
    CatalogError,
    DatabaseError,
    SqlSyntaxError,
    TransactionError,
)
from repro.db.schema import TableSchema
from repro.db.table import Table
from repro.db.types import Lob

__all__ = ["Database", "ResultSet"]

#: parsed statements a database keeps, by text (started over when full)
_PARSE_CACHE_SIZE = 256


@dataclass(frozen=True)
class ResultSet:
    """Outcome of one statement.

    ``rows`` is a list of column->value dicts for SELECT (empty otherwise);
    ``rowcount`` is the number of rows touched (inserted/updated/deleted) or
    returned.
    """

    rows: List[Dict[str, object]] = field(default_factory=list)
    rowcount: int = 0
    statement: str = ""

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self):
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise DatabaseError(
                f"scalar() needs exactly one row and column, got {len(self.rows)} row(s)"
            )
        return next(iter(self.rows[0].values()))


def _like_to_regex(pattern: str) -> "re.Pattern":
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _read_lobs(schema: TableSchema, rows: List[Dict[str, object]], columns) -> None:
    """Read the LOB locators in ``columns`` of ``rows`` (one statement's
    own dicts) into bytes."""
    names = [c for c in columns if c in schema.lob_columns]
    for row in rows:
        for name in names:
            value = row[name]
            if isinstance(value, Lob):
                row[name] = value.read()


#: a row of one statement's scan -> bool / a value
Predicate = Callable[[Dict[str, object]], bool]
Getter = Callable[[Dict[str, object]], object]

_COMPARISONS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _value(node, params: Tuple):
    """A literal's or a bound parameter's value."""
    return params[node.index] if isinstance(node, ast.Param) else node.value


def _operand(node, schema: TableSchema, params: Tuple, other=None):
    """A literal's or a bound parameter's value as compared with ``other``.

    A string compared with a DATE column becomes a date here, once, as
    ``VALUES`` coerces it on insert: ``D = DATE '2012-10-01'`` compares
    dates, not a date with a string.
    """
    value = _value(node, params)
    if isinstance(other, ast.ColumnRef) and isinstance(value, str):
        sql_type = schema.column(other.name).sql_type
        if sql_type.type_name == "DATE":
            value = sql_type.validate(value)
    return value


def _getter(node, schema: TableSchema, params: Tuple, other=None) -> Getter:
    """An operand as a function of the row; a column is resolved here."""
    if not isinstance(node, ast.ColumnRef):
        value = _operand(node, schema, params, other)
        return lambda row: value
    name = schema.column(node.name).name  # CatalogError for an unknown column

    def column(row):
        value = row[name]
        if isinstance(value, Lob):
            value = row[name] = value.read()
        return value

    return column


def _compile(node, schema: TableSchema, params: Tuple) -> Predicate:
    """A WHERE clause as one predicate over the rows of ``schema``: every
    column resolved and every LIKE pattern compiled, once."""
    if node is None:
        return lambda row: True
    if isinstance(node, (ast.And, ast.Or)):
        left = _compile(node.left, schema, params)
        right = _compile(node.right, schema, params)
        if isinstance(node, ast.And):
            return lambda row: left(row) and right(row)
        return lambda row: left(row) or right(row)
    if isinstance(node, ast.Compare):
        return _comparison(
            _COMPARISONS[node.op],
            _getter(node.left, schema, params, node.right),
            _getter(node.right, schema, params, node.left),
        )
    if isinstance(node, ast.Like):
        return _like(_getter(node.operand, schema, params), _value(node.pattern, params))
    raise DatabaseError(f"unexpected WHERE node {node!r}")


def _comparison(compare, left: Getter, right: Getter) -> Predicate:
    def test(row):
        a, b = left(row), right(row)
        if a is None or b is None:
            return False  # SQL three-valued logic: comparisons with NULL are not true
        try:
            return bool(compare(a, b))
        except TypeError as exc:
            raise DatabaseError(
                f"cannot compare {type(a).__name__} with {type(b).__name__}"
            ) from exc

    return test


def _like(operand: Getter, pattern) -> Predicate:
    if pattern is None:
        return lambda row: False
    if not isinstance(pattern, str):
        raise DatabaseError("LIKE requires string operands")
    regex = _like_to_regex(pattern)

    def test(row):
        value = operand(row)
        if value is None:
            return False
        if not isinstance(value, str):
            raise DatabaseError("LIKE requires string operands")
        return regex.match(value) is not None

    return test


def _indexed(table: Table, where, params: Tuple) -> Optional[List[int]]:
    """The rowids a top-level ``column = value`` selects, through the
    column's index or primary key; None when ``where`` needs a scan.  The
    value is the one the compiled predicate compares with."""
    if not (isinstance(where, ast.Compare) and where.op == "="):
        return None
    col, value = where.left, where.right
    if isinstance(value, ast.ColumnRef):
        col, value = value, col
    if not isinstance(col, ast.ColumnRef) or isinstance(value, ast.ColumnRef):
        return None
    return table.lookup_equal(col.name, _operand(value, table.schema, params, col))


class Database:
    """Catalog of tables + statement execution + transactions."""

    #: statement AST class -> metric label
    _STATEMENT_KINDS = {
        "Select": "select",
        "Insert": "insert",
        "Update": "update",
        "Delete": "delete",
        "CreateTable": "create",
    }

    def __init__(self, storage: Optional["repro.db.storage.Storage"] = None):
        self.tables: Dict[str, Table] = {}
        self._storage = storage
        self._tx_snapshot = None
        self._tx_statements: List[Tuple[str, Tuple]] = []
        self._parsed: Dict[str, Tuple[ast.Statement, int]] = {}
        # observability is opt-in (attach_obs); None keeps execute() lean
        self._m_statements = None
        self._m_seconds = None
        # resilience is opt-in (attach_resilience); None keeps execute() lean
        self._policies = None

    def attach_obs(self, obs) -> None:
        """Record per-statement counts and durations into ``obs``'s registry.

        Takes a :class:`repro.obs.Obs`; attaching a disabled facade keeps
        the no-instrumentation fast path.
        """
        if not obs.enabled:
            self._m_statements = None
            self._m_seconds = None
            return
        self._m_statements = obs.counter(
            "repro_db_statements_total",
            "SQL statements executed, by statement kind.",
            labelnames=("kind",),
        )
        self._m_seconds = obs.histogram(
            "repro_db_statement_seconds",
            "Statement execution time (parse + dispatch).",
            labelnames=("kind",),
        )

    def attach_resilience(self, policies) -> None:
        """Fire ``policies``' ``db.execute`` fault point before each statement.

        Takes a :class:`repro.resilience.ResiliencePolicies`.  A fault is
        not retried: it fails the statement, so an open transaction rolls
        back as it would on any other statement error.
        """
        self._policies = policies

    # -- persistence -----------------------------------------------------------

    @classmethod
    def open(cls, path) -> "Database":
        """Open (or create) a durable database at ``path``.

        Loads the snapshot if present, then replays the WAL.
        """
        from repro.db.storage import Storage

        storage = Storage(path)
        db = cls(storage=None)
        storage.load_into(db)
        db._storage = storage
        return db

    @property
    def is_durable(self) -> bool:
        """True when the database is backed by on-disk storage."""
        return self._storage is not None

    @property
    def path(self) -> Optional[str]:
        """The storage file location (None for in-memory databases)."""
        return self._storage.path if self._storage is not None else None

    @property
    def log_path(self) -> Optional[str]:
        """The write-ahead log's location (None for in-memory databases)."""
        return self._storage.wal_path if self._storage is not None else None

    @property
    def commit_seq(self) -> Optional[int]:
        """The last committed write's sequence number (None in memory)."""
        return self._storage.seq if self._storage is not None else None

    @property
    def token(self) -> Optional[str]:
        """The library's token, minted at creation (None in memory)."""
        return self._storage.token if self._storage is not None else None

    def checkpoint(self) -> None:
        """Write a full snapshot and restart the WAL (durable DBs only)."""
        if self._storage is None:
            raise DatabaseError("checkpoint() requires a durable database")
        self._storage.write_snapshot(self)

    def close(self) -> None:
        if self._storage is not None:
            self._storage.close()
            self._storage = None

    # -- transactions ------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._tx_snapshot is not None

    def begin(self) -> None:
        if self.in_transaction:
            raise TransactionError("transaction already open")
        self._tx_snapshot = {
            name: (table, table.snapshot_state()) for name, table in self.tables.items()
        }
        self._tx_statements = []

    def commit(self) -> None:
        if not self.in_transaction:
            raise TransactionError("no open transaction")
        if self._storage is not None:
            self._storage.log_transaction(self._tx_statements)
        self._tx_snapshot = None
        self._tx_statements = []

    def rollback(self) -> None:
        if not self.in_transaction:
            raise TransactionError("no open transaction")
        # Restore exactly the pre-transaction catalog: tables created in the
        # transaction vanish, data reverts.
        restored: Dict[str, Table] = {}
        for name, (table, state) in self._tx_snapshot.items():
            table.restore_state(state)
            restored[name] = table
        self.tables = restored
        self._tx_snapshot = None
        self._tx_statements = []

    @contextlib.contextmanager
    def transaction(self):
        """``with db.transaction(): ...`` -- commit on success, rollback on error."""
        self.begin()
        try:
            yield self
        except BaseException:
            self.rollback()
            raise
        else:
            self.commit()

    # -- execution -------------------------------------------------------------------

    def execute(self, text: str, params: Sequence = ()) -> ResultSet:
        """Parse and run one statement with optional ``?`` bind parameters."""
        if self._policies is not None:
            self._policies.fire("db.execute")
        t0 = time.perf_counter() if self._m_statements is not None else 0.0
        stmt, n_params = self._parse(text)
        if len(params) != n_params:
            raise SqlSyntaxError(
                f"statement has {n_params} parameter(s), {len(params)} given"
            )
        is_write = not isinstance(stmt, ast.Select)
        result = self._dispatch(stmt, tuple(params), text)
        if self._m_statements is not None:
            kind = self._STATEMENT_KINDS.get(type(stmt).__name__, "other")
            self._m_statements.labels(kind=kind).inc()
            self._m_seconds.labels(kind=kind).observe(time.perf_counter() - t0)
        if is_write:
            if self.in_transaction:
                self._tx_statements.append((text, tuple(params)))
            elif self._storage is not None:
                self._storage.log_statement(text, tuple(params))
        return result

    def _parse(self, text: str) -> Tuple[ast.Statement, int]:
        """``ast.parse``, remembered by text: ingest runs the same few
        INSERTs once per key frame.  The AST nodes are frozen, so a parse
        can be shared -- except ``CREATE TABLE``'s, whose ``TableSchema``
        becomes the live table's schema.  A malformed statement raises out
        of ``ast.parse`` every time."""
        parsed = self._parsed.get(text)
        if parsed is None:
            parsed = ast.parse(text)
            if not isinstance(parsed[0], ast.CreateTable):
                if len(self._parsed) >= _PARSE_CACHE_SIZE:
                    self._parsed.clear()
                self._parsed[text] = parsed
        return parsed

    def _dispatch(self, stmt, params: Tuple, text: str) -> ResultSet:
        if isinstance(stmt, ast.CreateTable):
            return self._create_table(stmt, text)
        if isinstance(stmt, ast.Insert):
            return self._insert(stmt, params, text)
        if isinstance(stmt, ast.Select):
            return self._select(stmt, params, text)
        if isinstance(stmt, ast.Update):
            return self._update(stmt, params, text)
        if isinstance(stmt, ast.Delete):
            return self._delete(stmt, params, text)
        raise DatabaseError(f"unhandled statement type {type(stmt).__name__}")

    def _get_table(self, name: str) -> Table:
        table = self.tables.get(name.upper())
        if table is None:
            raise CatalogError(f"no such table {name.upper()!r}")
        return table

    def _create_table(self, stmt: ast.CreateTable, text: str) -> ResultSet:
        name = stmt.schema.name
        if name in self.tables:
            raise CatalogError(f"table {name!r} already exists")
        self.tables[name] = Table(stmt.schema)
        return ResultSet(statement=text)

    def _insert(self, stmt: ast.Insert, params: Tuple, text: str) -> ResultSet:
        table = self._get_table(stmt.table)
        values = [_value(v, params) for v in stmt.values]
        columns = list(stmt.columns) if stmt.columns else table.schema.column_names
        if len(columns) != len(values):
            raise SqlSyntaxError(
                f"INSERT into {table.name} has {len(columns)} columns, {len(values)} values"
            )
        table.insert(dict(zip(columns, values)))
        return ResultSet(statement=text, rowcount=1)

    def _rows_matching(self, table: Table, where, params: Tuple) -> List[Dict[str, object]]:
        predicate = _compile(where, table.schema, params)
        rowids = _indexed(table, where, params)
        if rowids is not None:
            return table.fetch(rowids)
        return table.select_where(predicate)

    def _rowids_matching(self, table: Table, where, params: Tuple) -> Optional[List[int]]:
        """The rowids ``where`` selects; None when it selects every row."""
        predicate = _compile(where, table.schema, params)
        if where is None:
            return None
        rowids = _indexed(table, where, params)
        return rowids if rowids is not None else table.scan(predicate)

    def _select(self, stmt: ast.Select, params: Tuple, text: str) -> ResultSet:
        table = self._get_table(stmt.table)
        schema = table.schema
        if stmt.aggregate is not None:
            return self._max(table, stmt.aggregate, stmt.where, params, text)
        for item in stmt.order_by:
            if not schema.has_column(item.column):
                raise CatalogError(f"ORDER BY references unknown column {item.column!r}")
        wanted = [schema.column(c).name for c in stmt.columns] or schema.column_names
        rows = self._rows_matching(table, stmt.where, params)
        _read_lobs(schema, rows, [item.column.upper() for item in stmt.order_by])
        for item in reversed(stmt.order_by):
            col = item.column.upper()
            rows.sort(
                key=lambda r: (r[col] is None, r[col] if r[col] is not None else 0),
                reverse=item.descending,
            )
        if stmt.columns:
            rows = [{c: r[c] for c in wanted} for r in rows]
        _read_lobs(schema, rows, wanted)
        return ResultSet(rows=rows, rowcount=len(rows), statement=text)

    def _max(
        self, table: Table, agg: ast.Aggregate, where, params: Tuple, text: str
    ) -> ResultSet:
        """``MAX(col)`` over the matched rows: NULLs skipped, NULL when
        none is left."""
        column = table.schema.column(agg.column).name
        cells = table.values(column, self._rowids_matching(table, where, params))
        values = [v.read() if isinstance(v, Lob) else v for v in cells if v is not None]
        result = max(values) if values else None
        return ResultSet(rows=[{agg.label: result}], rowcount=1, statement=text)

    def _update(self, stmt: ast.Update, params: Tuple, text: str) -> ResultSet:
        table = self._get_table(stmt.table)
        rowids = self._rowids_matching(table, stmt.where, params)
        assignments = {col: _value(v, params) for col, v in stmt.assignments}
        count = table.update_rows(assignments, rowids)
        return ResultSet(statement=text, rowcount=count)

    def _delete(self, stmt: ast.Delete, params: Tuple, text: str) -> ResultSet:
        table = self._get_table(stmt.table)
        count = table.delete_rows(self._rowids_matching(table, stmt.where, params))
        return ResultSet(statement=text, rowcount=count)

    # -- conveniences --------------------------------------------------------------------

    def table_names(self) -> List[str]:
        return sorted(self.tables)

    def schema_of(self, name: str) -> TableSchema:
        return self._get_table(name).schema

    def create_index(self, table: str, column: str) -> None:
        self._get_table(table).create_index(column)
