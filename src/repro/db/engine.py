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
:meth:`checkpoint` folds the WAL into a snapshot.
"""

from __future__ import annotations

import contextlib
import re
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.db import sql as ast
from repro.db.errors import (
    CatalogError,
    DatabaseError,
    SqlSyntaxError,
    TransactionError,
)
from repro.db.schema import TableSchema
from repro.db.table import Table

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


class _Evaluator:
    """Compiles WHERE ASTs against a schema and bound parameters."""

    def __init__(self, schema: TableSchema, params: Sequence):
        self.schema = schema
        self.params = params

    def operand(self, node, row: Dict[str, object]):
        if isinstance(node, ast.Literal):
            return node.value
        if isinstance(node, ast.Param):
            return self.params[node.index]
        if isinstance(node, ast.ColumnRef):
            name = node.name.upper()
            if not self.schema.has_column(name):
                raise CatalogError(
                    f"table {self.schema.name} has no column {name!r}"
                )
            return row[name]
        raise DatabaseError(f"unexpected operand node {node!r}")

    def test(self, node, row: Dict[str, object]) -> bool:
        if node is None:
            return True
        if isinstance(node, ast.And):
            return self.test(node.left, row) and self.test(node.right, row)
        if isinstance(node, ast.Or):
            return self.test(node.left, row) or self.test(node.right, row)
        if isinstance(node, ast.Not):
            return not self.test(node.child, row)
        if isinstance(node, ast.Compare):
            left = self.operand(node.left, row)
            right = self.operand(node.right, row)
            if left is None or right is None:
                return False  # SQL three-valued logic: comparisons with NULL are not true
            ops = {
                "=": lambda a, b: a == b,
                "!=": lambda a, b: a != b,
                "<": lambda a, b: a < b,
                "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b,
                ">=": lambda a, b: a >= b,
            }
            try:
                return bool(ops[node.op](left, right))
            except TypeError as exc:
                raise DatabaseError(
                    f"cannot compare {type(left).__name__} with {type(right).__name__}"
                ) from exc
        if isinstance(node, ast.Between):
            v = self.operand(node.operand, row)
            lo = self.operand(node.low, row)
            hi = self.operand(node.high, row)
            if v is None or lo is None or hi is None:
                return False
            result = lo <= v <= hi
            return result != node.negated
        if isinstance(node, ast.InList):
            v = self.operand(node.operand, row)
            if v is None:
                return False
            members = [self.operand(item, row) for item in node.items]
            return (v in members) != node.negated
        if isinstance(node, ast.Like):
            v = self.operand(node.operand, row)
            pattern = self.operand(node.pattern, row)
            if v is None or pattern is None:
                return False
            if not isinstance(v, str) or not isinstance(pattern, str):
                raise DatabaseError("LIKE requires string operands")
            return bool(_like_to_regex(pattern).match(v)) != node.negated
        if isinstance(node, ast.IsNull):
            v = self.operand(node.operand, row)
            return (v is None) != node.negated
        raise DatabaseError(f"unexpected WHERE node {node!r}")


class Database:
    """Catalog of tables + statement execution + transactions."""

    #: statement AST class -> metric label
    _STATEMENT_KINDS = {
        "Select": "select",
        "Insert": "insert",
        "Update": "update",
        "Delete": "delete",
        "CreateTable": "create",
        "DropTable": "drop",
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
        """Run statements under ``policies``' retry (and its ``db.execute``
        fault point).

        Takes a :class:`repro.resilience.ResiliencePolicies`; attaching a
        disabled bundle keeps the unwrapped fast path.  Only injected
        faults are retried -- a malformed statement fails identically on
        every attempt and propagates immediately.
        """
        self._policies = policies if policies.enabled else None

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
        # transaction vanish, dropped tables return, data reverts.
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
            return self._policies.run(
                "db.execute", lambda: self._execute(text, params)
            )
        return self._execute(text, params)

    def _execute(self, text: str, params: Sequence = ()) -> ResultSet:
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
        if isinstance(stmt, ast.DropTable):
            return self._drop_table(stmt, text)
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

    def _drop_table(self, stmt: ast.DropTable, text: str) -> ResultSet:
        name = stmt.table.upper()
        if name not in self.tables:
            if stmt.if_exists:
                return ResultSet(statement=text)
            raise CatalogError(f"no such table {name!r}")
        del self.tables[name]
        return ResultSet(statement=text, rowcount=1)

    def _insert(self, stmt: ast.Insert, params: Tuple, text: str) -> ResultSet:
        table = self._get_table(stmt.table)
        evaluator = _Evaluator(table.schema, params)
        values = [evaluator.operand(v, {}) for v in stmt.values]
        columns = list(stmt.columns) if stmt.columns else table.schema.column_names
        if len(columns) != len(values):
            raise SqlSyntaxError(
                f"INSERT into {table.name} has {len(columns)} columns, {len(values)} values"
            )
        table.insert(dict(zip(columns, values)))
        return ResultSet(statement=text, rowcount=1)

    def _rows_matching(self, table: Table, where, params: Tuple) -> List[Dict[str, object]]:
        evaluator = _Evaluator(table.schema, params)
        # fast path: top-level equality on an indexed column
        if isinstance(where, ast.Compare) and where.op == "=":
            col, lit = None, None
            if isinstance(where.left, ast.ColumnRef) and isinstance(where.right, (ast.Literal, ast.Param)):
                col, lit = where.left.name, evaluator.operand(where.right, {})
            elif isinstance(where.right, ast.ColumnRef) and isinstance(where.left, (ast.Literal, ast.Param)):
                col, lit = where.right.name, evaluator.operand(where.left, {})
            if col is not None and table.schema.has_column(col):
                rowids = table.lookup_equal(col, lit)
                if rowids is not None:
                    all_rows = dict(table.rows())
                    return [table.schema.row_dict(all_rows[rid]) for rid in rowids if rid in all_rows]
        return table.select_where(lambda row: evaluator.test(where, row))

    def _select(self, stmt: ast.Select, params: Tuple, text: str) -> ResultSet:
        table = self._get_table(stmt.table)
        rows = self._rows_matching(table, stmt.where, params)
        if stmt.group_by:
            return self._grouped_aggregate(table, stmt, rows, text)
        if stmt.aggregate is not None:
            return self._aggregate(table, stmt.aggregate, rows, text)
        for item in stmt.order_by:
            if not table.schema.has_column(item.column):
                raise CatalogError(f"ORDER BY references unknown column {item.column!r}")
        for item in reversed(stmt.order_by):
            col = item.column.upper()
            rows.sort(
                key=lambda r: (r[col] is None, r[col] if r[col] is not None else 0),
                reverse=item.descending,
            )
        if stmt.limit is not None:
            rows = rows[: stmt.limit]
        if stmt.columns:
            for c in stmt.columns:
                table.schema.column(c)  # validate
            wanted = [c.upper() for c in stmt.columns]
            rows = [{c: r[c] for c in wanted} for r in rows]
        return ResultSet(rows=rows, rowcount=len(rows), statement=text)

    def _aggregate(self, table: Table, agg: "ast.Aggregate", rows, text: str) -> ResultSet:
        """COUNT/MIN/MAX/SUM/AVG over the matched rows (NULLs skipped)."""
        if agg.column is not None:
            col = table.schema.column(agg.column).name  # validates + canonical
            values = [r[col] for r in rows if r[col] is not None]
        else:
            values = None  # COUNT(*) counts rows, not values

        if agg.func == "COUNT":
            result = len(rows) if values is None else len(values)
        elif not values:
            result = None  # SQL: aggregates over the empty set are NULL
        elif agg.func in ("MIN", "MAX"):
            try:
                result = min(values) if agg.func == "MIN" else max(values)
            except TypeError as exc:
                raise DatabaseError(f"{agg.label}: values are not comparable") from exc
        else:  # SUM / AVG need numbers
            if not all(isinstance(v, (int, float)) for v in values):
                raise DatabaseError(f"{agg.label} requires numeric values")
            total = sum(values)
            result = total if agg.func == "SUM" else total / len(values)
        return ResultSet(rows=[{agg.label: result}], rowcount=1, statement=text)

    def _grouped_aggregate(self, table: Table, stmt: ast.Select, rows, text: str) -> ResultSet:
        """GROUP BY evaluation: one output row per distinct key tuple."""
        group_cols = [table.schema.column(c).name for c in stmt.group_by]
        out_cols = [table.schema.column(c).name for c in stmt.columns]
        groups: Dict[Tuple, list] = {}
        for row in rows:  # dict preserves first-appearance order
            key = tuple(row[c] for c in group_cols)
            groups.setdefault(key, []).append(row)

        out_rows = []
        for key, members in groups.items():
            agg_result = self._aggregate(table, stmt.aggregate, members, text)
            row = dict(zip(group_cols, key))
            row[stmt.aggregate.label] = agg_result.scalar()
            out_rows.append(row)

        for item in reversed(stmt.order_by):
            col = item.column.upper()
            out_rows.sort(
                key=lambda r: (r[col] is None, r[col] if r[col] is not None else 0),
                reverse=item.descending,
            )
        if stmt.limit is not None:
            out_rows = out_rows[: stmt.limit]
        # project to the selected columns (plus the aggregate) last, so
        # ORDER BY may use any GROUP BY column even when not selected
        keep = (out_cols or group_cols) + [stmt.aggregate.label]
        out_rows = [{c: r[c] for c in keep} for r in out_rows]
        return ResultSet(rows=out_rows, rowcount=len(out_rows), statement=text)

    def _update(self, stmt: ast.Update, params: Tuple, text: str) -> ResultSet:
        table = self._get_table(stmt.table)
        evaluator = _Evaluator(table.schema, params)
        assignments = {col: evaluator.operand(v, {}) for col, v in stmt.assignments}
        count = table.update_where(assignments, lambda row: evaluator.test(stmt.where, row))
        return ResultSet(statement=text, rowcount=count)

    def _delete(self, stmt: ast.Delete, params: Tuple, text: str) -> ResultSet:
        table = self._get_table(stmt.table)
        evaluator = _Evaluator(table.schema, params)
        count = table.delete_where(lambda row: evaluator.test(stmt.where, row))
        return ResultSet(statement=text, rowcount=count)

    # -- conveniences --------------------------------------------------------------------

    def table_names(self) -> List[str]:
        return sorted(self.tables)

    def schema_of(self, name: str) -> TableSchema:
        return self._get_table(name).schema

    def create_index(self, table: str, column: str) -> None:
        self._get_table(table).create_index(column)
