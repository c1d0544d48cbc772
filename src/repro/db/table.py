"""Heap tables with primary-key and secondary hash indexes.

Rows live in an insertion-ordered dict keyed by an internal rowid; the
primary key (if any) is enforced through a hash index, and any column can
get a secondary index (value -> set of rowids) that equality predicates
use to skip full scans.  A LOB cell may be a :class:`~repro.db.types.Lob`
locator; an index over it keys by its bytes.

A table opened from the database file starts *deferred*: it holds a
loader for its section and decodes it the first time anything reads or
writes its rows (:meth:`Table.defer`).  Its indexes are built then, and
a transaction that snapshots it keeps the loader, not rows.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.db.errors import ConstraintError, DatabaseError, StorageError
from repro.db.schema import TableSchema
from repro.db.types import Lob

__all__ = ["Table"]

Row = Tuple
Predicate = Callable[[Dict[str, object]], bool]


class Table:
    """One table: schema + rows + indexes."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: Dict[int, Row] = {}
        self._next_rowid = 1
        self._pk_index: Dict[Tuple, int] = {}
        self._pk_pos = [schema.index_of(name) for name in schema.primary_key]
        # column name -> {value -> set(rowids)}
        self._secondary: Dict[str, Dict[object, Set[int]]] = {}
        #: decodes the rows still in the database file (None: none are)
        self._pending: Optional[Callable[[], List[Row]]] = None
        self._decoding = threading.Lock()

    # -- basics ---------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        self._ready()
        return len(self._rows)

    def rows(self) -> Iterator[Tuple[int, Row]]:
        """(rowid, row) pairs in insertion order."""
        self._ready()
        return iter(list(self._rows.items()))

    # -- deferred rows ------------------------------------------------------------

    def defer(self, loader: Callable[[], List[Row]]) -> None:
        """Hold this (empty) table's rows as ``loader``: validated row
        tuples, decoded when a statement, an index or a checkpoint first
        needs them -- once, whichever thread asks first."""
        self._pending = loader

    @property
    def deferred(self) -> bool:
        """True while the rows are still undecoded in the database file."""
        return self._pending is not None

    def _ready(self) -> None:
        """Decode the deferred rows, if any.  A section that does not
        decode is a :class:`StorageError` at every use, and the table
        stays deferred."""
        if self._pending is None:
            return
        with self._decoding:
            loader = self._pending
            if loader is None:
                return  # another thread decoded it
            try:
                self._append(loader())
            except DatabaseError as exc:  # a corrupt cell, a duplicate key
                raise StorageError(f"table {self.name}: {exc}") from exc
            self._pending = None

    # -- index maintenance --------------------------------------------------------

    def create_index(self, column: str) -> None:
        """Build (or rebuild) a secondary hash index on ``column``; a
        deferred table builds it when it decodes."""
        col = self.schema.column(column)  # validates existence
        idx: Dict[object, Set[int]] = {}
        pos = self.schema.index_of(col.name)
        for rowid, row in self._rows.items():
            idx.setdefault(self._key(row[pos]), set()).add(rowid)
        self._secondary[col.name] = idx

    def has_index(self, column: str) -> bool:
        return column.upper() in self._secondary

    @staticmethod
    def _key(value):
        """``value`` as an index key: floats and ints that compare equal
        must collide (1 == 1.0), and a LOB keys by its bytes."""
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, Lob):
            return value.read()
        return value

    def _index_insert(self, rowid: int, row: Row) -> None:
        for col_name, idx in self._secondary.items():
            value = row[self.schema.index_of(col_name)]
            idx.setdefault(self._key(value), set()).add(rowid)

    def _index_remove(self, rowid: int, row: Row) -> None:
        for col_name, idx in self._secondary.items():
            key = self._key(row[self.schema.index_of(col_name)])
            bucket = idx.get(key)
            if bucket is not None:
                bucket.discard(rowid)
                if not bucket:
                    del idx[key]

    def lookup_equal(self, column: str, value) -> Optional[List[int]]:
        """Rowids with ``column = value`` via an index, or None if
        unindexed.  ``= NULL`` (and ``= NaN``) is never true, as in a
        scan; an unhashable value is left to the scan."""
        col_name = column.upper()
        pk = self.schema.primary_key
        if pk != [col_name] and col_name not in self._secondary:
            return None
        self._ready()
        if value is None or value != value:
            return []
        try:
            if pk == [col_name]:
                rowid = self._pk_index.get((self._key(value),))
                return [] if rowid is None else [rowid]
            return sorted(self._secondary[col_name].get(self._key(value), ()))
        except TypeError:  # a bytearray, say: equal to bytes, but no key
            return None

    # -- mutations -------------------------------------------------------------------

    def _pk_key(self, row: Row) -> Optional[Tuple]:
        if not self._pk_pos:
            return None
        pk = tuple(self._key(row[i]) for i in self._pk_pos)
        if None in pk:
            raise ConstraintError(f"primary key of {self.name} cannot be NULL")
        return pk

    def insert(self, values: Dict[str, object]) -> int:
        """Validate and insert; returns the new rowid."""
        self.load([self.schema.make_row(values)])
        return self._next_rowid - 1

    def load(self, rows: List[Row]) -> None:
        """Append validated row tuples: all of them, or -- on a duplicate
        primary key -- none."""
        self._ready()
        self._append(rows)

    def _append(self, rows: List[Row]) -> None:
        rowids = range(self._next_rowid, self._next_rowid + len(rows))
        if self._pk_pos:
            added: Dict[Tuple, int] = {}
            for rowid, row in zip(rowids, rows):
                pk = self._pk_key(row)
                if pk in self._pk_index or pk in added:
                    raise ConstraintError(f"duplicate primary key {pk} in table {self.name}")
                added[pk] = rowid
            self._pk_index.update(added)
        self._rows.update(zip(rowids, rows))
        self._next_rowid += len(rows)
        if self._secondary:
            for rowid, row in zip(rowids, rows):
                self._index_insert(rowid, row)

    def replace_rows(self, rows: Dict[int, Row]) -> None:
        """Put equal rows in place of these rowids' (the same values, LOBs
        at new locations): every index stays as it is."""
        self._ready()
        self._rows.update(rows)

    def delete_rows(self, rowids: Optional[List[int]]) -> int:
        """Delete these rows (None: every row); returns the count."""
        self._ready()
        doomed = list(self._rows) if rowids is None else rowids
        for rid in doomed:
            row = self._rows.pop(rid)
            pk = self._pk_key(row)
            if pk is not None:
                self._pk_index.pop(pk, None)
            self._index_remove(rid, row)
        return len(doomed)

    def update_rows(self, assignments: Dict[str, object], rowids: Optional[List[int]]) -> int:
        """Set columns on these rows (None: every row); returns the count.

        The whole statement is validated before any row changes, so a type
        error or PK conflict leaves the table untouched.
        """
        self._ready()
        assignments = {k.upper(): v for k, v in assignments.items()}
        for name in assignments:
            self.schema.column(name)  # raise CatalogError early

        targets: List[Tuple[int, Row, Row]] = []
        for rid in (list(self._rows) if rowids is None else rowids):
            row = self._rows[rid]
            merged = self.schema.row_dict(row)
            merged.update(assignments)
            targets.append((rid, row, self.schema.make_row(merged)))

        # check PK uniqueness across the post-update state
        new_pks = {}
        for rid, _old, new_row in targets:
            pk = self._pk_key(new_row)
            if pk is None:
                continue
            if pk in new_pks:
                raise ConstraintError(f"update would duplicate primary key {pk}")
            new_pks[pk] = rid
        for pk, rid in new_pks.items():
            existing = self._pk_index.get(pk)
            if existing is not None and existing != rid and existing not in {t[0] for t in targets}:
                raise ConstraintError(f"update would duplicate primary key {pk}")

        for rid, old_row, new_row in targets:
            old_pk = self._pk_key(old_row)
            if old_pk is not None:
                self._pk_index.pop(old_pk, None)
            self._index_remove(rid, old_row)
            self._rows[rid] = new_row
            new_pk = self._pk_key(new_row)
            if new_pk is not None:
                self._pk_index[new_pk] = rid
            self._index_insert(rid, new_row)
        return len(targets)

    # -- reads ------------------------------------------------------------------------

    def scan(self, predicate: Predicate) -> List[int]:
        """Rowids of the rows ``predicate`` holds for, in insertion order."""
        self._ready()
        row_dict = self.schema.row_dict
        return [rid for rid, row in self._rows.items() if predicate(row_dict(row))]

    def select_where(self, predicate: Predicate) -> List[Dict[str, object]]:
        """Matching rows as dicts, in insertion order."""
        self._ready()
        out = []
        for _rid, row in self._rows.items():
            d = self.schema.row_dict(row)
            if predicate(d):
                out.append(d)
        return out

    def fetch(self, rowids: List[int]) -> List[Dict[str, object]]:
        """These rows as dicts (rowids from :meth:`lookup_equal`)."""
        self._ready()
        return [self.schema.row_dict(self._rows[rid]) for rid in rowids]

    def values(self, column: str, rowids: Optional[List[int]]) -> List[object]:
        """One column's cells of these rows (None: every row), as stored."""
        self._ready()
        pos = self.schema.index_of(column)
        if rowids is None:
            return [row[pos] for row in self._rows.values()]
        return [self._rows[rid][pos] for rid in rowids]

    # -- snapshot support ----------------------------------------------------------------

    def snapshot_state(self):
        """Cheap copyable state for transaction rollback; a deferred
        table's is its loader and index names, whatever its size.  Both
        this and :meth:`restore_state` wait for a decode under way."""
        with self._decoding:
            if self._pending is not None:
                return {}, 1, {}, {c: {} for c in self._secondary}, self._pending
            return (
                dict(self._rows),
                self._next_rowid,
                dict(self._pk_index),
                {c: {v: set(s) for v, s in idx.items()} for c, idx in self._secondary.items()},
                None,
            )

    def restore_state(self, state) -> None:
        rows, next_rowid, pk_index, secondary, pending = state
        with self._decoding:
            self._rows = dict(rows)
            self._next_rowid = next_rowid
            self._pk_index = dict(pk_index)
            self._secondary = {
                c: {v: set(s) for v, s in idx.items()} for c, idx in secondary.items()
            }
            self._pending = pending
