"""Heap tables with primary-key and secondary hash indexes.

Rows live in an insertion-ordered dict keyed by an internal rowid; the
primary key (if any) is enforced through a hash index, and any column can
get a secondary index (value -> set of rowids) that equality predicates
use to skip full scans.  A LOB cell may be a :class:`~repro.db.types.Lob`
locator; an index over it keys by its bytes.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.db.errors import ConstraintError
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

    # -- basics ---------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[Tuple[int, Row]]:
        """(rowid, row) pairs in insertion order."""
        return iter(list(self._rows.items()))

    # -- index maintenance --------------------------------------------------------

    def create_index(self, column: str) -> None:
        """Build (or rebuild) a secondary hash index on ``column``."""
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
        """Rowids with ``column == value`` via an index, or None if unindexed."""
        col_name = column.upper()
        pk = self.schema.primary_key
        if pk == [col_name]:
            rowid = self._pk_index.get((self._key(value),))
            return [] if rowid is None else [rowid]
        idx = self._secondary.get(col_name)
        if idx is None:
            return None
        return sorted(idx.get(self._key(value), ()))

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
        self._rows.update(rows)

    def delete_where(self, predicate: Predicate) -> int:
        """Delete matching rows; returns the count."""
        doomed = [rid for rid, row in self._rows.items() if predicate(self.schema.row_dict(row))]
        for rid in doomed:
            row = self._rows.pop(rid)
            pk = self._pk_key(row)
            if pk is not None:
                self._pk_index.pop(pk, None)
            self._index_remove(rid, row)
        return len(doomed)

    def update_where(self, assignments: Dict[str, object], predicate: Predicate) -> int:
        """Set columns on matching rows; returns the count.

        The whole statement is validated before any row changes, so a type
        error or PK conflict leaves the table untouched.
        """
        assignments = {k.upper(): v for k, v in assignments.items()}
        for name in assignments:
            self.schema.column(name)  # raise CatalogError early

        targets: List[Tuple[int, Row, Row]] = []
        for rid, row in self._rows.items():
            if not predicate(self.schema.row_dict(row)):
                continue
            merged = dict(self.schema.row_dict(row))
            merged.update(assignments)
            new_row = self.schema.make_row(merged)
            targets.append((rid, row, new_row))

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

    def select_where(self, predicate: Predicate) -> List[Dict[str, object]]:
        """Matching rows as dicts, in insertion order."""
        out = []
        for _rid, row in self._rows.items():
            d = self.schema.row_dict(row)
            if predicate(d):
                out.append(d)
        return out

    def fetch(self, rowids: List[int]) -> List[Dict[str, object]]:
        """These rows as dicts (rowids from :meth:`lookup_equal`)."""
        return [self.schema.row_dict(self._rows[rid]) for rid in rowids]

    # -- snapshot support ----------------------------------------------------------------

    def snapshot_state(self):
        """Cheap copyable state for transaction rollback."""
        return (
            dict(self._rows),
            self._next_rowid,
            dict(self._pk_index),
            {c: {v: set(s) for v, s in idx.items()} for c, idx in self._secondary.items()},
        )

    def restore_state(self, state) -> None:
        rows, next_rowid, pk_index, secondary = state
        self._rows = dict(rows)
        self._next_rowid = next_rowid
        self._pk_index = dict(pk_index)
        self._secondary = {c: {v: set(s) for v, s in idx.items()} for c, idx in secondary.items()}
