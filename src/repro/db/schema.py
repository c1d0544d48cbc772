"""Table schemas: columns, constraints, row validation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.db.errors import CatalogError, ConstraintError, TypeMismatchError
from repro.db.types import BLOB, SqlType

__all__ = ["Column", "TableSchema"]


@dataclass(frozen=True)
class Column:
    """One column: name (stored upper-case), type, nullability."""

    name: str
    sql_type: SqlType
    nullable: bool = True
    primary_key: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise CatalogError(f"invalid column name {self.name!r}")
        object.__setattr__(self, "name", self.name.upper())
        if self.primary_key:
            object.__setattr__(self, "nullable", False)

    def validate(self, value):
        if value is None:
            if not self.nullable:
                raise ConstraintError(f"column {self.name} is NOT NULL")
            return None
        try:
            return self.sql_type.validate(value)
        except TypeMismatchError as exc:
            raise TypeMismatchError(f"column {self.name}: {exc}") from exc


@dataclass(frozen=True)
class TableSchema:
    """An ordered set of columns plus the primary-key column list."""

    name: str
    columns: Tuple[Column, ...]
    _by_name: Dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    #: the BLOB / ORD_VIDEO / ORD_IMAGE columns' names
    lob_columns: frozenset = field(default=frozenset(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise CatalogError(f"invalid table name {self.name!r}")
        object.__setattr__(self, "name", self.name.upper())
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise CatalogError(f"table {self.name} needs at least one column")
        by_name: Dict[str, int] = {}
        for i, col in enumerate(self.columns):
            if col.name in by_name:
                raise CatalogError(f"duplicate column {col.name} in table {self.name}")
            by_name[col.name] = i
        object.__setattr__(self, "_by_name", by_name)
        lobs = frozenset(c.name for c in self.columns if isinstance(c.sql_type, BLOB))
        object.__setattr__(self, "lob_columns", lobs)

    # -- lookups -------------------------------------------------------------

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    @property
    def primary_key(self) -> List[str]:
        return [c.name for c in self.columns if c.primary_key]

    def column(self, name: str) -> Column:
        idx = self._by_name.get(name.upper())
        if idx is None:
            raise CatalogError(f"table {self.name} has no column {name.upper()!r}")
        return self.columns[idx]

    def index_of(self, name: str) -> int:
        idx = self._by_name.get(name.upper())
        if idx is None:
            raise CatalogError(f"table {self.name} has no column {name.upper()!r}")
        return idx

    def has_column(self, name: str) -> bool:
        return name.upper() in self._by_name

    # -- row validation --------------------------------------------------------

    def make_row(self, values: Mapping[str, object]) -> Tuple:
        """Validate a column->value mapping into an ordered row tuple.

        Missing columns become NULL (subject to NOT NULL); unknown column
        names are an error.
        """
        provided = {k.upper(): v for k, v in values.items()}
        unknown = set(provided) - set(self._by_name)
        if unknown:
            raise CatalogError(
                f"table {self.name} has no column(s) {sorted(unknown)}"
            )
        return tuple(col.validate(provided.get(col.name)) for col in self.columns)

    def row_dict(self, row: Sequence) -> Dict[str, object]:
        return {col.name: row[i] for i, col in enumerate(self.columns)}

    def render_ddl(self) -> str:
        """Round-trippable CREATE TABLE statement."""
        parts = []
        for col in self.columns:
            bits = [col.name, col.sql_type.render()]
            if not col.nullable and not col.primary_key:
                bits.append("NOT NULL")
            parts.append(" ".join(bits))
        if self.primary_key:
            parts.append(f"PRIMARY KEY ({', '.join(self.primary_key)})")
        cols = ",\n  ".join(parts)
        return f"CREATE TABLE {self.name} (\n  {cols}\n)"
