"""An embedded mini relational engine (the paper's Oracle 9i stand-in).

The paper stores videos and key-frame features in two Oracle tables
(``VIDEO_STORE``, ``KEY_FRAMES``) created with DDL reproduced in §3.4, and
retrieves them with SQL.  This package implements enough of a relational
database to run that workload for real, from scratch:

- :mod:`repro.db.types` -- the column types the DDL uses (NUMBER,
  VARCHAR2(n), DATE, BLOB, and the ORD_VIDEO / ORD_IMAGE media types).
- :mod:`repro.db.schema` -- table schemas, columns, constraints.
- :mod:`repro.db.table` -- heap tables with a primary-key hash index and
  optional secondary indexes.
- :mod:`repro.db.sql` -- a tokenizer + recursive-descent parser for the
  SQL the system sends: the §3.4 DDL, INSERT, SELECT (columns or
  ``MAX(col)``, WHERE / ORDER BY), UPDATE and DELETE, with ``?`` bind
  parameters; WHERE takes comparisons and LIKE under AND / OR.
- :mod:`repro.db.engine` -- the :class:`Database` facade: statement
  execution, transactions, catalog.
- :mod:`repro.db.storage` -- snapshot + write-ahead-log persistence.
"""

from repro.db.engine import Database, ResultSet
from repro.db.errors import (
    CatalogError,
    ConstraintError,
    DatabaseError,
    SqlSyntaxError,
    StorageError,
    TransactionError,
    TypeMismatchError,
)
from repro.db.schema import Column, TableSchema
from repro.db.types import (
    BLOB,
    DATE,
    NUMBER,
    ORD_IMAGE,
    ORD_VIDEO,
    VARCHAR2,
    SqlType,
    type_from_name,
)

__all__ = [
    "Database",
    "ResultSet",
    "DatabaseError",
    "SqlSyntaxError",
    "CatalogError",
    "ConstraintError",
    "TypeMismatchError",
    "TransactionError",
    "StorageError",
    "Column",
    "TableSchema",
    "SqlType",
    "NUMBER",
    "VARCHAR2",
    "DATE",
    "BLOB",
    "ORD_VIDEO",
    "ORD_IMAGE",
    "type_from_name",
]
