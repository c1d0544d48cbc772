"""The paper's Oracle 9i stand-in: a thin facade over the stdlib sqlite3.

The paper keeps videos and key frames in two Oracle tables (§3.4 DDL) and
queries them with plain CRUD SQL: :mod:`repro.db.engine` runs it on SQLite,
:mod:`repro.db.types` holds the DDL's column types and the ``COMMITS``
body codec, :mod:`repro.db.errors` the :class:`DatabaseError` family.
"""

from repro.db.engine import Database, ResultSet, build_insert, build_select, quote_ident
from repro.db.errors import (CatalogError, ConstraintError, DatabaseError, SqlSyntaxError,
                             StorageError, TransactionError, TypeMismatchError)

__all__ = ["Database", "ResultSet", "build_insert", "build_select", "quote_ident",
           "DatabaseError", "SqlSyntaxError", "CatalogError", "ConstraintError",
           "TypeMismatchError", "TransactionError", "StorageError"]
