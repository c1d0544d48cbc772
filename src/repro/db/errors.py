"""The typed errors every ``repro.db`` caller sees (sqlite3's are mapped into them)."""

__all__ = ["DatabaseError", "SqlSyntaxError", "CatalogError", "ConstraintError",
           "TypeMismatchError", "TransactionError", "StorageError"]


class DatabaseError(Exception):
    """Base class for every database error."""


class SqlSyntaxError(DatabaseError):
    """A statement outside the dialect, or one SQLite cannot parse."""


class CatalogError(DatabaseError):
    """Unknown or duplicate table/column."""


class ConstraintError(DatabaseError):
    """Primary-key duplicate, NOT NULL violation, or similar."""


class TypeMismatchError(DatabaseError):
    """A value does not fit its column type."""


class TransactionError(DatabaseError):
    """Illegal transaction state transition (e.g. COMMIT with no BEGIN)."""


class StorageError(DatabaseError):
    """The library file or its commit log is unreadable, corrupt or closed."""
