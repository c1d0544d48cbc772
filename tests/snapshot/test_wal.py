"""The database log as the store reads it: one commit sequence, torn
tails, and the stamps a log cannot reach."""

import struct

import pytest

from repro.db import Database
from repro.db.errors import StorageError
from repro.db.storage import read_log

_INSERT = "INSERT INTO T (ID, NAME) VALUES (?, ?)"


@pytest.fixture()
def path(tmp_path):
    return str(tmp_path / "lib.rdb")


def _opened(path, *ids):
    """The database at ``path`` with table T and one auto-commit per id."""
    db = Database.open(path)
    if "T" not in db.table_names():
        db.execute("CREATE TABLE T (ID NUMBER PRIMARY KEY, NAME VARCHAR2(20))")
    for i in ids:
        db.execute(_INSERT, (i, f"n{i}"))
    return db


def _ids(path):
    db = Database.open(path)
    try:
        return sorted(r["ID"] for r in db.execute("SELECT ID FROM T").rows)
    finally:
        db.close()


class TestWriterAndReader:
    def test_absent_wal_is_empty(self, path):
        assert read_log(path + ".wal") is None
        db = Database.open(path)
        assert db.commit_seq == 0 and len(db.token) == 32
        db.close()
        assert read_log(path + ".wal") is None  # nothing committed, nothing written

    def test_round_trip(self, path):
        db = _opened(path, 1)  # commits 1 (the table) and 2
        with db.transaction():  # commit 3: one record, two statements
            db.execute(_INSERT, (2, "two"))
            db.execute("DELETE FROM T WHERE ID = ?", (1,))
        assert db.commit_seq == 3
        log = read_log(path + ".wal")
        assert (log.base, log.last, log.token) == (0, 3, db.token)
        assert log.after(db.token, 1) == [
            [(_INSERT, (1, "n1"))],
            [(_INSERT, (2, "two")), ("DELETE FROM T WHERE ID = ?", (1,))],
        ]
        db.close()

    def test_writer_continues_existing_sequence(self, path):
        _opened(path, 1).close()
        db = _opened(path, 2)
        assert db.commit_seq == 3
        token = db.token
        db.close()
        log = read_log(path + ".wal")
        assert (log.base, log.last, log.token) == (0, 3, token)
        assert log.after(token, 2) == [[(_INSERT, (2, "n2"))]]

    def test_remove_wal(self, path):
        """A checkpoint folds the log into the database file and restarts
        the log at its last commit; the sequence goes on from there."""
        db = _opened(path, 1)
        db.checkpoint()
        log = read_log(path + ".wal")
        assert (log.base, log.commits) == (2, [])
        db.execute(_INSERT, (2, "n2"))
        db.close()
        assert read_log(path + ".wal").last == 3
        reopened = Database.open(path)
        assert reopened.commit_seq == 3
        reopened.close()
        assert _ids(path) == [1, 2]


class TestDamage:
    def test_torn_final_line_dropped(self, path):
        _opened(path, 1, 2).close()
        with open(path + ".wal", "rb") as fh:
            data = fh.read()
        with open(path + ".wal", "wb") as fh:
            fh.write(data[:-5])  # crash mid-append of commit 3
        assert read_log(path + ".wal").last == 2
        db = _opened(path, 3)  # overwrites the torn record: still commit 3
        assert db.commit_seq == 3
        token = db.token
        db.close()
        assert read_log(path + ".wal").after(token, 2) == [[(_INSERT, (3, "n3"))]]
        assert _ids(path) == [1, 3]

    def test_stale_base_generation(self, path):
        """A stamp the log's base has passed: those commits are folded."""
        db = _opened(path, 1)
        db.checkpoint()
        db.execute(_INSERT, (2, "n2"))
        token = db.token
        db.close()
        log = read_log(path + ".wal")
        assert log.after(token, 2) == [[(_INSERT, (2, "n2"))]]
        with pytest.raises(StorageError, match="not those after 1"):
            log.after(token, 1)
        with pytest.raises(StorageError, match="not those after 4"):
            log.after(token, 4)
        with pytest.raises(StorageError, match="another library"):
            log.after("0" * 32, 2)

    def test_sequence_gap(self, path):
        """A log that does not continue the database file is refused:
        one whose base skips commits, or another library's."""
        db = _opened(path, 1)
        db.checkpoint()
        db.execute(_INSERT, (2, "n2"))
        db.close()
        with open(path + ".wal", "rb") as fh:
            good = fh.read()
        for offset, field in ((4, struct.pack("<Q", 5)), (12, bytes(16))):
            with open(path + ".wal", "wb") as fh:
                fh.write(good[:offset] + field + good[offset + len(field) :])
            with pytest.raises(StorageError):
                Database.open(path)
        with open(path + ".wal", "wb") as fh:
            fh.write(good)
        assert _ids(path) == [1, 2]
