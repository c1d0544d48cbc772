"""Durability tests: snapshots, WAL replay, crash tolerance."""

import datetime
import os

import pytest

from repro.db import Database
from repro.db.errors import StorageError
from repro.db.storage import Storage, read_log


@pytest.fixture()
def path(tmp_path):
    return str(tmp_path / "test.rdb")


def _populate(db):
    db.execute(
        "CREATE TABLE T (ID NUMBER PRIMARY KEY, NAME VARCHAR2(20), DATA BLOB, D DATE)"
    )
    db.execute(
        "INSERT INTO T (ID, NAME, DATA, D) VALUES (?, ?, ?, ?)",
        (1, "one", b"\x00\x01", datetime.date(2012, 10, 1)),
    )
    db.execute("INSERT INTO T (ID, NAME) VALUES (2, 'two')")


class TestWalReplay:
    def test_reopen_replays_wal(self, path):
        db = Database.open(path)
        _populate(db)
        db.close()

        db2 = Database.open(path)
        rows = db2.execute("SELECT * FROM T ORDER BY ID").rows
        assert len(rows) == 2
        assert rows[0]["DATA"] == b"\x00\x01"
        assert rows[0]["D"] == datetime.date(2012, 10, 1)
        db2.close()

    def test_wal_accumulates_across_sessions(self, path):
        db = Database.open(path)
        _populate(db)
        db.close()
        db = Database.open(path)
        db.execute("INSERT INTO T (ID, NAME) VALUES (3, 'three')")
        db.close()
        db = Database.open(path)
        assert len(db.execute("SELECT * FROM T").rows) == 3
        db.close()

    def test_selects_not_logged(self, path):
        db = Database.open(path)
        _populate(db)
        size_before = os.path.getsize(path + ".wal")
        for _ in range(5):
            db.execute("SELECT * FROM T")
        assert os.path.getsize(path + ".wal") == size_before
        db.close()

    def test_rolled_back_statements_not_logged(self, path):
        db = Database.open(path)
        _populate(db)
        db.begin()
        db.execute("DELETE FROM T")
        db.rollback()
        db.close()
        db2 = Database.open(path)
        assert len(db2.execute("SELECT * FROM T").rows) == 2
        db2.close()

    def test_committed_transaction_logged(self, path):
        db = Database.open(path)
        _populate(db)
        with db.transaction():
            db.execute("DELETE FROM T WHERE ID = 2")
        db.close()
        db2 = Database.open(path)
        assert len(db2.execute("SELECT * FROM T").rows) == 1
        db2.close()


class TestCheckpoint:
    def test_checkpoint_truncates_wal(self, path):
        db = Database.open(path)
        _populate(db)
        header = 28  # magic, commit sequence, library token
        assert os.path.getsize(path + ".wal") > header
        db.checkpoint()
        assert os.path.getsize(path + ".wal") == header  # restarted at commit 3
        assert read_log(path + ".wal").base == db.commit_seq == 3
        assert os.path.getsize(path) > 0
        db.close()

    def test_snapshot_plus_wal(self, path):
        db = Database.open(path)
        _populate(db)
        db.checkpoint()
        db.execute("INSERT INTO T (ID, NAME) VALUES (9, 'after')")
        db.close()
        db2 = Database.open(path)
        names = {r["NAME"] for r in db2.execute("SELECT NAME FROM T").rows}
        assert names == {"one", "two", "after"}
        db2.close()

    def test_checkpoint_preserves_schema(self, path):
        db = Database.open(path)
        _populate(db)
        db.checkpoint()
        db.close()
        db2 = Database.open(path)
        # the PK constraint must survive the snapshot roundtrip
        from repro.db.errors import ConstraintError

        with pytest.raises(ConstraintError):
            db2.execute("INSERT INTO T (ID) VALUES (1)")
        db2.close()


class TestCrashTolerance:
    def test_torn_wal_record_ignored(self, path):
        db = Database.open(path)
        _populate(db)
        db.close()
        # simulate a crash mid-append: chop bytes off the last record
        with open(path + ".wal", "rb") as fh:
            data = fh.read()
        with open(path + ".wal", "wb") as fh:
            fh.write(data[:-7])
        db2 = Database.open(path)
        # last insert lost, earlier statements intact
        assert len(db2.execute("SELECT * FROM T").rows) == 1
        db2.close()

    def test_corrupt_crc_stops_replay(self, path):
        db = Database.open(path)
        _populate(db)
        db.close()
        with open(path + ".wal", "rb") as fh:
            data = bytearray(fh.read())
        data[-2] ^= 0xFF  # flip a bit in the last record's CRC
        with open(path + ".wal", "wb") as fh:
            fh.write(bytes(data))
        db2 = Database.open(path)
        assert len(db2.execute("SELECT * FROM T").rows) == 1
        db2.close()

    def test_bad_wal_magic_rejected(self, path):
        with open(path + ".wal", "wb") as fh:
            fh.write(b"XXXX")
        with pytest.raises(StorageError):
            Database.open(path)

    def test_bad_snapshot_magic_rejected(self, path):
        with open(path, "wb") as fh:
            fh.write(b"NOPE....")
        with pytest.raises(StorageError):
            Database.open(path)

    def test_load_into_requires_empty(self, path):
        db = Database()
        db.execute("CREATE TABLE X (A NUMBER)")
        with pytest.raises(StorageError):
            Storage(path).load_into(db)

    def test_empty_files_mean_empty_db(self, path):
        db = Database.open(path)
        assert db.table_names() == []
        db.close()


class TestTransactionRecord:
    """A committed transaction is one WAL record: one fsync, all or nothing."""

    def _committed(self, path):
        """A populated database plus one 3-statement transaction; returns
        the WAL bytes and the size the WAL had before the transaction."""
        db = Database.open(path)
        _populate(db)
        before = os.path.getsize(path + ".wal")
        with db.transaction():
            db.execute("INSERT INTO T (ID, NAME) VALUES (3, 'three')")
            db.execute("INSERT INTO T (ID, NAME, DATA) VALUES (?, ?, ?)", (4, "four", b"\xff" * 9))
            db.execute("DELETE FROM T WHERE ID = 1")
        db.close()
        with open(path + ".wal", "rb") as fh:
            return fh.read(), before

    def test_one_fsync_per_transaction(self, path, monkeypatch):
        db = Database.open(path)
        _populate(db)
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        with db.transaction():
            for i in range(10, 20):
                db.execute("INSERT INTO T (ID) VALUES (?)", (i,))
        assert len(synced) == 1
        db.execute("INSERT INTO T (ID) VALUES (99)")  # auto-commit: its own record
        assert len(synced) == 2
        db.close()

    def test_truncated_anywhere_replays_all_or_none(self, path):
        data, before = self._committed(path)
        assert len(data) > before
        for cut in range(before, len(data) + 1):
            with open(path + ".wal", "wb") as fh:
                fh.write(data[:cut])
            db = Database.open(path)
            ids = sorted(r["ID"] for r in db.execute("SELECT ID FROM T").rows)
            db.close()
            assert ids == ([2, 3, 4] if cut == len(data) else [1, 2]), cut

    def test_flipped_byte_drops_the_whole_transaction(self, path):
        data, before = self._committed(path)
        for at in range(before, len(data), 7):
            torn = bytearray(data)
            torn[at] ^= 0x55
            with open(path + ".wal", "wb") as fh:
                fh.write(bytes(torn))
            db = Database.open(path)
            ids = sorted(r["ID"] for r in db.execute("SELECT ID FROM T").rows)
            db.close()
            assert ids == [1, 2], at

    def test_per_statement_wal_still_replays(self, path):
        """The pre-transaction-record layout: every statement its own record."""
        db = Database.open(path)
        _populate(db)
        db.close()
        storage = Storage(path)
        storage.load_into(Database())
        storage.log_statement("INSERT INTO T (ID, NAME) VALUES (?, ?)", (5, "five"))
        storage.log_statement("DELETE FROM T WHERE ID = ?", (2,))
        storage.close()
        db = Database.open(path)
        assert sorted(r["ID"] for r in db.execute("SELECT ID FROM T").rows) == [1, 5]
        db.close()

    def test_empty_transaction_writes_nothing(self, path):
        db = Database.open(path)
        _populate(db)
        size = os.path.getsize(path + ".wal")
        with db.transaction():
            db.execute("SELECT * FROM T")
        assert os.path.getsize(path + ".wal") == size
        db.close()
