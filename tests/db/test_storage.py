"""Durability tests: one SQLite file in WAL mode, its commit log,
checkpoints and crash tolerance."""

import datetime
import os
import sqlite3

import pytest

from repro.core.ingest import apply_commits
from repro.core.store import FeatureStore
from repro.db import Database
from repro.core.snapshots import read_log
from repro.db.types import decode_commit, encode_commit
from repro.db.errors import DatabaseError, StorageError
from tests.db.sqlite_wal import copy_open, cuts, frame_size, read_wal, wal_end


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


def _ids(path):
    db = Database.open(path)
    try:
        return sorted(r["ID"] for r in db.execute("SELECT ID FROM T").rows)
    finally:
        db.close()


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
        size_before, seq = os.path.getsize(path + "-wal"), db.commit_seq
        for _ in range(5):
            db.execute("SELECT * FROM T")
        assert os.path.getsize(path + "-wal") == size_before
        assert db.commit_seq == seq == read_log(path).last
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
    def test_checkpoint_restarts_wal_in_place(self, path):
        """A checkpoint drops the logged commits and moves the log's base
        to the last one; SQLite's -wal stays the same file, no shorter."""
        db = Database.open(path)
        _populate(db)
        before = os.stat(path + "-wal")
        db.checkpoint()
        after = os.stat(path + "-wal")
        log = read_log(path)
        assert log.base == db.commit_seq == 3 and log.commits == []
        assert after.st_ino == before.st_ino
        assert after.st_size >= before.st_size
        assert os.path.getsize(path) > 0
        db.close()

    def test_checkpoint_order(self, path):
        """The logged commits are dropped in one transaction that also
        moves the base; then SQLite's WAL is checkpointed, passively."""
        db = Database.open(path)
        _populate(db)
        calls = []
        db._conn.set_trace_callback(calls.append)
        db.checkpoint()
        db._conn.set_trace_callback(None)
        assert [c.split(" ")[0] for c in calls] == ["BEGIN", "UPDATE", "DELETE", "COMMIT", "PRAGMA"]
        assert "COMMITS" in calls[2] and calls[4] == "PRAGMA wal_checkpoint(PASSIVE)"
        db.execute("INSERT INTO T (ID) VALUES (7)")
        db.close()
        assert _ids(path) == [1, 2, 7]

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


def _open_copy(path, dest, wal):
    """A copy of the open library at ``path`` with ``wal`` as its -wal."""
    copy_open(path, dest, wal)
    return dest


class TestCrashTolerance:
    def test_torn_wal_record_ignored(self, path, tmp_path):
        db = Database.open(path)
        _populate(db)
        # a crash mid-append: the last commit's frames cut short
        copy = _open_copy(path, str(tmp_path / "copy.rdb"), read_wal(path)[: wal_end(path) - 7])
        db.close()
        db2 = Database.open(copy)
        # last insert lost, earlier statements intact
        assert len(db2.execute("SELECT * FROM T").rows) == 1
        db2.close()

    def test_corrupt_crc_stops_replay(self, path, tmp_path):
        db = Database.open(path)
        _populate(db)
        wal = bytearray(read_wal(path)[: wal_end(path)])
        wal[-frame_size(path) + 20] ^= 0xFF  # a bit of the last frame's checksum
        copy = _open_copy(path, str(tmp_path / "copy.rdb"), bytes(wal))
        db.close()
        db2 = Database.open(copy)
        assert len(db2.execute("SELECT * FROM T").rows) == 1
        db2.close()

    def test_bad_wal_magic_rejected(self, path):
        """A -wal that is not SQLite's replays nothing: the library opens
        as its file holds it."""
        db = Database.open(path)
        _populate(db)
        db.close()
        with open(path + "-wal", "wb") as fh:
            fh.write(b"XXXX" * 64)
        assert _ids(path) == [1, 2]

    def test_bad_snapshot_magic_rejected(self, path):
        with open(path, "wb") as fh:
            fh.write(b"NOPE....")
        with pytest.raises(StorageError):
            Database.open(path)

    def test_directory_path_is_storage_error(self, tmp_path):
        from repro.core.system import VideoRetrievalSystem

        with pytest.raises(StorageError, match="not a database file"):
            Database.open(tmp_path)
        with pytest.raises(StorageError, match="not a database file"):
            VideoRetrievalSystem.open(tmp_path)

    def test_load_into_requires_empty(self, path):
        """A SQLite file whose LIBRARY table is not the facade's does not
        open as a library."""
        raw = sqlite3.connect(path)
        raw.execute("CREATE TABLE LIBRARY (X)")
        raw.close()
        with pytest.raises(StorageError, match="LIBRARY"):
            Database.open(path)

    def test_empty_files_mean_empty_db(self, path):
        db = Database.open(path)
        assert db.table_names() == []
        db.close()

    def test_logged_statement_outside_the_dialect(self, path):
        """A logged commit that holds a statement no ingest makes
        (``DROP TABLE``, say) stops the store's replay with a typed
        error; the caller rebuilds from SQL."""
        db = Database.open(path)
        _populate(db)
        db.close()
        raw = sqlite3.connect(path)
        raw.execute("INSERT INTO COMMITS VALUES (4, ?)", (encode_commit([("DROP TABLE T", ())]),))
        raw.commit()
        raw.close()
        log = read_log(path)
        assert log.last == 4 and log.commits[-1] == [("DROP TABLE T", ())]
        with pytest.raises(DatabaseError):
            apply_commits(FeatureStore(), log.after(log.token, 3), ("sch",))


class TestTransactionRecord:
    """A committed transaction is one SQLite commit and one COMMITS row:
    one fsync, all or nothing."""

    def _committed(self, path, tmp_path):
        """A populated library plus one 3-statement transaction; returns
        a copy of the file from before it, the -wal after it and where
        the transaction's frames start and end."""
        db = Database.open(path)
        _populate(db)
        base = _open_copy(path, str(tmp_path / "base.rdb"), b"")
        start = wal_end(path)
        with db.transaction():
            db.execute("INSERT INTO T (ID, NAME) VALUES (3, 'three')")
            db.execute("INSERT INTO T (ID, NAME, DATA) VALUES (?, ?, ?)", (4, "four", b"\xff" * 9))
            db.execute("DELETE FROM T WHERE ID = 1")
        end, frame, wal = wal_end(path), frame_size(path), read_wal(path)
        db.close()
        return base, wal[:end], (start, end, frame)

    def test_one_fsync_per_transaction(self, path):
        """WAL mode with ``synchronous=FULL`` syncs once per commit; a
        transaction is one commit, an auto-commit its own."""
        db = Database.open(path)
        assert db._conn.execute("PRAGMA journal_mode").fetchall() == [("wal",)]
        assert db._conn.execute("PRAGMA synchronous").fetchall() == [(2,)]  # FULL
        _populate(db)
        seq = db.commit_seq
        with db.transaction():
            for i in range(10, 20):
                db.execute("INSERT INTO T (ID) VALUES (?)", (i,))
        assert db.commit_seq == seq + 1
        db.execute("INSERT INTO T (ID) VALUES (99)")  # auto-commit: its own commit
        assert db.commit_seq == seq + 2
        assert [len(c) for c in read_log(path, seq).commits] == [10, 1]
        db.close()

    def test_truncated_anywhere_replays_all_or_none(self, path, tmp_path):
        base, wal, (start, end, frame) = self._committed(path, tmp_path)
        assert end > start
        copy = str(tmp_path / "copy.rdb")
        for cut in cuts(start, end, frame, step=31):
            copy_open(base, copy, wal[:cut])
            db = Database.open(copy)
            ids = sorted(r["ID"] for r in db.execute("SELECT ID FROM T").rows)
            db.close()
            assert ids == ([2, 3, 4] if cut == end else [1, 2]), cut

    def test_flipped_byte_drops_the_whole_transaction(self, path, tmp_path):
        base, wal, (start, end, frame) = self._committed(path, tmp_path)
        copy = str(tmp_path / "copy.rdb")
        for at in range(start, end, 97):
            torn = bytearray(wal)
            torn[at] ^= 0x55
            copy_open(base, copy, bytes(torn))
            db = Database.open(copy)
            ids = sorted(r["ID"] for r in db.execute("SELECT ID FROM T").rows)
            db.close()
            assert ids == [1, 2], at

    def test_per_statement_wal_still_replays(self, path):
        """An auto-commit's body holds its one statement, a transaction's
        each of its statements, in order."""
        db = Database.open(path)
        _populate(db)
        db.close()
        log = read_log(path)
        assert [len(commit) for commit in log.commits] == [1, 1, 1]
        statements = [("INSERT INTO T (ID, NAME) VALUES (?, ?)", (5, "five")),
                      ("DELETE FROM T WHERE ID = ?", (2,))]
        assert decode_commit(encode_commit(statements)) == statements
        assert decode_commit(encode_commit(statements[:1])) == statements[:1]

    def test_empty_transaction_writes_nothing(self, path):
        db = Database.open(path)
        _populate(db)
        size, seq = os.path.getsize(path + "-wal"), db.commit_seq
        with db.transaction():
            db.execute("SELECT * FROM T")
        assert os.path.getsize(path + "-wal") == size and db.commit_seq == seq
        db.close()
