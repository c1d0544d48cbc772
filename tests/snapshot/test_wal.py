"""The database log as the store reads it: one commit sequence in
``COMMITS``, torn tails of SQLite's ``-wal``, the stamps a log cannot
reach, and a ``-wal`` a checkpoint recycles."""

import os
import sqlite3

import pytest

from repro.db import Database
from repro.core.snapshots import read_log
from repro.db.errors import StorageError
from tests.db.sqlite_wal import copy_open, cuts, frame_size, read_wal, wal_end

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
        assert read_log(path) is None
        db = Database.open(path)
        assert db.commit_seq == 0 and len(db.token) == 32
        db.close()
        log = read_log(path)  # nothing committed, nothing logged
        assert (log.base, log.commits, log.token) == (0, [], db.token)

    def test_round_trip(self, path):
        db = _opened(path, 1)  # commits 1 (the table) and 2
        with db.transaction():  # commit 3: one row, two statements
            db.execute(_INSERT, (2, "two"))
            db.execute("DELETE FROM T WHERE ID = ?", (1,))
        assert db.commit_seq == 3
        log = read_log(path)
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
        log = read_log(path)
        assert (log.base, log.last, log.token) == (0, 3, token)
        assert log.after(token, 2) == [[(_INSERT, (2, "n2"))]]

    def test_remove_wal(self, path):
        """A checkpoint drops the logged commits and moves the log's base
        to the last one; the sequence goes on from there."""
        db = _opened(path, 1)
        db.checkpoint()
        log = read_log(path)
        assert (log.base, log.commits) == (2, [])
        db.execute(_INSERT, (2, "n2"))
        db.close()
        assert read_log(path).last == 3
        reopened = Database.open(path)
        assert reopened.commit_seq == 3
        reopened.close()
        assert _ids(path) == [1, 2]


class TestDamage:
    def test_torn_final_line_dropped(self, tmp_path, path):
        """A crash mid-commit (commit 3's frames cut short in the copy of
        ``-wal``) reopens at commit 2; the next write is commit 3 again."""
        db = _opened(path, 1)
        db.execute(_INSERT, (2, "n2"))
        copy = str(tmp_path / "copy.rdb")
        copy_open(path, copy, read_wal(path)[: wal_end(path) - 5])
        db.close()
        assert read_log(copy).last == 2
        db = _opened(copy, 3)  # commit 3 again
        assert db.commit_seq == 3
        token = db.token
        db.close()
        assert read_log(copy).after(token, 2) == [[(_INSERT, (3, "n3"))]]
        assert _ids(copy) == [1, 3]

    def test_stale_base_generation(self, path):
        """A stamp the log's base has passed: those commits are folded."""
        db = _opened(path, 1)
        db.checkpoint()
        db.execute(_INSERT, (2, "n2"))
        token = db.token
        db.close()
        log = read_log(path)
        assert log.after(token, 2) == [[(_INSERT, (2, "n2"))]]
        with pytest.raises(StorageError, match="not those after 1"):
            log.after(token, 1)
        with pytest.raises(StorageError, match="not those after 4"):
            log.after(token, 4)
        with pytest.raises(StorageError, match="another library"):
            log.after("0" * 32, 2)

    def test_sequence_gap(self, path):
        """A log that skips commits, or a library table that is not one
        row, is refused."""
        db = _opened(path, 1, 2, 3)
        db.close()
        raw = sqlite3.connect(path)
        raw.execute("DELETE FROM COMMITS WHERE SEQ = 3")
        raw.commit()
        with pytest.raises(StorageError, match="gap after commit 0"):
            read_log(path)
        assert read_log(path, 3).commits == [[(_INSERT, (3, "n3"))]]
        raw.execute("INSERT INTO LIBRARY VALUES ('x', 0)")
        raw.commit()
        raw.close()
        with pytest.raises(StorageError, match="not one token and base"):
            Database.open(path)
        with pytest.raises(StorageError, match="not one token and base"):
            read_log(path)


class TestRecycledLog:
    """After a checkpoint SQLite starts its ``-wal`` over in place, so the
    frames of the previous generation stay behind the new commits.  None
    of them may replay."""

    K, J = 6, 3

    def _recycled(self, tmp_path, path, name_len):
        """K commits, a checkpoint, J - 1 commits, then the J-th, on an
        open library; returns a copy of its file from before the J-th,
        the ``-wal`` before and after that last append, where the append
        starts and ends, and the id lists after J - 1 and J commits."""
        db = _opened(path)  # commit 1: the table
        for i in range(self.K):
            db.execute(_INSERT, (100 + i, f"{i:04d}"))
        db.checkpoint()
        for i in range(self.J - 1):
            db.execute(_INSERT, (200 + i, "x" * name_len))
        base = str(tmp_path / "base.rdb")
        copy_open(path, base, b"")
        before, start = read_wal(path), wal_end(path)
        db.execute(_INSERT, (200 + self.J - 1, "x" * name_len))
        after, end, frame = read_wal(path), wal_end(path), frame_size(path)
        db.close()
        old, new = list(range(100, 100 + self.K)), list(range(200, 200 + self.J))
        return base, before, after, (start, end, frame), old + new[:-1], old + new

    @pytest.mark.parametrize("name_len", [4, 1, 9], ids=["aligned", "shorter", "longer"])
    def test_torn_last_append_over_stale_bytes(self, tmp_path, path, name_len):
        """The last append cut at many bytes, the stale bytes after the
        cut left as a torn overwrite leaves them: the database is the
        model after J - 1 commits, or after J once the commit is whole."""
        base, before, after, (start, end, frame), ids_before, ids_after = self._recycled(
            tmp_path, path, name_len
        )
        assert len(after) == len(before)  # overwritten in place
        assert end < len(after)  # frames of the previous generation follow
        copy = str(tmp_path / "copy.rdb")
        for cut in cuts(start, end, frame, step=97):
            copy_open(base, copy, after[:cut] + before[cut:])
            assert _ids(copy) == (ids_after if cut == end else ids_before), cut

    def test_reopen_and_write_keep_the_file(self, path):
        """Neither a checkpoint nor the writes after it truncate or
        replace ``-wal``: it keeps the most it ever held."""
        db = _opened(path, *range(20))
        before = os.stat(path + "-wal")
        db.checkpoint()
        folded = os.stat(path + "-wal")
        db.execute(_INSERT, (300, "n300"))
        after = os.stat(path + "-wal")
        assert before.st_ino == folded.st_ino == after.st_ino
        assert before.st_size <= folded.st_size == after.st_size
        assert after.st_blocks >= before.st_blocks
        assert wal_end(path) < after.st_size  # the write started over in place
        assert read_log(path).last == db.commit_seq == 22
        db.close()

    def test_frames_behind_a_corrupt_one_stay_dropped(self, tmp_path, path):
        """Recovery stops at a frame whose checksum fails and drops every
        commit behind it; the next commit takes the corrupt one's place."""
        db = _opened(path, 10)  # commits 1 (the table) and 2
        start = wal_end(path)  # commit 3's frames
        for i in (11, 12, 13):
            db.execute(_INSERT, (i, f"n{i}"))
        wal = bytearray(read_wal(path)[: wal_end(path)])
        copy = str(tmp_path / "copy.rdb")
        wal[start + frame_size(path) // 2] ^= 0x55
        copy_open(path, copy, bytes(wal))
        db.close()
        assert _ids(copy) == [10]
        _opened(copy, 20).close()  # commit 3 again
        assert read_log(copy).last == 3
        assert _ids(copy) == [10, 20]
