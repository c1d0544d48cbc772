"""The database log as the store reads it: one commit sequence, torn
tails, the stamps a log cannot reach, and a log a checkpoint recycles."""

import os
import shutil
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


class TestRecycledLog:
    """A checkpoint restarts the log in place, so the bytes of the previous
    generation stay behind the new commits.  None of them may replay."""

    K, J = 6, 3

    def _recycled(self, path, name_len):
        """K commits, a checkpoint, J - 1 commits, then the J-th; returns
        the log before and after that last append and the id lists after
        J - 1 and J commits.  The K commits' frames all have one length;
        with ``name_len == 4`` so do the J, and every new frame ends
        exactly where a stale one began."""
        db = _opened(path)  # commit 1: the table
        db.checkpoint()
        for i in range(self.K):
            db.execute(_INSERT, (100 + i, f"{i:04d}"))
        db.checkpoint()
        for i in range(self.J - 1):
            db.execute(_INSERT, (200 + i, "x" * name_len))
        with open(path + ".wal", "rb") as fh:
            before = fh.read()
        db.execute(_INSERT, (200 + self.J - 1, "x" * name_len))
        db.close()
        with open(path + ".wal", "rb") as fh:
            after = fh.read()
        old, new = list(range(100, 100 + self.K)), list(range(200, 200 + self.J))
        return before, after, old + new[:-1], old + new

    @pytest.mark.parametrize("name_len", [4, 1, 9], ids=["aligned", "shorter", "longer"])
    def test_torn_last_append_over_stale_bytes(self, tmp_path, path, name_len):
        """The last append cut at every byte, the stale bytes after the cut
        left as a torn overwrite leaves them: the database is the model
        after J - 1 commits, or after J once the frame is whole."""
        before, after, ids_before, ids_after = self._recycled(path, name_len)
        assert len(after) == len(before)  # overwritten in place
        end = read_log(path + ".wal").end
        if name_len == 4:  # a whole frame of the previous generation follows
            length, seq = struct.unpack_from("<IQ", after, end)
            assert seq == 2 + self.J and end + 16 + length <= len(after)
        copy = str(tmp_path / "copy" / "lib.rdb")
        os.makedirs(os.path.dirname(copy))
        shutil.copy(path, copy)
        with open(copy + ".wal", "wb") as fh:
            fh.write(before)
        start = read_log(copy + ".wal").end  # where the last append began
        for cut in range(start, end + 1):
            with open(copy + ".wal", "wb") as fh:
                fh.write(after[:cut] + before[cut:])
            assert _ids(copy) == (ids_after if cut == end else ids_before), cut

    def test_reopen_and_write_keep_the_file(self, path):
        self._recycled(path, 4)
        before = os.stat(path + ".wal")
        db = _opened(path, 300)
        db.close()
        after = os.stat(path + ".wal")
        assert (after.st_ino, after.st_size) == (before.st_ino, before.st_size)
        assert after.st_blocks >= before.st_blocks
        assert read_log(path + ".wal").last == 2 + self.K + self.J

    def test_frames_behind_a_corrupt_one_stay_dropped(self, path):
        """Replay stops at a corrupt frame and drops the commits behind
        it.  The next commit overwrites that frame with one of the same
        length, so the dropped frames line up again with their own
        sequences; their CRCs ran on from the frame they followed, and
        they stay dropped."""
        db = _opened(path, 10)  # commits 1 (the table) and 2
        start = read_log(path + ".wal").end  # commit 3's frame
        for i in (11, 12, 13):
            db.execute(_INSERT, (i, f"n{i}"))
        db.close()
        with open(path + ".wal", "r+b") as fh:
            fh.seek(start + 20)
            byte = fh.read(1)
            fh.seek(start + 20)
            fh.write(bytes([byte[0] ^ 0x55]))
        assert _ids(path) == [10]
        _opened(path, 20).close()  # commit 3 again, in the corrupt frame's place
        assert read_log(path + ".wal").last == 3
        assert _ids(path) == [10, 20]
