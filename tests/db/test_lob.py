"""LOB cells: BLOB / ORD_VIDEO / ORD_IMAGE bytes stay in the library file,
are read for the statements that name them, and survive every checkpoint."""

import os

import pytest

from repro.db import Database
from repro.db.errors import StorageError


@pytest.fixture()
def path(tmp_path):
    return str(tmp_path / "media.rdb")


def _payload(i: int, size: int = 300) -> bytes:
    return bytes((i * 7 + k) % 256 for k in range(size * i))


def _expected(ids):
    return {i: (_payload(i), _payload(i, 500)) for i in ids}


def _library(path, ids=(1, 2, 3)):
    db = Database.open(path)
    db.execute(
        "CREATE TABLE M (ID NUMBER PRIMARY KEY, NAME VARCHAR2(8), DATA BLOB, CLIP ORD_VIDEO)"
    )
    for i in ids:
        db.execute(
            "INSERT INTO M (ID, NAME, DATA, CLIP) VALUES (?, ?, ?, ?)",
            (i, f"m{i}", _payload(i), _payload(i, 500)),
        )
    db.checkpoint()
    return db


def _blobs(db):
    rows = db.execute("SELECT ID, DATA, CLIP FROM M ORDER BY ID").rows
    return {r["ID"]: (r["DATA"], r["CLIP"]) for r in rows}


class TestReadOnDemand:
    def test_open_and_metadata_reads_copy_no_blob(self, path):
        """Metadata statements hand back no BLOB bytes (SQLite reads a
        BLOB's overflow pages only for a statement that names it), and a
        metadata write leaves them as they were."""
        _library(path).close()
        db = Database.open(path)
        assert db.execute("SELECT ID, NAME FROM M WHERE ID >= 2 ORDER BY NAME").rows == [
            {"ID": 2, "NAME": "m2"},
            {"ID": 3, "NAME": "m3"},
        ]
        db.execute("UPDATE M SET NAME = ? WHERE ID = ?", ("two", 2))
        assert len(db.execute("SELECT ID FROM M WHERE NAME != 'x'").rows) == 3
        assert db.execute("SELECT DATA FROM M WHERE ID = ?", (2,)).rows == [
            {"DATA": _payload(2)}
        ]
        assert _blobs(db) == _expected((1, 2, 3))
        db.close()

    def test_where_order_by_and_aggregates_read_bytes(self, path):
        _library(path).close()
        db = Database.open(path)
        assert db.execute("SELECT ID FROM M WHERE DATA = ?", (_payload(3),)).rows == [{"ID": 3}]
        assert [r["ID"] for r in db.execute("SELECT ID FROM M ORDER BY CLIP DESC").rows] == sorted(
            (1, 2, 3), key=lambda i: _payload(i, 500), reverse=True
        )
        assert db.execute("SELECT MAX(DATA) FROM M").scalar() == max(
            _payload(i) for i in (1, 2, 3)
        )
        assert db.execute("SELECT MAX(CLIP) FROM M WHERE ID < ?", (3,)).scalar() == max(
            _payload(i, 500) for i in (1, 2)
        )
        db.close()


class TestLifecycle:
    def test_after_open(self, path):
        _library(path).close()
        db = Database.open(path)
        assert _blobs(db) == _expected((1, 2, 3))
        db.close()

    def test_after_one_and_two_checkpoints(self, path):
        db = _library(path)
        assert _blobs(db) == _expected((1, 2, 3))
        db.execute(
            "INSERT INTO M (ID, NAME, DATA, CLIP) VALUES (?, ?, ?, ?)",
            (4, "m4", _payload(4), _payload(4, 500)),
        )
        db.checkpoint()
        assert _blobs(db) == _expected((1, 2, 3, 4))
        db.checkpoint()
        assert _blobs(db) == _expected((1, 2, 3, 4))
        db.close()
        db = Database.open(path)
        assert _blobs(db) == _expected((1, 2, 3, 4))
        db.close()

    def test_after_a_rolled_back_transaction(self, path):
        _library(path).close()
        db = Database.open(path)
        db.begin()
        db.execute("UPDATE M SET DATA = ? WHERE ID = ?", (b"new", 1))
        db.execute("DELETE FROM M WHERE ID = ?", (2,))
        db.rollback()
        assert _blobs(db) == _expected((1, 2, 3))
        db.checkpoint()
        assert _blobs(db) == _expected((1, 2, 3))
        db.close()

    def test_after_delete_and_checkpoint(self, path):
        db = _library(path)
        db.execute("DELETE FROM M WHERE ID = ?", (2,))
        db.checkpoint()
        assert _blobs(db) == _expected((1, 3))
        db.close()
        db = Database.open(path)
        assert _blobs(db) == _expected((1, 3))
        db.close()

    def test_file_truncated_under_an_open_database(self, path):
        _library(path).close()
        db = Database.open(path)
        os.truncate(path, os.path.getsize(path) // 2)
        with pytest.raises(StorageError, match="malformed"):
            _blobs(db)
        db.close()

    def test_closed_database_refuses_lob_reads(self, path):
        _library(path).close()
        db = Database.open(path)
        db.close()
        with pytest.raises(StorageError, match="closed"):
            _blobs(db)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_checkpoints_release_the_files_they_replace(self, path):
        db = _library(path)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            db.checkpoint()
        assert len(os.listdir("/proc/self/fd")) == before
        assert _blobs(db) == _expected((1, 2, 3))
        db.close()
