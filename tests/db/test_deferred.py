"""A library opens without reading a row; a statement reads the rows it
needs from SQLite, whichever thread runs it (the facade's one connection
is shared behind its lock)."""

import os
import re
import sqlite3
import sys
import threading

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.db import Database
from repro.db.errors import StorageError
from repro.imaging.image import Image
from repro.resilience.errors import FaultInjected
from tests.integration.test_stateful import _armed, sql_rows

_ROWS = 50


@pytest.fixture()
def path(tmp_path):
    """A checkpointed library: T (primary key, a column to index, a BLOB), U."""
    p = str(tmp_path / "deferred.rdb")
    db = Database.open(p)
    db.execute("CREATE TABLE T (ID NUMBER PRIMARY KEY, G NUMBER, DATA BLOB)")
    db.execute("CREATE TABLE U (K VARCHAR2(4))")
    for i in range(_ROWS):
        db.execute("INSERT INTO T (ID, G, DATA) VALUES (?, ?, ?)", (i, i % 5, bytes([i]) * 3))
    db.execute("INSERT INTO U (K) VALUES ('u')")
    db.checkpoint()
    db.close()
    return p


_READS = re.compile(r'^(?!CREATE|EXPLAIN).*\b(?:FROM|INTO|UPDATE)\s+"?(T|U|KEY_FRAMES)\b', re.S)


class _Reads(list):
    """The statements SQLite ran on a user table's rows, by table."""

    def of(self, table):
        return [text for name, text in self if name == table]


@pytest.fixture()
def decodes(monkeypatch):
    """Every statement a connection opened from now on runs on T, U or
    KEY_FRAMES (its DDL aside), as ``(table, text)``."""
    reads = _Reads()
    real = sqlite3.connect

    def traced(text):
        m = _READS.match(text)
        if m:
            reads.append((m.group(1), text))

    def connect(*args, **kwargs):
        conn = real(*args, **kwargs)
        conn.set_trace_callback(traced)
        return conn

    monkeypatch.setattr(sqlite3, "connect", connect)
    return reads


def _all(db):
    return db.execute("SELECT * FROM T ORDER BY ID").rows


class TestFirstUse:
    def test_open_decodes_no_row(self, path, decodes):
        db = Database.open(path)
        assert decodes == []
        assert db.execute("SELECT K FROM U").rows == [{"K": "u"}]
        assert len(decodes.of("U")) == 1 and decodes.of("T") == []
        assert len(_all(db)) == _ROWS
        assert _all(db) == _all(db)
        assert len(decodes.of("T")) == 3  # each statement reads what it needs
        db.close()

    def test_index_registered_on_a_deferred_table_is_built_at_decode(self, path, decodes):
        db = Database.open(path)
        db.create_index("T", "G")
        assert decodes == []
        (plan,) = db._conn.execute("EXPLAIN QUERY PLAN SELECT ID FROM T WHERE G = 3")
        assert "USING INDEX IX_T_G" in plan[-1]
        rows = db.execute("SELECT ID FROM T WHERE G = ?", (3,)).rows
        assert [r["ID"] for r in rows] == list(range(3, _ROWS, 5))
        assert len(decodes.of("T")) == 1
        db.close()

    def test_concurrent_first_reads_decode_once(self, path, decodes):
        """A second reader waits for the first one's statement: the
        connection runs one at a time, and both see every row."""
        entered, release = threading.Event(), threading.Event()
        db = Database.open(path)

        def held(text):
            if "FROM T" in text and not entered.is_set():
                entered.set()
                release.wait(5)

        db._conn.set_trace_callback(held)
        seen = []
        readers = [threading.Thread(target=lambda: seen.append(_all(db))) for _ in range(2)]
        readers[0].start()
        assert entered.wait(5)
        readers[1].start()  # finds the first statement under way, and waits
        readers[1].join(0.2)
        assert readers[1].is_alive() and seen == []
        release.set()
        for reader in readers:
            reader.join(5)
        assert not any(reader.is_alive() for reader in readers)
        assert len(seen) == 2 and seen[0] == seen[1] and len(seen[0]) == _ROWS
        db.close()

    def test_many_first_readers_under_a_short_switch_interval(self, tmp_path, decodes):
        n_rows, big = 3000, str(tmp_path / "big.rdb")
        db = Database.open(big)
        db.execute("CREATE TABLE T (ID NUMBER PRIMARY KEY, G NUMBER, DATA BLOB)")
        with db.transaction():
            for i in range(n_rows):
                db.execute("INSERT INTO T (ID, G) VALUES (?, ?)", (i, i % 5))
        db.checkpoint()
        db.close()
        db = Database.open(big)
        decodes.clear()
        seen = []
        start = threading.Barrier(8)

        def read():
            start.wait(10)
            seen.append(len(_all(db)))

        readers = [threading.Thread(target=read) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert seen == [n_rows] * 8 and len(decodes.of("T")) == 8
        db.close()


class TestTransactions:
    def test_begin_keeps_a_deferred_table_deferred(self, path, decodes):
        db = Database.open(path)
        db.begin()
        db.execute("INSERT INTO U (K) VALUES ('v')")
        db.commit()
        assert decodes.of("T") == [] and len(decodes.of("U")) == 1
        db.close()

    @pytest.mark.parametrize(
        "write",
        [
            "DELETE FROM T WHERE G = 1",
            "UPDATE T SET DATA = NULL WHERE ID > 10",
            "INSERT INTO T (ID, G) VALUES (99, 0)",
        ],
    )
    def test_rolled_back_first_write_decodes_again_from_the_file(self, path, decodes, write):
        reference = Database.open(path)
        expected = _all(reference)
        reference.close()
        decodes.clear()
        db = Database.open(path)
        db.begin()
        db.execute(write)
        db.rollback()
        assert _all(db) == expected
        assert decodes.of("T") == [write, "SELECT * FROM T ORDER BY ID NULLS LAST"]
        db.close()


class TestFailuresAtFirstUse:
    def test_closed_file(self, path):
        db = Database.open(path)
        db.close()
        with pytest.raises(StorageError, match="closed"):
            _all(db)

    @pytest.mark.parametrize("keep", [0, 0.5])
    def test_truncated_file(self, path, keep):
        db = Database.open(path)
        os.truncate(path, int(os.path.getsize(path) * keep))
        with pytest.raises(StorageError, match="malformed"):
            _all(db)
        with pytest.raises(StorageError, match="malformed"):  # and at every later use
            db.execute("SELECT MAX(ID) FROM T")
        db.close()


# -- a library: open + search, and a failed first write -----------------------------

_CONFIG = SystemConfig(features=("sch", "naive"), keyframe_base_size=60)


def _clip(seed: int):
    gen = np.random.default_rng(seed)
    return [Image(gen.integers(0, 256, (20, 24, 3), dtype=np.uint8)) for _ in range(2)]


@pytest.fixture(scope="module")
def library(tmp_path_factory):
    """A checkpointed library of three videos; returns its path and a query."""
    path = str(tmp_path_factory.mktemp("deferred-library") / "lib.rdb")
    system = VideoRetrievalSystem.open(path, _CONFIG)
    for i in range(3):
        system.admin.add_video(_clip(i), name=f"v{i}", category="misc")
    system.admin.checkpoint()
    query = system.any_key_frame()
    system.close()
    return path, query


def _copy(library, tmp_path):
    path = str(tmp_path / "lib.rdb")
    for suffix in ("", ".snap"):
        with open(library + suffix, "rb") as src, open(path + suffix, "wb") as dst:
            dst.write(src.read())
    return path


class TestLibrary:
    def test_open_and_search_decode_no_row(self, library, tmp_path, decodes):
        path, query = library
        system = VideoRetrievalSystem.open(_copy(path, tmp_path), _CONFIG)
        hits = system.search(query, top_k=3)
        assert system.snapshots.served_from == "mmap" and len(hits) == 3
        assert decodes == []
        assert system.get_key_frame(hits[0].frame_id) == query
        assert len(decodes.of("KEY_FRAMES")) == 1  # the image's row
        system.close()

    @pytest.mark.parametrize(
        "op,k", [("add", 1), ("add", 2), ("add", 4), ("delete", 2), ("delete", 3), ("rename", 1)]
    )
    def test_fault_in_the_first_write_after_a_reopen(self, library, tmp_path, op, k):
        path = _copy(library[0], tmp_path)
        system = VideoRetrievalSystem.open(path, _CONFIG)
        before = sql_rows(system.db), system.db.commit_seq
        system.close()
        system = VideoRetrievalSystem.open(path, _CONFIG)
        with open(path + "-wal", "rb") as fh:
            log = fh.read()
        admin = system.admin
        writes = {
            "add": lambda: admin.add_video(_clip(9), name="crashed", category="misc"),
            "delete": lambda: admin.delete_video(2),
            "rename": lambda: admin.rename_video(2, "crashed"),
        }
        with _armed(system, f"db.execute:every={k}"), pytest.raises(FaultInjected):
            writes[op]()
        assert (sql_rows(system.db), system.db.commit_seq) == before
        with open(path + "-wal", "rb") as fh:
            assert fh.read() == log
        system.close()
