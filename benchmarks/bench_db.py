"""PERF-DB -- the mini relational engine (the Oracle 9i stand-in).

Times the statement mix the retrieval system actually issues: PK-indexed
point selects, LIKE scans, inserts with BLOB parameters, WAL-logged
inserts, and snapshot checkpoint + reopen.
"""

import pytest

from repro.db import Database

N_ROWS = 2000


@pytest.fixture(scope="module")
def populated():
    db = Database()
    db.execute(
        "CREATE TABLE KF (ID NUMBER PRIMARY KEY, NAME VARCHAR2(40), "
        "V_ID NUMBER, FEATURE VARCHAR2(4000))"
    )
    db.create_index("KF", "V_ID")
    for i in range(N_ROWS):
        db.execute(
            "INSERT INTO KF (ID, NAME, V_ID, FEATURE) VALUES (?, ?, ?, ?)",
            (i, f"frame_{i:05d}", i // 10, "0.5 " * 50),
        )
    return db


def test_insert_throughput(benchmark):
    db = Database()
    db.execute("CREATE TABLE T (ID NUMBER PRIMARY KEY, DATA BLOB)")
    counter = iter(range(10**9))

    def insert():
        db.execute("INSERT INTO T (ID, DATA) VALUES (?, ?)", (next(counter), b"x" * 256))

    benchmark(insert)


def test_pk_point_select(benchmark, populated):
    result = benchmark(
        lambda: populated.execute("SELECT * FROM KF WHERE ID = ?", (N_ROWS // 2,))
    )
    assert result.rowcount == 1


def test_secondary_index_select(benchmark, populated):
    result = benchmark(
        lambda: populated.execute("SELECT * FROM KF WHERE V_ID = ?", (37,))
    )
    assert result.rowcount == 10


def test_like_scan(benchmark, populated):
    result = benchmark(
        lambda: populated.execute("SELECT NAME FROM KF WHERE NAME LIKE 'frame_0001%'")
    )
    assert result.rowcount == 10


def test_order_by_limit(benchmark, populated):
    # the dialect has no LIMIT: the first 20 rows are sliced off the sorted scan
    top = benchmark(
        lambda: populated.execute("SELECT ID FROM KF ORDER BY NAME DESC").rows[:20]
    )
    assert len(top) == 20


def test_update_by_predicate(benchmark, populated):
    benchmark(
        lambda: populated.execute("UPDATE KF SET NAME = 'x' WHERE ID = ?", (5,))
    )


def test_wal_logged_insert(benchmark, tmp_path):
    db = Database.open(str(tmp_path / "bench.rdb"))
    db.execute("CREATE TABLE T (ID NUMBER PRIMARY KEY)")
    counter = iter(range(10**9))

    def insert():
        db.execute("INSERT INTO T (ID) VALUES (?)", (next(counter),))

    benchmark.pedantic(insert, rounds=50, iterations=1)
    db.close()


def test_checkpoint_and_reopen(benchmark, tmp_path):
    path = str(tmp_path / "ckpt.rdb")
    db = Database.open(path)
    db.execute("CREATE TABLE T (ID NUMBER PRIMARY KEY, F VARCHAR2(4000))")
    for i in range(500):
        db.execute("INSERT INTO T (ID, F) VALUES (?, ?)", (i, "0.25 " * 100))
    db.checkpoint()
    db.close()

    def reopen():
        d = Database.open(path)
        n = d.execute("SELECT ID FROM T").rowcount
        d.close()
        return n

    assert benchmark.pedantic(reopen, rounds=5, iterations=1) == 500
