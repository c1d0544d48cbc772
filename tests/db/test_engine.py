"""Database engine tests: CRUD, predicates, transactions."""

import datetime

import pytest

from repro.db import Database
from repro.db.errors import (
    CatalogError,
    ConstraintError,
    DatabaseError,
    SqlSyntaxError,
    TransactionError,
    TypeMismatchError,
)


@pytest.fixture()
def db():
    d = Database()
    d.execute(
        "CREATE TABLE T (ID NUMBER PRIMARY KEY, NAME VARCHAR2(20), "
        "SCORE NUMBER, DATA BLOB, D DATE)"
    )
    d.execute("INSERT INTO T (ID, NAME, SCORE) VALUES (1, 'alpha', 10)")
    d.execute("INSERT INTO T (ID, NAME, SCORE) VALUES (2, 'beta', 20)")
    d.execute("INSERT INTO T (ID, NAME) VALUES (3, 'gamma')")
    return d


class TestDdl:
    def test_create_and_list(self, db):
        assert db.table_names() == ["T"]
        db.execute("CREATE TABLE U (X NUMBER)")
        assert db.table_names() == ["T", "U"]

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE T (X NUMBER)")

    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM NOPE")


class TestInsert:
    def test_rowcount(self, db):
        r = db.execute("INSERT INTO T (ID, NAME) VALUES (9, 'x')")
        assert r.rowcount == 1

    def test_duplicate_pk(self, db):
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO T (ID) VALUES (1)")

    def test_pk_int_float_equivalence(self, db):
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO T (ID) VALUES (1.0)")

    def test_not_null_enforced(self, db):
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO T (NAME) VALUES ('no id')")

    def test_type_checked(self, db):
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO T (ID, NAME) VALUES (5, 42)")

    def test_varchar_overflow(self, db):
        with pytest.raises(TypeMismatchError):
            db.execute(f"INSERT INTO T (ID, NAME) VALUES (5, '{'x' * 30}')")

    def test_unknown_column(self, db):
        with pytest.raises(CatalogError):
            db.execute("INSERT INTO T (ID, BOGUS) VALUES (5, 1)")

    def test_blob_param(self, db):
        db.execute("INSERT INTO T (ID, DATA) VALUES (?, ?)", (5, b"\x00\x01"))
        row = db.execute("SELECT DATA FROM T WHERE ID = 5").rows[0]
        assert row["DATA"] == b"\x00\x01"

    def test_date_param_and_literal(self, db):
        db.execute("INSERT INTO T (ID, D) VALUES (?, ?)", (6, datetime.date(2012, 1, 1)))
        db.execute("INSERT INTO T (ID, D) VALUES (7, DATE '2012-06-15')")
        rows = db.execute("SELECT ID, D FROM T WHERE ID > 5 ORDER BY ID").rows
        assert rows == [
            {"ID": 6, "D": datetime.date(2012, 1, 1)},
            {"ID": 7, "D": datetime.date(2012, 6, 15)},
        ]

    @pytest.fixture()
    def dated(self, db):
        for row_id in (6, 7):
            db.execute("INSERT INTO T (ID, D) VALUES (?, DATE '2012-10-01')", (row_id,))
        return db

    def test_date_literal_equals_a_stored_date(self, dated):
        rows = dated.execute("SELECT ID FROM T WHERE D = DATE '2012-10-01' ORDER BY ID").rows
        assert rows == [{"ID": 6}, {"ID": 7}]
        assert dated.execute(
            "SELECT ID FROM T WHERE D = ? ORDER BY ID", (datetime.date(2012, 10, 1),)
        ).rows == rows

    def test_date_literal_orders_against_stored_dates(self, dated):
        assert len(dated.execute("SELECT ID FROM T WHERE D < DATE '2013-01-01'").rows) == 2
        assert dated.execute("SELECT ID FROM T WHERE D < DATE '2012-10-01'").rows == []

    def test_date_literal_at_or_after(self, dated):
        assert len(dated.execute("SELECT ID FROM T WHERE D >= DATE '2012-10-01'").rows) == 2
        assert dated.execute("SELECT ID FROM T WHERE DATE '2012-10-02' <= D").rows == []

    def test_param_count_mismatch(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("INSERT INTO T (ID) VALUES (?)", (1, 2))
        with pytest.raises(SqlSyntaxError):
            db.execute("INSERT INTO T (ID) VALUES (?)")

    def test_positional_insert(self, db):
        db.execute("INSERT INTO T VALUES (8, 'h', 1, ?, NULL)", (b"d",))
        assert db.execute("SELECT NAME FROM T WHERE ID = 8").scalar() == "h"


class TestSelect:
    def test_where_comparisons(self, db):
        assert len(db.execute("SELECT * FROM T WHERE SCORE > 10").rows) == 1
        assert len(db.execute("SELECT * FROM T WHERE SCORE >= 10").rows) == 2
        assert len(db.execute("SELECT * FROM T WHERE SCORE != 10").rows) == 1

    def test_null_semantics(self, db):
        # SCORE of row 3 is NULL: comparisons with NULL are never true
        assert len(db.execute("SELECT * FROM T WHERE SCORE < 1000").rows) == 2
        assert len(db.execute("SELECT * FROM T WHERE SCORE != 10").rows) == 1
        assert db.execute("SELECT * FROM T WHERE SCORE = NULL").rows == []
        assert db.execute("SELECT * FROM T WHERE SCORE != ?", (None,)).rows == []

    def test_like(self, db):
        rows = db.execute("SELECT NAME FROM T WHERE NAME LIKE '%a'").rows
        assert {r["NAME"] for r in rows} == {"alpha", "beta", "gamma"}
        rows = db.execute("SELECT NAME FROM T WHERE NAME LIKE 'al%'").rows
        assert [r["NAME"] for r in rows] == ["alpha"]
        rows = db.execute("SELECT NAME FROM T WHERE NAME LIKE '_eta'").rows
        assert [r["NAME"] for r in rows] == ["beta"]

    def test_boolean_combinations(self, db):
        rows = db.execute(
            "SELECT ID FROM T WHERE (ID = 1 OR ID = 2) AND NAME != 'beta'"
        ).rows
        assert [r["ID"] for r in rows] == [1]
        rows = db.execute(
            "SELECT ID FROM T WHERE ID = 3 OR (SCORE >= 10 AND (NAME = 'beta' OR ID < 1))"
        ).rows
        assert [r["ID"] for r in rows] == [2, 3]

    def test_order_by(self, db):
        rows = db.execute("SELECT ID FROM T ORDER BY ID DESC").rows
        assert [r["ID"] for r in rows] == [3, 2, 1]

    def test_order_by_nulls_last(self, db):
        rows = db.execute("SELECT ID FROM T ORDER BY SCORE").rows
        assert rows[-1]["ID"] == 3

    def test_order_by_multi_key(self, db):
        db.execute("INSERT INTO T (ID, NAME, SCORE) VALUES (4, 'alpha', 5)")
        rows = db.execute("SELECT ID FROM T ORDER BY NAME, SCORE DESC").rows
        assert [r["ID"] for r in rows][:2] == [1, 4]

    def test_projection(self, db):
        row = db.execute("SELECT NAME FROM T WHERE ID = 1").rows[0]
        assert set(row) == {"NAME"}

    def test_unknown_column_in_projection(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT BOGUS FROM T")

    def test_unknown_column_in_where(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM T WHERE BOGUS = 1")

    def test_unknown_column_in_order_by(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM T ORDER BY BOGUS")

    def test_scalar(self, db):
        assert db.execute("SELECT NAME FROM T WHERE ID = 2").scalar() == "beta"
        with pytest.raises(DatabaseError):
            db.execute("SELECT NAME FROM T").scalar()

    def test_pk_fast_path(self, db):
        rows = db.execute("SELECT * FROM T WHERE ID = ?", (2,)).rows
        assert rows[0]["NAME"] == "beta"
        # reversed operand order hits the same fast path
        rows = db.execute("SELECT * FROM T WHERE 2 = ID").rows
        assert rows[0]["NAME"] == "beta"

    def test_secondary_index_lookup(self, db):
        db.create_index("T", "NAME")
        rows = db.execute("SELECT ID FROM T WHERE NAME = 'beta'").rows
        assert [r["ID"] for r in rows] == [2]

    def test_incomparable_types(self, db):
        with pytest.raises(DatabaseError):
            db.execute("SELECT * FROM T WHERE NAME > 5")


class TestUpdateDelete:
    def test_update(self, db):
        n = db.execute("UPDATE T SET SCORE = 99 WHERE ID = 1").rowcount
        assert n == 1
        assert db.execute("SELECT SCORE FROM T WHERE ID = 1").scalar() == 99

    def test_update_all(self, db):
        assert db.execute("UPDATE T SET SCORE = 1").rowcount == 3

    def test_update_pk_conflict_rejected(self, db):
        with pytest.raises(ConstraintError):
            db.execute("UPDATE T SET ID = 2 WHERE ID = 1")
        # and the failed update must not have modified anything
        assert db.execute("SELECT NAME FROM T WHERE ID = 1").scalar() == "alpha"

    def test_update_pk_move_allowed(self, db):
        db.execute("UPDATE T SET ID = 42 WHERE ID = 1")
        assert db.execute("SELECT NAME FROM T WHERE ID = 42").scalar() == "alpha"

    def test_delete(self, db):
        assert db.execute("DELETE FROM T WHERE ID > 1").rowcount == 2
        assert len(db.execute("SELECT * FROM T").rows) == 1

    def test_delete_frees_pk(self, db):
        db.execute("DELETE FROM T WHERE ID = 1")
        db.execute("INSERT INTO T (ID, NAME) VALUES (1, 'again')")
        assert db.execute("SELECT NAME FROM T WHERE ID = 1").scalar() == "again"


class TestMax:
    """``MAX(col)``, the one aggregate: ingest allocates ids with it."""

    def test_max(self, db):
        assert db.execute("SELECT MAX(SCORE) FROM T").rows == [{"MAX(SCORE)": 20}]
        assert db.execute("SELECT MAX(NAME) FROM T WHERE ID < ?", (3,)).scalar() == "beta"

    def test_max_over_no_values_is_null(self, db):
        assert db.execute("SELECT MAX(SCORE) FROM T WHERE ID > 99").scalar() is None
        assert db.execute("SELECT MAX(SCORE) FROM T WHERE ID = 3").scalar() is None

    def test_unknown_column(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT MAX(BOGUS) FROM T")

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT MAX(*) FROM T",
            "SELECT MAX(SCORE) FROM T ORDER BY ID",
            "SELECT MAX(SCORE), ID FROM T",
            "SELECT ID, MAX(SCORE) FROM T",
            "SELECT MAX(SCORE, ID) FROM T",
        ],
        ids=["star", "order_by", "then_column", "after_column", "two_columns"],
    )
    def test_max_is_the_only_item(self, db, text):
        with pytest.raises(SqlSyntaxError):
            db.execute(text)

    def test_max_and_count_are_column_names_too(self):
        # KEY_FRAMES has MIN and MAX columns (the paper's DDL)
        d = Database()
        d.execute("CREATE TABLE C (MAX NUMBER, COUNT NUMBER)")
        d.execute("INSERT INTO C (MAX, COUNT) VALUES (7, 8)")
        assert d.execute("SELECT MAX, COUNT FROM C WHERE MAX = 7").rows == [
            {"MAX": 7, "COUNT": 8}
        ]
        assert d.execute("SELECT MAX(COUNT) FROM C").scalar() == 8


class TestResolvedBeforeTheScan:
    """A statement's columns are resolved before it reads a row, so an
    unknown one fails whatever the table holds."""

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT * FROM T WHERE BOGUS = 1",
            "SELECT MAX(ID) FROM T WHERE BOGUS = 1",
            "DELETE FROM T WHERE BOGUS = 1",
            "UPDATE T SET SCORE = 1 WHERE BOGUS = 1",
        ],
    )
    def test_unknown_column_in_an_empty_table(self, db, text):
        db.execute("DELETE FROM T")
        with pytest.raises(CatalogError, match="BOGUS"):
            db.execute(text)

    def test_unknown_column_no_row_reaches(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM T WHERE ID < 99 OR BOGUS = 2")
        with pytest.raises(CatalogError):
            db.execute("UPDATE T SET SCORE = 0 WHERE ID > 99 AND 2 = BOGUS")

    def test_refused_update_is_not_logged(self, tmp_path):
        d = Database.open(str(tmp_path / "t.rdb"))
        d.execute("CREATE TABLE T (X NUMBER PRIMARY KEY)")
        d.execute("INSERT INTO T (X) VALUES (1)")
        seq = d.commit_seq
        with pytest.raises(CatalogError):
            d.execute("UPDATE T SET X = 5 WHERE X = 2 AND Q = 2")
        assert d.commit_seq == seq
        d.close()
        d = Database.open(str(tmp_path / "t.rdb"))
        assert d.execute("SELECT X FROM T").rows == [{"X": 1}]
        d.close()

    def test_like_pattern_compiled_once(self, db, monkeypatch):
        from repro.db import engine

        compiled = []
        real = engine._like_to_regex
        monkeypatch.setattr(
            engine, "_like_to_regex", lambda pattern: compiled.append(pattern) or real(pattern)
        )
        rows = db.execute("SELECT ID FROM T WHERE NAME LIKE ? ORDER BY ID", ("%a",)).rows
        assert [r["ID"] for r in rows] == [1, 2, 3]
        assert compiled == ["%a"]


class TestTransactions:
    def test_commit_keeps_changes(self, db):
        db.begin()
        db.execute("DELETE FROM T WHERE ID = 1")
        db.commit()
        assert len(db.execute("SELECT * FROM T").rows) == 2

    def test_rollback_restores_rows(self, db):
        db.begin()
        db.execute("DELETE FROM T")
        db.execute("INSERT INTO T (ID) VALUES (50)")
        db.rollback()
        rows = db.execute("SELECT ID FROM T ORDER BY ID").rows
        assert [r["ID"] for r in rows] == [1, 2, 3]

    def test_rollback_removes_created_table(self, db):
        db.begin()
        db.execute("CREATE TABLE TEMP (X NUMBER)")
        db.rollback()
        assert "TEMP" not in db.table_names()

    def test_context_manager_commit(self, db):
        with db.transaction():
            db.execute("DELETE FROM T WHERE ID = 3")
        assert len(db.execute("SELECT * FROM T").rows) == 2

    def test_context_manager_rollback_on_error(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.execute("DELETE FROM T")
                raise RuntimeError("boom")
        assert len(db.execute("SELECT * FROM T").rows) == 3

    def test_nested_begin_rejected(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()
        db.rollback()

    def test_commit_without_begin(self, db):
        with pytest.raises(TransactionError):
            db.commit()
        with pytest.raises(TransactionError):
            db.rollback()

    def test_checkpoint_requires_durable(self, db):
        with pytest.raises(DatabaseError):
            db.checkpoint()


class TestParseMemo:
    """``Database`` remembers parsed DML by text; nothing observable changes."""

    STATEMENTS = [
        ("SELECT ID, NAME FROM T WHERE SCORE >= ? ORDER BY ID", (10,)),
        ("SELECT MAX(SCORE) FROM T", ()),
        ("UPDATE T SET SCORE = ? WHERE ID = ?", (5, 3)),
        ("SELECT * FROM T WHERE ID = 1 OR ID = 3 ORDER BY ID DESC", ()),
    ]

    def test_same_results_first_and_repeated(self, db):
        fresh = [db.execute(text, params) for text, params in self.STATEMENTS]
        for _ in range(3):
            again = [db.execute(text, params) for text, params in self.STATEMENTS]
            assert again == fresh
        assert set(text for text, _p in self.STATEMENTS) <= set(db._parsed)

    def test_different_params_same_text(self, db):
        text = "SELECT NAME FROM T WHERE ID = ?"
        assert [db.execute(text, (i,)).rows[0]["NAME"] for i in (1, 2, 3, 1)] == [
            "alpha", "beta", "gamma", "alpha",
        ]

    @pytest.mark.parametrize(
        "text, params, error",
        [
            ("SELEC * FROM T", (), SqlSyntaxError),
            ("SELECT * FROM T WHERE", (), SqlSyntaxError),
            ("SELECT * FROM T WHERE ID = ?", (), SqlSyntaxError),  # parameter count
            ("SELECT * FROM NOPE", (), CatalogError),
        ],
    )
    def test_same_error_first_and_repeated(self, db, text, params, error):
        messages = []
        for _ in range(3):
            with pytest.raises(error) as caught:
                db.execute(text, params)
            messages.append(str(caught.value))
        assert len(set(messages)) == 1

    def test_create_table_is_parsed_afresh(self, db):
        ddl = "CREATE TABLE U (ID NUMBER PRIMARY KEY)"
        db.begin()
        db.execute(ddl)
        first = db.schema_of("U")
        db.rollback()
        db.execute(ddl)
        assert db.schema_of("U") is not first  # a live schema is never shared
        assert ddl not in db._parsed

    def test_cache_is_bounded(self, db):
        for i in range(600):
            db.execute(f"SELECT ID FROM T WHERE SCORE = {i}")
        assert len(db._parsed) <= 256
