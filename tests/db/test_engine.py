"""Database engine tests: CRUD, predicates, transactions."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_max_of_an_empty_table_and_an_all_null_column(self, db):
        assert db.execute("SELECT MAX(DATA) FROM T").scalar() is None  # every DATA is NULL
        db.execute("DELETE FROM T")
        assert db.execute("SELECT MAX(ID) FROM T").scalar() is None

    def test_max_where_filtered(self, db):
        assert db.execute("SELECT MAX(SCORE) FROM T WHERE NAME != ?", ("beta",)).scalar() == 10
        db.create_index("T", "NAME")
        assert db.execute("SELECT MAX(ID) FROM T WHERE NAME = ?", ("beta",)).scalar() == 2

    def test_max_and_keyed_writes_build_no_row_dicts(self, db):
        """A write keyed on the primary key or an indexed column visits
        only its rows: SQLite searches the index instead of scanning."""
        db.create_index("T", "NAME")

        def plan(text):
            query = db._conn.execute("EXPLAIN QUERY PLAN " + text, (0,) * text.count("?"))
            return " ".join(row[-1] for row in query)

        assert db.execute("SELECT MAX(SCORE) FROM T").scalar() == 20
        assert plan("DELETE FROM T WHERE NAME = ?").startswith("SEARCH T USING INDEX IX_T_NAME")
        assert db.execute("DELETE FROM T WHERE NAME = ?", ("gamma",)).rowcount == 1
        assert plan("UPDATE T SET SCORE = ? WHERE ID = ?").startswith("SEARCH T USING INDEX")
        assert db.execute("UPDATE T SET SCORE = ? WHERE ID = ?", (5, 1)).rowcount == 1

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

    def test_like_pattern_compiled_once(self, db):
        """One statement text is prepared once and answers alike for
        every bound pattern."""
        text = "SELECT ID FROM T WHERE NAME LIKE ? ORDER BY ID"
        rows = db.execute(text, ("%a",)).rows
        assert [r["ID"] for r in rows] == [1, 2, 3]
        prepared = db._parsed[text]
        assert [r["ID"] for r in db.execute(text, ("_eta",)).rows] == [2]
        assert db._parsed[text] is prepared


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
        assert "U" in db.table_names()
        db.rollback()
        assert "U" not in db.table_names()
        db.execute(ddl)
        assert "U" in db.table_names()
        assert ddl not in db._parsed

    def test_cache_is_bounded(self, db):
        for i in range(600):
            db.execute(f"SELECT ID FROM T WHERE SCORE = {i}")
        assert len(db._parsed) <= 256


# -- the equality fast path answers as the scan does ---------------------------------

_COLUMNS = ("ID", "V", "S", "D")
_DATES = ("2012-10-01", "2012-10-02")
#: NULL, ints, floats (an integral one among them) and ISO strings
_PROBES = st.one_of(
    st.none(),
    st.integers(-2, 2),
    st.sampled_from([0.5, 1.0, -2.0, float("inf"), float("nan")]),
    st.sampled_from(_DATES + ("1", "a")),
)


def _twins(rows, indexed):
    """The same rows twice: one table with a primary key and ``indexed``
    secondary indexes, one with neither (every statement scans)."""
    fast, slow = Database(), Database()
    fast.execute("CREATE TABLE T (ID NUMBER PRIMARY KEY, V NUMBER, S VARCHAR2(12), D DATE)")
    slow.execute("CREATE TABLE T (ID NUMBER, V NUMBER, S VARCHAR2(12), D DATE)")
    for column in indexed:
        fast.create_index("T", column)
    for i, (v, s, d) in enumerate(rows):
        for db in (fast, slow):
            db.execute("INSERT INTO T (ID, V, S, D) VALUES (?, ?, ?, ?)", (i, v, s, d))
    return fast, slow


def _outcome(db, text, params):
    """What one statement answers -- its rows and rowcount, or its error
    type -- and the table after it."""
    try:
        result = db.execute(text, params)
        answer = (result.rows, result.rowcount)
    except DatabaseError as exc:
        answer = type(exc)
    return answer, db.execute("SELECT * FROM T ORDER BY ID").rows


class TestIndexedEqualityIsTheScan:
    """A top-level ``column = value`` on a primary key or an indexed column
    takes the index; SELECT, MAX, UPDATE and DELETE must answer as the
    scan does, NULL and DATE coercion included."""

    def test_null_selects_nothing(self, db):
        db.create_index("T", "SCORE")
        assert db.execute("SELECT ID FROM T WHERE SCORE = ?", (None,)).rows == []
        assert db.execute("DELETE FROM T WHERE SCORE = ?", (None,)).rowcount == 0

    def test_date_string_is_coerced(self, db):
        db.execute("UPDATE T SET D = DATE '2012-10-01' WHERE ID = 2")
        db.create_index("T", "D")
        assert db.execute("SELECT ID FROM T WHERE D = '2012-10-01'").rows == [{"ID": 2}]
        assert db.execute("SELECT ID FROM T WHERE ? = D", ("2012-10-01",)).rows == [{"ID": 2}]

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(-2, 2), st.sampled_from([0.5, 1.0])),
                st.one_of(st.none(), st.sampled_from(_DATES + ("1", "a"))),
                st.one_of(st.none(), st.sampled_from(_DATES)),
            ),
            max_size=8,
        ),
        indexed=st.sets(st.sampled_from(("V", "S", "D"))),
        column=st.sampled_from(_COLUMNS),
        value=_PROBES,
        reversed_=st.booleans(),
    )
    def test_every_statement_answers_as_the_scan(self, rows, indexed, column, value, reversed_):
        where = f"? = {column}" if reversed_ else f"{column} = ?"
        statements = [
            f"SELECT ID FROM T WHERE {where}",
            f"SELECT * FROM T WHERE {where} ORDER BY V DESC",
            f"SELECT MAX(ID) FROM T WHERE {where}",
            f"SELECT MAX(S) FROM T WHERE {where}",
            f"UPDATE T SET S = 'x', V = 7 WHERE {where}",
            f"DELETE FROM T WHERE {where}",
        ]
        fast, slow = _twins(rows, indexed)
        for text in statements:
            # inside a rolled-back transaction, then for real
            for db in (fast, slow):
                db.begin()
            assert _outcome(fast, text, (value,)) == _outcome(slow, text, (value,)), text
            for db in (fast, slow):
                db.rollback()
            assert _outcome(fast, "SELECT * FROM T", ()) == _outcome(slow, "SELECT * FROM T", ())
            assert _outcome(fast, text, (value,)) == _outcome(slow, text, (value,)), text
