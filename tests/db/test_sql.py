"""The SQL dialect the facade speaks (``docs/sql_dialect.md``), checked
through ``Database.execute``: the words SQLite reads as the paper's
system writes them, the §3.4 DDL, and the forms the dialect leaves out."""

import datetime

import pytest

from repro.db import Database, build_insert, build_select, quote_ident
from repro.db.errors import (
    CatalogError,
    ConstraintError,
    SqlSyntaxError,
    TypeMismatchError,
)


@pytest.fixture()
def db():
    d = Database()
    d.execute("CREATE TABLE T (A NUMBER PRIMARY KEY, B VARCHAR2(8), C NUMBER, D DATE)")
    for a, b, c in ((1, "x", 3), (2, "xy", 5), (3, "it's", None)):
        d.execute("INSERT INTO T (A, B, C) VALUES (?, ?, ?)", (a, b, c))
    return d


def _a(db, text, params=()):
    return [r["A"] for r in db.execute(text, params).rows]


class TestTokenizer:
    def test_basic_kinds(self, db):
        assert db.execute("SELECT a FROM t WHERE c = 3.0").rows == [{"A": 1}]

    def test_idents_uppercased(self):
        d = Database()
        d.execute('create table tbl ("MyCol" number)')
        d.execute("insert into TBL (mycol) values (1)")
        assert d.execute('select "MyCol" from tbl').rows == [{"MYCOL": 1}]
        assert d.table_names() == ["TBL"]

    def test_string_with_escaped_quote(self, db):
        assert _a(db, "SELECT A FROM T WHERE B = 'it''s'") == [3]

    def test_comments_skipped(self, db):
        assert _a(db, "SELECT A -- trailing comment\nFROM T WHERE A = 1") == [1]
        assert _a(db, "-- leading comment\nSELECT A FROM T WHERE A = 2") == [2]

    def test_negative_number(self, db):
        db.execute("INSERT INTO T (A, C) VALUES (4, -5)")
        assert _a(db, "SELECT A FROM T WHERE C = -5") == [4]

    def test_unexpected_char(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT @ FROM T")


_PAPER_DDL = '''CREATE TABLE  "VIDEO_STORE"
   ( "V_ID" NUMBER NOT NULL ENABLE,
 "V_NAME" VARCHAR2(60),
 "VIDEO" ORD_ Video,
 "STREAM" BLOB,
 "DOSTORE" DATE,
 PRIMARY KEY ("V_ID") ENABLE
   )'''


class TestCreateTable:
    def test_paper_ddl_verbatim(self):
        d = Database()
        d.execute(_PAPER_DDL)
        assert d.table_names() == ["VIDEO_STORE"]
        insert = "INSERT INTO VIDEO_STORE (V_ID, V_NAME, VIDEO) VALUES (?, ?, ?)"
        d.execute(insert, (1, "v" * 60, b"rvf"))
        with pytest.raises(ConstraintError):  # the primary key
            d.execute(insert, (1, "w", b""))
        with pytest.raises(TypeMismatchError, match=r"V_NAME VARCHAR2\(60\)"):
            d.execute(insert, (2, "v" * 61, b""))
        with pytest.raises(TypeMismatchError, match="VIDEO ORD_VIDEO"):
            d.execute(insert, (2, "w", "not bytes"))
        with pytest.raises(ConstraintError):  # NOT NULL
            d.execute(insert, (None, "w", b""))

    def test_inline_primary_key(self):
        d = Database()
        d.execute("CREATE TABLE T (ID NUMBER PRIMARY KEY, X NUMBER)")
        d.execute("INSERT INTO T (ID, X) VALUES (1, 1)")
        with pytest.raises(ConstraintError):
            d.execute("INSERT INTO T (ID, X) VALUES (1, 2)")
        with pytest.raises(ConstraintError):  # a primary key is NOT NULL
            d.execute("INSERT INTO T (X) VALUES (3)")

    def test_composite_primary_key(self):
        d = Database()
        d.execute("CREATE TABLE T (A NUMBER, B NUMBER, PRIMARY KEY (A, B))")
        d.execute("INSERT INTO T (A, B) VALUES (1, 1)")
        d.execute("INSERT INTO T (A, B) VALUES (1, 2)")
        with pytest.raises(ConstraintError):
            d.execute("INSERT INTO T (A, B) VALUES (1, 2)")
        with pytest.raises(ConstraintError):
            d.execute("INSERT INTO T (A) VALUES (5)")

    def test_pk_references_unknown_column(self):
        with pytest.raises(SqlSyntaxError):
            Database().execute("CREATE TABLE T (A NUMBER, PRIMARY KEY (B))")

    def test_unknown_type(self):
        with pytest.raises(SqlSyntaxError):
            Database().execute("CREATE TABLE T (A GEOGRAPHY)")

    def test_ddl_roundtrip(self, tmp_path):
        """The translated DDL is what the library keeps: a reopened table
        enforces the same types and keys."""
        path = str(tmp_path / "t.rdb")
        d = Database.open(path)
        d.execute("CREATE TABLE T (ID NUMBER PRIMARY KEY, N VARCHAR2(10) NOT NULL, B BLOB)")
        d.close()
        d = Database.open(path)
        d.execute("INSERT INTO T (ID, N, B) VALUES (1, 'n', ?)", (b"b",))
        for bad, error in [((1, "n", b""), ConstraintError), ((2, None, b""), ConstraintError),
                           ((2, "n" * 11, b""), TypeMismatchError),
                           ((2, "n", "b"), TypeMismatchError)]:
            with pytest.raises(error):
                d.execute("INSERT INTO T (ID, N, B) VALUES (?, ?, ?)", bad)
        d.close()


class TestInsert:
    def test_with_columns_and_params(self, db):
        assert db.execute("INSERT INTO T (A, B) VALUES (?, ?)", (7, "p")).rowcount == 1
        assert db.execute("SELECT B FROM T WHERE A = 7").scalar() == "p"

    def test_without_columns(self, db):
        db.execute("INSERT INTO T VALUES (8, 'x', NULL, NULL)")
        assert db.execute("SELECT * FROM T WHERE A = 8").rows == [
            {"A": 8, "B": "x", "C": None, "D": None}
        ]

    def test_count_mismatch(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("INSERT INTO T (A, B) VALUES (1)")

    def test_string_escape(self, db):
        db.execute("INSERT INTO T (A, B) VALUES (9, 'it''s')")
        assert _a(db, "SELECT A FROM T WHERE B = ? ORDER BY A", ("it's",)) == [3, 9]

    def test_negative_and_float_literals(self, db):
        db.execute("INSERT INTO T (A, C) VALUES (-7, 2.5)")
        db.execute("INSERT INTO T (A, C) VALUES (1e3, -0.5)")
        assert db.execute("SELECT A, C FROM T WHERE A < 0 OR A > 99 ORDER BY A").rows == [
            {"A": -7, "C": 2.5},
            {"A": 1000.0, "C": -0.5},
        ]

    def test_values_are_values_not_columns(self, db):
        with pytest.raises(CatalogError, match="X"):
            db.execute("INSERT INTO T VALUES (X, 1, 2, 3)")
        with pytest.raises(CatalogError, match="A"):
            db.execute("INSERT INTO T VALUES (A, 1, 2, 3)")

    def test_column_listed_twice(self, db):
        with pytest.raises(SqlSyntaxError, match="appears twice"):
            db.execute("INSERT INTO T (A, B, A) VALUES (10, 'b', 11)")


class TestSelect:
    def test_star(self, db):
        assert list(db.execute("SELECT * FROM T").rows[0]) == ["A", "B", "C", "D"]

    def test_columns_where_order(self, db):
        rows = db.execute(
            "SELECT A, B FROM T WHERE A > 0 AND B LIKE 'x%' ORDER BY B DESC, A"
        ).rows
        assert rows == [{"A": 2, "B": "xy"}, {"A": 1, "B": "x"}]

    def test_max(self, db):
        result = db.execute("SELECT MAX(A) FROM T WHERE C > ?", (0,))
        assert result.rows == [{"MAX(A)": 2}]

    def test_like_pattern_is_a_value(self, db):
        assert _a(db, "SELECT A FROM T WHERE B LIKE ? ORDER BY A", ("x%",)) == [1, 2]
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT * FROM T WHERE B LIKE B")

    def test_parenthesized_boolean(self, db):
        assert _a(db, "SELECT A FROM T WHERE (A = 1 OR B = 'xy') AND C = 5") == [2]

    def test_nested_parens(self, db):
        assert _a(db, "SELECT A FROM T WHERE ((A = 1))") == [1]

    def test_neq_spellings(self, db):
        assert _a(db, "SELECT A FROM T WHERE A <> 1 ORDER BY A") == _a(
            db, "SELECT A FROM T WHERE A != 1 ORDER BY A"
        ) == [2, 3]

    def test_params_in_where(self, db):
        assert _a(db, "SELECT A FROM T WHERE A = ? AND C < ?", (2, 9)) == [2]


class TestUpdateDelete:
    def test_update(self, db):
        assert db.execute("UPDATE T SET C = 1, B = ? WHERE A = 2", ("u",)).rowcount == 1
        assert db.execute("SELECT B, C FROM T WHERE A = 2").rows == [{"B": "u", "C": 1}]

    def test_set_takes_values_not_columns(self, db):
        with pytest.raises(CatalogError, match="X"):
            db.execute("UPDATE T SET X = X")

    def test_column_set_twice(self, db):
        with pytest.raises(SqlSyntaxError, match="appears twice"):
            db.execute("UPDATE T SET A = 1, B = 'a = b', A = 3")
        assert _a(db, "SELECT A FROM T ORDER BY A") == [1, 2, 3]

    def test_delete(self, db):
        assert db.execute("DELETE FROM T WHERE A = 1").rowcount == 1

    def test_delete_all(self, db):
        assert db.execute("DELETE FROM T").rowcount == 3


#: the statements the dialect does not speak (nothing the system sends)
REMOVED_FORMS = {
    "drop_table": "DROP TABLE T",
    "drop_table_if_exists": "DROP TABLE IF EXISTS T",
    "count_star": "SELECT COUNT(*) FROM T",
    "count_column": "SELECT COUNT(A) FROM T",
    "min": "SELECT MIN(A) FROM T",
    "sum": "SELECT SUM(A) FROM T",
    "avg": "SELECT AVG(A) FROM T",
    "group_by": "SELECT B, COUNT(*) FROM T GROUP BY B ORDER BY B",
    "limit": "SELECT * FROM T LIMIT 1",
    "order_by_limit": "SELECT A FROM T ORDER BY A DESC LIMIT 2",
    "between": "SELECT * FROM T WHERE A BETWEEN 1 AND 5",
    "not_between": "SELECT * FROM T WHERE A NOT BETWEEN 1 AND 5",
    "in": "SELECT * FROM T WHERE A IN (1, 3)",
    "not_in": "DELETE FROM T WHERE A NOT IN (1, 3)",
    "is_null": "SELECT * FROM T WHERE B IS NULL",
    "is_not_null": "UPDATE T SET A = 1 WHERE B IS NOT NULL",
    "not": "SELECT * FROM T WHERE NOT A = 1",
    "and_not": "SELECT * FROM T WHERE A = 1 AND NOT B = 'x'",
    "not_like": "SELECT * FROM T WHERE B NOT LIKE 'x%'",
}


class TestDropAndErrors:
    @pytest.mark.parametrize("form", sorted(REMOVED_FORMS))
    def test_removed_form_is_a_syntax_error(self, form):
        db = Database()
        db.execute("CREATE TABLE T (A NUMBER PRIMARY KEY, B VARCHAR2(8))")
        db.execute("INSERT INTO T (A, B) VALUES (1, 'x')")
        with pytest.raises(SqlSyntaxError):
            db.execute(REMOVED_FORMS[form])
        assert db.execute("SELECT * FROM T").rows == [{"A": 1, "B": "x"}]

    def test_unknown_statement(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("GRANT ALL ON T")
        with pytest.raises(SqlSyntaxError):
            db.execute("PRAGMA journal_mode = DELETE")

    def test_empty_statement(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("   ")

    def test_trailing_garbage(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT * FROM T extra stuff")
        with pytest.raises(SqlSyntaxError):
            db.execute("DELETE FROM T; DELETE FROM T")
        assert len(db.execute("SELECT * FROM T").rows) == 3

    def test_trailing_semicolon_ok(self, db):
        assert len(db.execute("SELECT * FROM T;").rows) == 3

    def test_incomplete_where(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT * FROM T WHERE A =")

    def test_date_literal(self, db):
        db.execute("UPDATE T SET D = DATE '2012-10-01' WHERE A = 1")
        assert db.execute("SELECT D FROM T WHERE D = DATE '2012-10-01'").rows == [
            {"D": datetime.date(2012, 10, 1)}
        ]
        assert _a(db, "SELECT A FROM T WHERE B = 'DATE ''x'''") == []


class TestStatementBuilders:
    """build_select/build_insert: the R16-sanctioned way to assemble SQL
    from runtime identifiers."""

    def test_build_select_parses(self, db):
        text = build_select("T", ("A", "C"), where_eq="B", order_by=("A",))
        assert text == "SELECT A, C FROM T WHERE B = ? ORDER BY A"
        assert db.execute(text, ("xy",)).rows == [{"A": 2, "C": 5}]

    def test_build_select_star(self, db):
        assert build_select("T") == "SELECT * FROM T"
        assert len(db.execute(build_select("T")).rows) == 3

    def test_build_insert_parses_with_param_per_column(self, db):
        text = build_insert("T", ("A", "B", "C"))
        assert text == "INSERT INTO T (A, B, C) VALUES (?, ?, ?)"
        assert db.execute(text, (4, "z", 0)).rowcount == 1

    def test_build_insert_requires_columns(self):
        with pytest.raises(SqlSyntaxError):
            build_insert("T", ())

    @pytest.mark.parametrize("bad", ["", "1BAD", "a b", "T;DROP", 'x"y', None])
    def test_injection_shaped_identifiers_rejected(self, bad):
        with pytest.raises(SqlSyntaxError):
            quote_ident(bad)

    def test_quote_ident_accepts_paper_style_names(self):
        for name in ("V_ID", "KEY_FRAMES", "MAJORREGIONS", "col$x", "a#b"):
            assert quote_ident(name) == name
