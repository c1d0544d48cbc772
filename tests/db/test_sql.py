"""SQL tokenizer and parser tests."""

import pytest

from repro.db import Database, sql
from repro.db.errors import SqlSyntaxError
from repro.db.types import NUMBER, ORD_VIDEO, VARCHAR2


class TestTokenizer:
    def test_basic_kinds(self):
        toks = sql.tokenize("SELECT x FROM t WHERE y = 3.5")
        kinds = [t.kind for t in toks]
        assert kinds == ["ident", "ident", "ident", "ident", "ident", "ident", "op", "number"]

    def test_idents_uppercased(self):
        toks = sql.tokenize('select "MyCol" from tbl')
        assert toks[1].value == "MYCOL"
        assert toks[0].value == "SELECT"

    def test_string_with_escaped_quote(self):
        toks = sql.tokenize("SELECT x FROM t WHERE n = 'it''s'")
        assert toks[-1].kind == "string"
        assert toks[-1].value == "'it''s'"

    def test_comments_skipped(self):
        toks = sql.tokenize("SELECT x -- trailing comment\nFROM t")
        assert [t.value for t in toks] == ["SELECT", "X", "FROM", "T"]

    def test_negative_number(self):
        toks = sql.tokenize("WHERE x = -5")
        assert toks[-1].kind == "number" and toks[-1].value == "-5"

    def test_unexpected_char(self):
        with pytest.raises(SqlSyntaxError):
            sql.tokenize("SELECT @ FROM t")


class TestCreateTable:
    def test_paper_ddl_verbatim(self):
        stmt, n = sql.parse('''CREATE TABLE  "VIDEO_STORE"
           ( "V_ID" NUMBER NOT NULL ENABLE,
         "V_NAME" VARCHAR2(60),
         "VIDEO" ORD_ Video,
         "STREAM" BLOB,
         "DOSTORE" DATE,
         PRIMARY KEY ("V_ID") ENABLE
           )''')
        assert n == 0
        schema = stmt.schema
        assert schema.name == "VIDEO_STORE"
        assert schema.primary_key == ["V_ID"]
        assert isinstance(schema.column("V_NAME").sql_type, VARCHAR2)
        assert schema.column("V_NAME").sql_type.max_length == 60
        assert isinstance(schema.column("VIDEO").sql_type, ORD_VIDEO)
        assert not schema.column("V_ID").nullable

    def test_inline_primary_key(self):
        stmt, _ = sql.parse("CREATE TABLE T (ID NUMBER PRIMARY KEY, X NUMBER)")
        assert stmt.schema.primary_key == ["ID"]

    def test_composite_primary_key(self):
        stmt, _ = sql.parse("CREATE TABLE T (A NUMBER, B NUMBER, PRIMARY KEY (A, B))")
        assert stmt.schema.primary_key == ["A", "B"]

    def test_pk_references_unknown_column(self):
        with pytest.raises(SqlSyntaxError):
            sql.parse("CREATE TABLE T (A NUMBER, PRIMARY KEY (B))")

    def test_unknown_type(self):
        with pytest.raises(SqlSyntaxError):
            sql.parse("CREATE TABLE T (A GEOGRAPHY)")

    def test_ddl_roundtrip(self):
        stmt, _ = sql.parse(
            "CREATE TABLE T (ID NUMBER PRIMARY KEY, N VARCHAR2(10) NOT NULL, B BLOB)"
        )
        stmt2, _ = sql.parse(stmt.schema.render_ddl())
        assert stmt2.schema == stmt.schema


class TestInsert:
    def test_with_columns_and_params(self):
        stmt, n = sql.parse("INSERT INTO T (A, B) VALUES (?, ?)")
        assert n == 2
        assert stmt.columns == ("A", "B")
        assert stmt.values == (sql.Param(0), sql.Param(1))

    def test_without_columns(self):
        stmt, _ = sql.parse("INSERT INTO T VALUES (1, 'x', NULL)")
        assert stmt.columns == ()
        assert stmt.values == (sql.Literal(1), sql.Literal("x"), sql.Literal(None))

    def test_count_mismatch(self):
        with pytest.raises(SqlSyntaxError):
            sql.parse("INSERT INTO T (A, B) VALUES (1)")

    def test_string_escape(self):
        stmt, _ = sql.parse("INSERT INTO T (A) VALUES ('it''s')")
        assert stmt.values[0] == sql.Literal("it's")

    def test_negative_and_float_literals(self):
        stmt, _ = sql.parse("INSERT INTO T (A, B, C) VALUES (-7, 2.5, 1e3)")
        assert stmt.values == (sql.Literal(-7), sql.Literal(2.5), sql.Literal(1000.0))

    def test_values_are_values_not_columns(self):
        with pytest.raises(SqlSyntaxError, match="expected a value, got 'X'"):
            sql.parse("INSERT INTO T VALUES (X, 1)")

    def test_column_listed_twice(self):
        with pytest.raises(SqlSyntaxError, match="'A' appears twice"):
            sql.parse("INSERT INTO T (A, B, A) VALUES (1, 2, 3)")


class TestSelect:
    def test_star(self):
        stmt, _ = sql.parse("SELECT * FROM T")
        assert stmt.columns == ()
        assert stmt.where is None

    def test_columns_where_order(self):
        stmt, n = sql.parse(
            "SELECT A, B FROM T WHERE A > 3 AND B LIKE 'x%' ORDER BY B DESC, A"
        )
        assert n == 0
        assert stmt.columns == ("A", "B")
        assert stmt.order_by == (
            sql.OrderItem("B", descending=True),
            sql.OrderItem("A", descending=False),
        )
        assert isinstance(stmt.where, sql.And)
        assert stmt.where.right == sql.Like(sql.ColumnRef("B"), sql.Literal("x%"))

    def test_max(self):
        stmt, _ = sql.parse("SELECT MAX(I_ID) FROM KEY_FRAMES WHERE V_ID = ?")
        assert stmt.aggregate == sql.Aggregate("I_ID")
        assert stmt.aggregate.label == "MAX(I_ID)"
        assert stmt.columns == ()

    def test_like_pattern_is_a_value(self):
        stmt, n = sql.parse("SELECT * FROM T WHERE A LIKE ?")
        assert stmt.where == sql.Like(sql.ColumnRef("A"), sql.Param(0)) and n == 1
        with pytest.raises(SqlSyntaxError):
            sql.parse("SELECT * FROM T WHERE A LIKE B")

    def test_parenthesized_boolean(self):
        stmt, _ = sql.parse("SELECT * FROM T WHERE (A = 1 OR B = 2) AND C = 3")
        assert isinstance(stmt.where, sql.And)
        assert isinstance(stmt.where.left, sql.Or)

    def test_nested_parens(self):
        stmt, _ = sql.parse("SELECT * FROM T WHERE ((A = 1))")
        assert isinstance(stmt.where, sql.Compare)

    def test_neq_spellings(self):
        a, _ = sql.parse("SELECT * FROM T WHERE A <> 1")
        b, _ = sql.parse("SELECT * FROM T WHERE A != 1")
        assert a.where.op == b.where.op == "!="

    def test_params_in_where(self):
        stmt, n = sql.parse("SELECT * FROM T WHERE A = ? AND B < ?")
        assert n == 2


class TestUpdateDelete:
    def test_update(self):
        stmt, n = sql.parse("UPDATE T SET A = 1, B = ? WHERE C = 2")
        assert n == 1
        assert stmt.assignments == (("A", sql.Literal(1)), ("B", sql.Param(0)))

    def test_set_takes_values_not_columns(self):
        with pytest.raises(SqlSyntaxError, match="expected a value, got 'X'"):
            sql.parse("UPDATE T SET X = X")

    def test_column_set_twice(self):
        with pytest.raises(SqlSyntaxError, match="'A' appears twice"):
            sql.parse("UPDATE T SET A = 1, B = 2, A = 3")

    def test_delete(self):
        stmt, _ = sql.parse("DELETE FROM T WHERE A = 1")
        assert isinstance(stmt.where, sql.Compare)

    def test_delete_all(self):
        stmt, _ = sql.parse("DELETE FROM T")
        assert stmt.where is None


#: the statements the dialect no longer speaks (nothing the system sends)
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

    def test_unknown_statement(self):
        with pytest.raises(SqlSyntaxError):
            sql.parse("GRANT ALL ON T")

    def test_empty_statement(self):
        with pytest.raises(SqlSyntaxError):
            sql.parse("   ")

    def test_trailing_garbage(self):
        with pytest.raises(SqlSyntaxError):
            sql.parse("SELECT * FROM T extra stuff")

    def test_trailing_semicolon_ok(self):
        stmt, _ = sql.parse("SELECT * FROM T;")
        assert stmt.table == "T"

    def test_incomplete_where(self):
        with pytest.raises(SqlSyntaxError):
            sql.parse("SELECT * FROM T WHERE A =")

    def test_date_literal(self):
        stmt, _ = sql.parse("SELECT * FROM T WHERE D = DATE '2012-10-01'")
        assert stmt.where.right == sql.Literal("2012-10-01")


class TestStatementBuilders:
    """build_select/build_insert/build_delete: the R16-sanctioned way to
    assemble SQL from runtime identifiers."""

    def test_build_select_parses(self):
        text = sql.build_select("KEY_FRAMES", ("I_ID", "V_ID"), where_eq="V_ID",
                                order_by=("I_ID",))
        stmt, n_params = sql.parse(text)
        assert stmt.table == "KEY_FRAMES"
        assert stmt.columns == ("I_ID", "V_ID")
        assert n_params == 1
        assert stmt.order_by[0].column == "I_ID"

    def test_build_select_star(self):
        stmt, n_params = sql.parse(sql.build_select("VIDEO_STORE"))
        assert stmt.columns == () and n_params == 0

    def test_build_insert_parses_with_param_per_column(self):
        text = sql.build_insert("KEY_FRAMES", ("I_ID", "V_ID", "SCH"))
        stmt, n_params = sql.parse(text)
        assert stmt.table == "KEY_FRAMES"
        assert stmt.columns == ("I_ID", "V_ID", "SCH")
        assert n_params == 3

    def test_build_delete_parses(self):
        stmt, n_params = sql.parse(sql.build_delete("VIDEO_STORE", where_eq="V_ID"))
        assert stmt.table == "VIDEO_STORE" and n_params == 1

    def test_build_insert_requires_columns(self):
        with pytest.raises(SqlSyntaxError):
            sql.build_insert("T", ())

    @pytest.mark.parametrize("bad", ["", "1BAD", "a b", "T;DROP", 'x"y', None])
    def test_injection_shaped_identifiers_rejected(self, bad):
        with pytest.raises(SqlSyntaxError):
            sql.quote_ident(bad)

    def test_quote_ident_accepts_paper_style_names(self):
        for name in ("V_ID", "KEY_FRAMES", "MAJORREGIONS", "col$x", "a#b"):
            assert sql.quote_ident(name) == name
