"""SQL dialect: tokenizer, AST, and recursive-descent parser.

The dialect is the paper's §3.4 DDL, verbatim, plus the statements the
system sends:

- ``CREATE TABLE name (col TYPE [NOT NULL] [PRIMARY KEY] [ENABLE], ...,
  PRIMARY KEY (col, ...) [ENABLE])``
- ``INSERT INTO name [(col, ...)] VALUES (value, ...)``
- ``SELECT * | col, ... FROM name [WHERE expr] [ORDER BY col [ASC|DESC],
  ...]`` and ``SELECT MAX(col) FROM name [WHERE expr]``
- ``UPDATE name SET col = value, ... [WHERE expr]``
- ``DELETE FROM name [WHERE expr]``

A value is a number, a string, ``NULL``, ``DATE '...'`` or a ``?``
placeholder, which binds a positional parameter (how BLOB values travel).
WHERE combines the comparisons ``= != <> < <= > >=`` and ``LIKE`` (with
``%`` and ``_``; the pattern is a value) with ``AND`` / ``OR`` and
parentheses.  Identifiers may be double-quoted, as in the paper's DDL.
Anything else is a :class:`SqlSyntaxError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.db.errors import SqlSyntaxError
from repro.db.schema import Column, TableSchema
from repro.db.types import type_from_name

__all__ = [
    "tokenize",
    "parse",
    "quote_ident",
    "build_select",
    "build_insert",
    "build_delete",
    "CreateTable",
    "Insert",
    "Select",
    "Aggregate",
    "Update",
    "Delete",
    "ColumnRef",
    "Literal",
    "Param",
    "Compare",
    "Like",
    "And",
    "Or",
    "OrderItem",
]

# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<number>-?(\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+))
  | (?P<string>'(?:[^']|'')*')
  | (?P<qident>"[^"]+")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_$#]*)
  | (?P<op><>|!=|<=|>=|=|<|>)
  | (?P<punct>[(),.*?;])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'number' | 'string' | 'ident' | 'op' | 'punct'
    value: str
    position: int

    def matches(self, kind: str, value: Optional[str] = None) -> bool:
        return self.kind == kind and (value is None or self.value == value)


def tokenize(text: str) -> List[Token]:
    """Token stream (whitespace and comments dropped)."""
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SqlSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        value = m.group()
        if kind == "qident":
            tokens.append(Token("ident", value[1:-1].upper(), pos))
        elif kind == "ident":
            tokens.append(Token("ident", value.upper(), pos))
        elif kind not in ("ws", "comment"):
            tokens.append(Token(kind, value, pos))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRef:
    name: str


@dataclass(frozen=True)
class Literal:
    value: object


@dataclass(frozen=True)
class Param:
    index: int  # 0-based position among the statement's '?' placeholders


#: what VALUES, SET and a LIKE pattern take: fixed for the whole statement
Value = Union[Literal, Param]
Operand = Union[ColumnRef, Literal, Param]


@dataclass(frozen=True)
class Compare:
    op: str  # '=', '!=', '<', '<=', '>', '>='
    left: Operand
    right: Operand


@dataclass(frozen=True)
class Like:
    operand: Operand
    pattern: Value


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class OrderItem:
    column: str
    descending: bool = False


@dataclass(frozen=True)
class CreateTable:
    schema: TableSchema


@dataclass(frozen=True)
class Insert:
    table: str
    columns: Tuple[str, ...]  # empty = schema order
    values: Tuple[Value, ...]


@dataclass(frozen=True)
class Aggregate:
    """``MAX(col)``, a SELECT's only item."""

    column: str

    @property
    def label(self) -> str:
        return f"MAX({self.column})"


@dataclass(frozen=True)
class Select:
    table: str
    columns: Tuple[str, ...]  # empty = '*'
    where: Optional[object] = None
    order_by: Tuple[OrderItem, ...] = ()
    aggregate: Optional[Aggregate] = None


@dataclass(frozen=True)
class Update:
    table: str
    assignments: Tuple[Tuple[str, Value], ...]
    where: Optional[object] = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[object] = None


Statement = Union[CreateTable, Insert, Select, Update, Delete]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: List[Token], text: str):
        self.tokens = tokens
        self.text = text
        self.i = 0
        self.n_params = 0

    # -- plumbing -------------------------------------------------------------

    def _error(self, message: str) -> SqlSyntaxError:
        pos = self.tokens[self.i].position if self.i < len(self.tokens) else len(self.text)
        return SqlSyntaxError(message, pos)

    def peek(self) -> Optional[Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> Token:
        if self.i >= len(self.tokens):
            raise self._error("unexpected end of statement")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok is not None and tok.matches(kind, value):
            self.i += 1
            return tok
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.accept(kind, value)
        if tok is None:
            want = value or kind
            got = self.peek().value if self.peek() else "end of input"
            raise self._error(f"expected {want!r}, got {got!r}")
        return tok

    def accept_keyword(self, *words: str) -> bool:
        """Consume a keyword sequence like ('NOT', 'NULL') if present."""
        save = self.i
        for word in words:
            if not self.accept("ident", word):
                self.i = save
                return False
        return True

    def expect_keyword(self, *words: str) -> None:
        if not self.accept_keyword(*words):
            got = self.peek().value if self.peek() else "end of input"
            raise self._error(f"expected {' '.join(words)!r}, got {got!r}")

    # -- entry point ---------------------------------------------------------------

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok is None:
            raise self._error("empty statement")
        dispatch = {
            "CREATE": self._create,
            "INSERT": self._insert,
            "SELECT": self._select,
            "UPDATE": self._update,
            "DELETE": self._delete,
        }
        handler = dispatch.get(tok.value if tok.kind == "ident" else "")
        if handler is None:
            raise self._error(f"unknown statement start {tok.value!r}")
        stmt = handler()
        self.accept("punct", ";")
        if self.peek() is not None:
            raise self._error(f"trailing input after statement: {self.peek().value!r}")
        return stmt

    # -- statements -----------------------------------------------------------------

    def _create(self) -> CreateTable:
        self.expect_keyword("CREATE", "TABLE")
        name = self.expect("ident").value
        self.expect("punct", "(")
        columns: List[Column] = []
        table_pk: List[str] = []
        while True:
            if self.accept_keyword("PRIMARY", "KEY"):
                self.expect("punct", "(")
                while True:
                    table_pk.append(self.expect("ident").value)
                    if not self.accept("punct", ","):
                        break
                self.expect("punct", ")")
                self.accept("ident", "ENABLE")
            else:
                columns.append(self._column_def())
            if not self.accept("punct", ","):
                break
        self.expect("punct", ")")

        if table_pk:
            known = {c.name for c in columns}
            for pk_col in table_pk:
                if pk_col not in known:
                    raise self._error(f"PRIMARY KEY references unknown column {pk_col!r}")
            columns = [
                Column(c.name, c.sql_type, nullable=c.nullable and c.name not in table_pk,
                       primary_key=c.primary_key or c.name in table_pk)
                for c in columns
            ]
        return CreateTable(TableSchema(name=name, columns=tuple(columns)))

    def _column_def(self) -> Column:
        name = self.expect("ident").value
        type_name = self.expect("ident").value
        # the paper's "ORD_ Video" splits into two idents; merge them
        if type_name == "ORD_" or (type_name.startswith("ORD") and type_name.endswith("_")):
            type_name += self.expect("ident").value
        arg = None
        if self.accept("punct", "("):
            arg_tok = self.expect("number")
            arg = int(float(arg_tok.value))
            self.expect("punct", ")")
        try:
            sql_type = type_from_name(type_name, arg)
        except Exception as exc:
            raise self._error(str(exc)) from exc
        nullable = True
        primary = False
        while True:
            if self.accept_keyword("NOT", "NULL"):
                nullable = False
            elif self.accept_keyword("PRIMARY", "KEY"):
                primary = True
            elif self.accept("ident", "ENABLE") or self.accept("ident", "NULL"):
                pass
            else:
                break
        return Column(name, sql_type, nullable=nullable, primary_key=primary)

    def _column_name(self, taken: Sequence[str]) -> str:
        """A column name not already in ``taken``."""
        tok = self.expect("ident")
        if tok.value in taken:
            raise SqlSyntaxError(f"column {tok.value!r} appears twice", tok.position)
        return tok.value

    def _insert(self) -> Insert:
        self.expect_keyword("INSERT", "INTO")
        table = self.expect("ident").value
        columns: List[str] = []
        if self.accept("punct", "("):
            while True:
                columns.append(self._column_name(columns))
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ")")
        self.expect_keyword("VALUES")
        self.expect("punct", "(")
        values: List[Value] = []
        while True:
            values.append(self._value())
            if not self.accept("punct", ","):
                break
        self.expect("punct", ")")
        if columns and len(columns) != len(values):
            raise self._error(
                f"INSERT has {len(columns)} columns but {len(values)} values"
            )
        return Insert(table=table, columns=tuple(columns), values=tuple(values))

    def _select(self) -> Select:
        self.expect_keyword("SELECT")
        columns: List[str] = []
        aggregate = None
        tok = self.peek()
        if tok is not None and tok.matches("ident", "MAX") and (
            self.i + 1 < len(self.tokens) and self.tokens[self.i + 1].matches("punct", "(")
        ):
            self.i += 2
            aggregate = Aggregate(self.expect("ident").value)
            self.expect("punct", ")")
        elif not self.accept("punct", "*"):
            while True:
                columns.append(self.expect("ident").value)
                if not self.accept("punct", ","):
                    break
        self.expect_keyword("FROM")
        table = self.expect("ident").value
        where = self._where_clause()
        order: List[OrderItem] = []
        if self.accept_keyword("ORDER", "BY"):
            if aggregate is not None:
                raise self._error("MAX() takes no ORDER BY")
            while True:
                col = self.expect("ident").value
                descending = False
                if self.accept("ident", "DESC"):
                    descending = True
                else:
                    self.accept("ident", "ASC")
                order.append(OrderItem(column=col, descending=descending))
                if not self.accept("punct", ","):
                    break
        return Select(table=table, columns=tuple(columns), where=where,
                      order_by=tuple(order), aggregate=aggregate)

    def _update(self) -> Update:
        self.expect_keyword("UPDATE")
        table = self.expect("ident").value
        self.expect_keyword("SET")
        assignments: List[Tuple[str, Value]] = []
        while True:
            col = self._column_name([name for name, _value in assignments])
            self.expect("op", "=")
            assignments.append((col, self._value()))
            if not self.accept("punct", ","):
                break
        where = self._where_clause()
        return Update(table=table, assignments=tuple(assignments), where=where)

    def _delete(self) -> Delete:
        self.expect_keyword("DELETE", "FROM")
        table = self.expect("ident").value
        return Delete(table=table, where=self._where_clause())

    # -- expressions -------------------------------------------------------------------

    def _where_clause(self):
        if self.accept_keyword("WHERE"):
            return self._or_expr()
        return None

    def _or_expr(self):
        node = self._and_expr()
        while self.accept_keyword("OR"):
            node = Or(node, self._and_expr())
        return node

    def _and_expr(self):
        node = self._predicate()
        while self.accept_keyword("AND"):
            node = And(node, self._predicate())
        return node

    def _predicate(self):
        if self.accept("punct", "("):
            node = self._or_expr()
            self.expect("punct", ")")
            return node
        operand = self._operand()
        tok = self.peek()
        if tok is not None and tok.kind == "op":
            op = self.advance().value
            return Compare(op="!=" if op == "<>" else op, left=operand, right=self._operand())
        if self.accept_keyword("LIKE"):
            return Like(operand=operand, pattern=self._value())
        raise self._error("expected a comparison or LIKE after operand")

    def _operand(self) -> Operand:
        tok = self.peek()
        if tok is not None and tok.kind == "ident" and tok.value not in ("NULL", "DATE"):
            self.advance()
            return ColumnRef(tok.value)
        return self._value()

    def _value(self) -> Value:
        tok = self.peek()
        if tok is None:
            raise self._error("expected a value")
        if tok.kind == "number":
            self.advance()
            text = tok.value
            value = float(text) if any(c in text for c in ".eE") else int(text)
            return Literal(value)
        if tok.kind == "string":
            self.advance()
            return Literal(tok.value[1:-1].replace("''", "'"))
        if tok.matches("punct", "?"):
            self.advance()
            param = Param(self.n_params)
            self.n_params += 1
            return param
        if tok.matches("ident", "NULL"):
            self.advance()
            return Literal(None)
        if tok.matches("ident", "DATE"):
            self.advance()
            return Literal(self.expect("string").value[1:-1])
        raise self._error(f"expected a value, got {tok.value!r}")


def parse(text: str) -> Tuple[Statement, int]:
    """Parse one statement; returns ``(ast, n_params)``."""
    parser = _Parser(tokenize(text), text)
    stmt = parser.parse_statement()
    return stmt, parser.n_params


# ---------------------------------------------------------------------------
# statement builders
#
# The only sanctioned way to assemble SQL from runtime values (table/column
# names picked from a config, feature columns, ...).  Values always travel
# as '?' parameters; identifiers are validated against the tokenizer's
# identifier grammar, so no runtime string can smuggle syntax into a
# statement.  reprolint rule R16 enforces that execute() call sites use
# literals or these helpers -- nothing hand-concatenated.
# ---------------------------------------------------------------------------

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_$#]*$")


def quote_ident(name: str) -> str:
    """Validate (and return) one SQL identifier.

    Raises :class:`SqlSyntaxError` for anything the tokenizer would not
    read back as a single plain identifier.
    """
    if not isinstance(name, str) or not _IDENTIFIER_RE.match(name):
        raise SqlSyntaxError(f"invalid SQL identifier {name!r}")
    return name


def build_select(
    table: str,
    columns: Sequence[str] = ("*",),
    where_eq: Optional[str] = None,
    order_by: Sequence[str] = (),
) -> str:
    """``SELECT cols FROM table [WHERE col = ?] [ORDER BY cols]``."""
    cols = ", ".join("*" if c == "*" else quote_ident(c) for c in columns)
    text = f"SELECT {cols} FROM {quote_ident(table)}"
    if where_eq is not None:
        text += f" WHERE {quote_ident(where_eq)} = ?"
    if order_by:
        text += " ORDER BY " + ", ".join(quote_ident(c) for c in order_by)
    return text


def build_insert(table: str, columns: Sequence[str]) -> str:
    """``INSERT INTO table (cols) VALUES (?, ...)`` -- one ``?`` per column."""
    if not columns:
        raise SqlSyntaxError("INSERT needs at least one column")
    cols = ", ".join(quote_ident(c) for c in columns)
    marks = ", ".join("?" for _ in columns)
    return f"INSERT INTO {quote_ident(table)} ({cols}) VALUES ({marks})"


def build_delete(table: str, where_eq: Optional[str] = None) -> str:
    """``DELETE FROM table [WHERE col = ?]``."""
    text = f"DELETE FROM {quote_ident(table)}"
    if where_eq is not None:
        text += f" WHERE {quote_ident(where_eq)} = ?"
    return text
