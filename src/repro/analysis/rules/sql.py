"""Rule R4: SQL reaches ``execute`` only as literals or built statements.

String-interpolated SQL is how identifier typos and (in a networked
deployment) injection bugs enter a system.  The only approved ways to get a
statement into ``Database.execute``/``executemany`` are a plain string
literal with ``?`` placeholders, a named constant, or the parameterized
builder helpers in ``repro/db/sql.py``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.engine import Finding, LintConfig, ModuleInfo, Rule, register_rule
from repro.analysis.project import dotted

__all__ = ["SqlConstructionRule", "classify_dynamic_sql", "EXECUTE_METHODS"]

EXECUTE_METHODS = ("execute", "executemany", "executescript")


def classify_dynamic_sql(arg: ast.expr) -> Optional[str]:
    """Reason the expression is a dynamically-assembled SQL string.

    Shared by R4 (literal checks at the execute site) and R16 (the same
    check applied to every definition that *reaches* the execute site).
    Any other call -- the ``repro.db.sql`` builders included -- gets the
    benefit of the doubt.
    """
    if isinstance(arg, ast.JoinedStr):
        return "an f-string"
    if isinstance(arg, ast.BinOp) and isinstance(arg.op, (ast.Add, ast.Mod)):
        op = "+" if isinstance(arg.op, ast.Add) else "%"
        return f"built with the {op!r} operator"
    if isinstance(arg, ast.Call):
        name = dotted(arg.func)
        tail = name.rsplit(".", 1)[-1]
        if tail == "format":
            return "a .format() call"
        if tail == "join":
            return "a str.join() call"
    return None


@register_rule
class SqlConstructionRule(Rule):
    """R4: no f-string / ``%`` / ``+`` / ``.format`` SQL at execute sites."""

    rule_id = "R4"
    title = "parameterized-sql"
    fix_hint = (
        "use a string literal with ? placeholders, or the build_select/"
        "build_insert/build_delete helpers from repro.db.sql"
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in EXECUTE_METHODS):
                continue
            sql_arg = self._first_argument(node)
            if sql_arg is None:
                continue
            reason = classify_dynamic_sql(sql_arg)
            if reason:
                yield self.finding(
                    module,
                    sql_arg,
                    f"SQL passed to .{func.attr}() is {reason}; statements "
                    "must be literals or repro.db.sql builder output",
                )

    @staticmethod
    def _first_argument(node: ast.Call) -> Optional[ast.expr]:
        if node.args:
            first = node.args[0]
            return None if isinstance(first, ast.Starred) else first
        return None
