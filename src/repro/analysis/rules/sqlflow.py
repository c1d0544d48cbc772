"""Rule R16: dynamic SQL cannot reach an execute site through a variable.

R4 checks the expression *at* the ``execute()`` call; the classic escape
is one assignment of indirection::

    q = f"DELETE FROM {table}"   # R4 never sees this
    db.execute(q)                # R4 sees a harmless Name

R16 closes the gap with reaching definitions: for every ``execute``-family
call whose statement argument is a plain name, every definition of that
name that can reach the call site is classified with the same
dynamic-SQL detector R4 uses.  One dynamic reaching definition is enough
to flag -- on some path the interpolated string arrives at the database.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.dataflow import build_cfg, reaching_definitions
from repro.analysis.engine import Finding, LintConfig, ModuleInfo, Rule, register_rule
from repro.analysis.rules.sql import EXECUTE_METHODS, classify_dynamic_sql

__all__ = ["SqlDataflowRule"]


@register_rule
class SqlDataflowRule(Rule):
    """R16: reaching-definitions extension of R4 across assignments."""

    rule_id = "R16"
    title = "sql-dataflow"
    fix_hint = (
        "build the statement with the repro.db.sql helpers (or a literal "
        "with ? placeholders) in every branch that can reach the execute call"
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterable[Finding]:
        yield from self._check_body(module, module.tree.body, "module body")
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_body(module, node.body, f"{node.name}()")

    # -- one scope -------------------------------------------------------------

    def _check_body(
        self,
        module: ModuleInfo,
        body: Sequence[ast.stmt],
        scope: str,
    ) -> Iterable[Finding]:
        cfg = build_cfg(body)
        if not cfg.nodes:
            return
        reaching = reaching_definitions(cfg)
        for sid, stmt in cfg.stmts.items():
            for call, arg in self._execute_calls(stmt):
                if classify_dynamic_sql(arg) is not None:
                    continue  # R4 already flags the expression at the site
                if not isinstance(arg, ast.Name):
                    continue
                for def_stmt, reason in self._dynamic_defs(
                    arg.id, reaching.get(sid, set()), cfg
                ):
                    yield self.finding(
                        module,
                        call,
                        f"in {scope}, SQL variable {arg.id!r} defined at line "
                        f"{def_stmt.lineno} as {reason} reaches this "
                        f".{call.func.attr}() call; statements must be "  # type: ignore[union-attr]
                        "literals or repro.db.sql builder output on every path",
                    )

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _execute_calls(stmt: ast.stmt) -> List[Tuple[ast.Call, ast.expr]]:
        """``execute``-family calls directly in this statement's expressions.

        Nested blocks are separate CFG nodes, so only this statement's own
        child *expressions* are scanned (the If test, the Assign value...),
        never its child statements.
        """
        out: List[Tuple[ast.Call, ast.expr]] = []
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                continue
            for node in ast.walk(child):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in EXECUTE_METHODS
                    and node.args
                    and not isinstance(node.args[0], ast.Starred)
                ):
                    out.append((node, node.args[0]))
        return out

    @staticmethod
    def _dynamic_defs(name: str, defs, cfg) -> List[Tuple[ast.stmt, str]]:
        out: List[Tuple[ast.stmt, str]] = []
        for definition in sorted(defs, key=lambda d: d.stmt_id):
            if definition.name != name:
                continue
            stmt = cfg.stmts[definition.stmt_id]
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.op, (ast.Add, ast.Mod)):
                    out.append((stmt, "an augmented (+=) string build"))
                continue
            if value is None:
                continue
            reason = classify_dynamic_sql(value)
            if reason is not None:
                out.append((stmt, reason))
        return out
