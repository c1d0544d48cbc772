"""Rule R16: SQL reaches ``execute`` only as literals or built statements.

String-interpolated SQL is how identifier typos and (in a networked
deployment) injection bugs enter a system.  The only approved ways to get
a statement into ``Database.execute``/``executemany`` are a plain string
literal with ``?`` placeholders, a named constant, or the parameterized
builder helpers in ``repro/db/engine.py``
(``build_select`` / ``build_insert``, re-exported by ``repro.db``).

The statement argument is checked where it is assembled, which is not
always at the call.  The first definition checked is the argument
itself; when it is a plain name, every definition of that name that can
reach the call site (reaching definitions over the scope's CFG) is
checked the same way::

    db.execute(f"DELETE FROM {table}")   # the argument itself

    q = f"DELETE FROM {table}"           # a definition that reaches
    db.execute(q)                        # the call through a variable

An assignment expression is both: ``db.execute((q := f"..."))`` is
checked at the call, and it defines ``q`` for the calls after it.

One dynamic reaching definition is enough to flag -- on some path the
interpolated string arrives at the database.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.dataflow import build_cfg, reaching_definitions, walrus_bindings
from repro.analysis.engine import Finding, LintConfig, ModuleInfo, Rule, register_rule
from repro.analysis.project import dotted

__all__ = ["SqlDataflowRule"]

EXECUTE_METHODS = ("execute", "executemany", "executescript")


def classify_dynamic_sql(arg: ast.expr) -> Optional[str]:
    """Reason the expression is a dynamically-assembled SQL string.

    Any other call -- the ``repro.db`` builders included -- gets the
    benefit of the doubt.
    """
    if isinstance(arg, ast.NamedExpr):  # (q := <sql>): the value is the SQL
        return classify_dynamic_sql(arg.value)
    if isinstance(arg, ast.JoinedStr):
        return "an f-string"
    if isinstance(arg, ast.BinOp) and isinstance(arg.op, (ast.Add, ast.Mod)):
        op = "+" if isinstance(arg.op, ast.Add) else "%"
        return f"built with the {op!r} operator"
    if isinstance(arg, ast.Call):
        tail = dotted(arg.func).rsplit(".", 1)[-1]
        if tail == "format":
            return "a .format() call"
        if tail == "join":
            return "a str.join() call"
    return None


@register_rule
class SqlDataflowRule(Rule):
    """R16: no dynamic SQL reaches an execute() site, directly or via a name."""

    rule_id = "R16"
    title = "sql-dataflow"
    fix_hint = (
        "build the statement with the build_select/build_insert helpers "
        "from repro.db (or a literal with ? placeholders) in every "
        "branch that can reach the execute call"
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterable[Finding]:
        yield from self._check_body(module, module.tree.body, "module body")
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_body(module, node.body, f"{node.name}()")
            elif isinstance(node, ast.ClassDef):
                yield from self._check_body(module, node.body, f"class {node.name}")

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
                method = call.func.attr  # type: ignore[union-attr]
                reason = classify_dynamic_sql(arg)
                if reason is not None:
                    yield self.finding(
                        module,
                        arg,
                        f"SQL passed to .{method}() is {reason}; statements "
                        "must be literals or repro.db builder output",
                    )
                    continue
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
                        f".{method}() call; statements must be "
                        "literals or repro.db builder output on every path",
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
            # ``name := value`` inside the statement binds before the statement does
            value: Optional[ast.expr] = next(
                (n.value for n in walrus_bindings(stmt) if n.target.id == name), None
            )
            if value is None and isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
            elif value is None and isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.op, (ast.Add, ast.Mod)):
                    out.append((stmt, "an augmented (+=) string build"))
                continue
            if value is None:
                continue
            reason = classify_dynamic_sql(value)
            if reason is not None:
                out.append((stmt, reason))
        return out
