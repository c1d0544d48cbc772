"""Rule R15: module-level state touched from concurrent contexts is guarded.

Project code runs on threads other than its caller's in two ways: the
web route table runs on the server's executor threads (one per in-flight
blocking request), and any callable the system hands to another thread
runs there -- a ``threading.Thread(target=...)`` (the serving layer's
``repro-engine`` thread), an executor's ``submit`` (the helper lane of
``WorkerPool.lane``, the shard fleet's process pools) or
``loop.run_in_executor``.  A module-level dict/list/set mutated on those
paths without a lock is a data race on the threaded path and
silently-diverging per-process state on the forked path.

The rule uses the project call graph to find every function reachable
from (a) the web package and (b) every callable handed off at such a call
site (directly or as ``functools.partial(fn, ...)``), then flags
mutations of module-level mutable bindings inside them unless the
mutation sits under ``with <module-level lock>:``.  ``dict.setdefault``
is exempt -- it is the sanctioned GIL-atomic publish idiom.

Separately (and everywhere, not just on concurrent paths), a
``ContextVar.set()`` must keep its token and ``reset`` it: a discarded
token leaks request-scoped state onto whatever runs next on the thread.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, LintConfig, ModelRule, register_rule
from repro.analysis.project import (
    KIND_CONTEXTVAR,
    KIND_LOCK,
    KIND_MUTABLE,
    FunctionInfo,
    ProjectModel,
    dotted,
)

__all__ = ["ConcurrencySafetyRule"]

#: container methods that mutate in place (setdefault is GIL-atomic: exempt)
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "update", "add", "discard", "appendleft", "extendleft",
    }
)


#: call tails that hand a callable to another thread
_HAND_OFFS = frozenset({"Thread", "submit", "run_in_executor"})


def _handed_off_callable(call: ast.Call) -> str:
    """Dotted name of the callable ``call`` hands to another thread, or "".

    ``Thread(target=fn)``, ``<executor>.submit(fn, ...)`` and
    ``loop.run_in_executor(executor, fn, ...)``; ``partial(fn, ...)`` in
    any of those positions hands off ``fn``.
    """
    tail = dotted(call.func).rsplit(".", 1)[-1]
    shipped: Optional[ast.expr] = None
    if tail == "Thread":
        shipped = next((kw.value for kw in call.keywords if kw.arg == "target"), None)
    elif tail == "submit" and isinstance(call.func, ast.Attribute) and call.args:
        shipped = call.args[0]
    elif tail == "run_in_executor" and len(call.args) >= 2:
        shipped = call.args[1]
    if (
        isinstance(shipped, ast.Call)
        and dotted(shipped.func).rsplit(".", 1)[-1] == "partial"
        and shipped.args
    ):
        shipped = shipped.args[0]  # partial(fn, ...) runs fn
    # a call in the callable's place (``submit(Job(...))``) hands off data
    return dotted(shipped) if isinstance(shipped, (ast.Name, ast.Attribute)) else ""


@register_rule
class ConcurrencySafetyRule(ModelRule):
    """R15: concurrent paths lock shared module state; tokens get reset."""

    rule_id = "R15"
    title = "fork-thread-safety"
    fix_hint = (
        "guard the mutation with a module-level threading.Lock (with _LOCK:), "
        "use dict.setdefault for publish-once caches, and keep/reset every "
        "ContextVar token (token = VAR.set(...); ...; VAR.reset(token))"
    )

    # -- entry -----------------------------------------------------------------

    def check_model(self, model: ProjectModel, config: LintConfig) -> Iterable[Finding]:
        concurrent, why = self._concurrent_functions(model, config)
        for qual in sorted(concurrent):
            info = model.functions[qual]
            sym = model.symbols.get(info.module)
            if sym is None:
                continue
            mutables = {n for n, k in sym.kinds.items() if k == KIND_MUTABLE}
            locks = {n for n, k in sym.kinds.items() if k == KIND_LOCK}
            if not mutables:
                continue
            module = model.modules[info.module]
            for node, name, what in self._unguarded_mutations(info.node, mutables, locks):
                yield self.finding_at(
                    module.path,
                    node,
                    f"{info.name}() {what} module-level mutable {name!r} "
                    f"without a lock, but runs {why[qual]}; concurrent "
                    "mutation of shared state races",
                )
        yield from self._check_contextvars(model)

    # -- which functions run concurrently -------------------------------------

    def _concurrent_functions(
        self, model: ProjectModel, config: LintConfig
    ) -> Tuple[Set[str], Dict[str, str]]:
        web_roots = [
            qual
            for qual, info in model.functions.items()
            if any(
                info.module == p or info.module.startswith(p + ".")
                for p in config.threaded_packages
            )
        ]
        handed_off: List[str] = []
        for info in model.functions.values():
            if not _HAND_OFFS.intersection(c.rsplit(".", 1)[-1] for c in info.calls):
                continue
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    shipped = _handed_off_callable(node)
                    if shipped:
                        handed_off.extend(model.resolve_call(info, shipped))
        via_web = model.reachable_from(web_roots)
        via_thread = model.reachable_from(handed_off)
        why: Dict[str, str] = {}
        for qual in via_thread:
            why[qual] = "on another thread (a Thread target, or handed to submit/run_in_executor)"
        for qual in via_web:
            # web wins the message: its handler threads are the busiest path
            why[qual] = "on web handler threads"
        return via_web | via_thread, why

    # -- mutation scan ---------------------------------------------------------

    def _unguarded_mutations(
        self, func: ast.AST, mutables: Set[str], locks: Set[str]
    ) -> List[Tuple[ast.AST, str, str]]:
        out: List[Tuple[ast.AST, str, str]] = []
        declared_global: Set[str] = set()
        named: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Name):
                named.add(node.id)
        if not named & mutables:
            return out  # every mutation form names the binding

        def is_lock_guard(stmt: ast.With) -> bool:
            for item in stmt.items:
                expr = item.context_expr
                name = dotted(expr)
                if name.rsplit(".", 1)[-1] in locks or name in locks:
                    return True
            return False

        def local_shadow(name: str) -> bool:
            # a plain local assignment shadows the module binding
            if name in declared_global:
                return False
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    for t in node.targets:
                        if isinstance(t, ast.Name) and t.id == name:
                            return True
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    all_args = (
                        args.posonlyargs + args.args + args.kwonlyargs
                        + ([args.vararg] if args.vararg else [])
                        + ([args.kwarg] if args.kwarg else [])
                    )
                    if any(a.arg == name for a in all_args):
                        return True
            return False

        def scan(stmts: List[ast.stmt], locked: bool) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    scan(stmt.body, locked or is_lock_guard(stmt))
                    continue
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # nested defs are their own call-graph nodes
                if not locked:
                    for node, name, what in self._mutations_in(stmt, mutables, declared_global):
                        if not local_shadow(name):
                            out.append((node, name, what))
                for attr in ("body", "orelse", "finalbody"):
                    scan(list(getattr(stmt, attr, []) or []), locked)
                for handler in getattr(stmt, "handlers", []) or []:
                    scan(handler.body, locked)

        body = getattr(func, "body", [])
        scan(list(body), locked=False)
        return out

    def _mutations_in(
        self, stmt: ast.stmt, mutables: Set[str], declared_global: Set[str]
    ) -> Iterable[Tuple[ast.AST, str, str]]:
        # only look at this statement's own expressions, not nested blocks
        # (nested blocks are scanned by the caller with their lock state)
        header: List[ast.AST] = []
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            header = [stmt]
        elif isinstance(stmt, ast.Expr):
            header = [stmt.value]
        elif isinstance(stmt, ast.Delete):
            header = [stmt]
        elif isinstance(stmt, (ast.If, ast.While)):
            header = [stmt.test]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            header = [stmt.iter]
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            header = [v for v in (getattr(stmt, "value", None), getattr(stmt, "exc", None)) if v]
        for root in header:
            for node in ast.walk(root):
                if isinstance(node, ast.Assign):
                    for t in node.targets:
                        name = self._store_root(t, mutables)
                        if name:
                            yield node, name, "writes into"
                        if isinstance(t, ast.Name) and t.id in mutables and t.id in declared_global:
                            yield node, t.id, "rebinds (global)"
                elif isinstance(node, ast.AugAssign):
                    name = self._store_root(node.target, mutables)
                    if name:
                        yield node, name, "writes into"
                    elif (
                        isinstance(node.target, ast.Name)
                        and node.target.id in mutables
                    ):
                        yield node, node.target.id, "augments"
                elif isinstance(node, ast.Delete):
                    for t in node.targets:
                        name = self._store_root(t, mutables)
                        if name:
                            yield node, name, "deletes from"
                elif isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in _MUTATORS
                        and isinstance(func.value, ast.Name)
                        and func.value.id in mutables
                    ):
                        yield node, func.value.id, f"calls .{func.attr}() on"

    @staticmethod
    def _store_root(target: ast.expr, mutables: Set[str]) -> Optional[str]:
        """Name N for stores of the form ``N[...]`` (subscript mutation)."""
        if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
            if target.value.id in mutables:
                return target.value.id
        return None

    # -- ContextVar token hygiene ---------------------------------------------

    def _check_contextvars(self, model: ProjectModel) -> Iterable[Finding]:
        for mod_name in sorted(model.symbols):
            sym = model.symbols[mod_name]
            cvars = {n for n, k in sym.kinds.items() if k == KIND_CONTEXTVAR}
            if not cvars:
                continue
            module = model.modules[mod_name]
            infos = [f for f in model.functions.values() if f.module == mod_name]
            for info in sorted(infos, key=lambda f: f.lineno):
                yield from self._check_tokens(model, module.path, info, cvars)

    def _check_tokens(
        self, model: ProjectModel, path: str, info: FunctionInfo, cvars: Set[str]
    ) -> Iterable[Finding]:
        func = info.node
        has_local_reset: Dict[str, bool] = {}
        class_resets: Set[str] = set()
        if info.cls is not None:
            # any method of the class may carry the reset (enter/exit pairs)
            for other in model.functions.values():
                if other.module == info.module and other.cls == info.cls:
                    for node in ast.walk(other.node):
                        if (
                            isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "reset"
                            and isinstance(node.func.value, ast.Name)
                        ):
                            class_resets.add(node.func.value.id)
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reset"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in cvars
            ):
                has_local_reset[node.func.value.id] = True

        for stmt in ast.walk(func):
            call = None
            assigned_to_attr = False
            if isinstance(stmt, ast.Expr) and self._is_cvar_set(stmt.value, cvars):
                call = stmt.value
            elif isinstance(stmt, ast.Assign) and self._is_cvar_set(stmt.value, cvars):
                call = stmt.value
                assigned_to_attr = any(
                    isinstance(t, ast.Attribute) for t in stmt.targets
                )
            if call is None:
                continue
            var = call.func.value.id  # type: ignore[union-attr]
            if isinstance(stmt, ast.Expr):
                yield self.finding_at(
                    path,
                    stmt,
                    f"{info.name}() discards the token from {var}.set(); the "
                    "previous value can never be restored on this thread",
                )
            elif assigned_to_attr:
                if var not in class_resets:
                    yield self.finding_at(
                        path,
                        stmt,
                        f"{info.name}() stores {var}.set()'s token on an "
                        f"attribute but no method of the class calls "
                        f"{var}.reset(); the context leaks across requests",
                    )
            else:
                if not has_local_reset.get(var):
                    yield self.finding_at(
                        path,
                        stmt,
                        f"{info.name}() never calls {var}.reset() after "
                        f"{var}.set(); wrap the scope in try/finally and "
                        "reset the token",
                    )

    @staticmethod
    def _is_cvar_set(expr: ast.expr, cvars: Set[str]) -> bool:
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "set"
            and isinstance(expr.func.value, ast.Name)
            and expr.func.value.id in cvars
        )
