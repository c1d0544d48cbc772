"""Whole-program model: module graph, symbol tables, approximate call graph.

The per-file rules see one AST at a time; the contracts the
sharded/async roadmap items depend on -- layering, import cycles, what
runs on which thread -- are properties of the *program*.  This module
builds that program view once per lint run, from the :class:`ModuleInfo`
objects the engine has already parsed:

- **module graph** -- which project module imports which (module-level
  and nested imports are tracked separately, because only module-level
  imports can deadlock at import time);
- **symbol tables** -- per-module bindings: functions, classes,
  module-level constants, *mutable* module state, locks and ContextVars
  (the raw material of the concurrency rules);
- **call graph** -- an approximate, name-based graph over every function
  and method in the project.  Calls through ``self``/duck-typed
  attributes resolve to *every* project function with that bare name;
  this over-approximation is deliberate: reachability answers "could
  this run on a web thread / in a pool worker" and must not miss.

Nothing here imports the engine (the engine imports us lazily), so the
analysis layers themselves satisfy the layer DAG they enforce.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import ModuleInfo

__all__ = [
    "FunctionInfo",
    "ModuleSymbols",
    "ProjectModel",
    "dotted",
]

#: binding kinds recorded in a module symbol table
KIND_FUNCTION = "function"
KIND_CLASS = "class"
KIND_MUTABLE = "mutable"
KIND_CONSTANT = "constant"
KIND_LOCK = "lock"
KIND_CONTEXTVAR = "contextvar"
KIND_IMPORT = "import"

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}
)
_LOCK_CALLS = frozenset({"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})


def dotted(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute/Call chains; "" otherwise."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        prefix = dotted(node.value)
        return f"{prefix}.{node.attr}" if prefix else node.attr
    if isinstance(node, ast.Call):
        return dotted(node.func)
    return ""


def _is_type_checking_guard(node: ast.If) -> bool:
    """``if TYPE_CHECKING:`` (possibly ``typing.TYPE_CHECKING``)."""
    return dotted(node.test).rsplit(".", 1)[-1] == "TYPE_CHECKING"


@dataclass
class FunctionInfo:
    """One function or method, with its outgoing call edges."""

    qualname: str  # "module:Class.method" or "module:function"
    module: str
    name: str  # bare name ("method")
    node: ast.AST  # FunctionDef / AsyncFunctionDef
    cls: Optional[str] = None  # owning class name, if a method
    calls: List[str] = field(default_factory=list)  # dotted call targets
    lineno: int = 0

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")


@dataclass
class ModuleSymbols:
    """Module-level bindings of one module, by kind."""

    module: str
    kinds: Dict[str, str] = field(default_factory=dict)  # name -> KIND_*
    imports: Dict[str, str] = field(default_factory=dict)  # local name -> dotted target
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)

    def names_of_kind(self, kind: str) -> List[str]:
        return sorted(n for n, k in self.kinds.items() if k == kind)


class ProjectModel:
    """The whole-program view: built once, shared by every model rule."""

    def __init__(self, modules: Sequence["ModuleInfo"]):
        self.modules: Dict[str, "ModuleInfo"] = {m.module: m for m in modules}
        self.symbols: Dict[str, ModuleSymbols] = {}
        self.functions: Dict[str, FunctionInfo] = {}  # qualname -> info
        #: bare function name -> qualnames (the approximate-dispatch buckets)
        self.by_name: Dict[str, List[str]] = {}
        #: module -> imported project modules (module level only)
        self.import_edges: Dict[str, Set[str]] = {}
        #: module -> imported project modules (including function-level)
        self.all_import_edges: Dict[str, Set[str]] = {}
        for m in modules:
            self._index_module(m)
        self._link_calls()

    # -- construction ----------------------------------------------------------

    def _resolve_import_target(self, target: str) -> Optional[str]:
        """Longest project-module prefix of a dotted import target."""
        parts = target.split(".")
        for cut in range(len(parts), 0, -1):
            cand = ".".join(parts[:cut])
            if cand in self.modules:
                return cand
        return None

    def _index_module(self, m: "ModuleInfo") -> None:
        sym = ModuleSymbols(module=m.module)
        self.symbols[m.module] = sym
        top_edges: Set[str] = set()
        all_edges: Set[str] = set()
        self.import_edges[m.module] = top_edges
        self.all_import_edges[m.module] = all_edges

        def record_import(node: ast.stmt, top_level: bool) -> None:
            if isinstance(node, ast.Import):
                pairs = [(a.asname or a.name.split(".")[0], a.name) for a in node.names]
            else:
                base = node.module or ""
                if node.level:  # relative import: anchor at the right package
                    parts = m.module.split(".")
                    # level 1 is this package: for pkg/__init__ that is the
                    # module itself, for pkg.mod it is the parent
                    keep = len(parts) - node.level
                    if m.path.endswith("__init__.py"):
                        keep += 1
                    anchor = parts[: max(keep, 0)]
                    base = ".".join(anchor + ([base] if base else []))
                pairs = [
                    (a.asname or a.name, f"{base}.{a.name}" if base else a.name)
                    for a in node.names
                    if a.name != "*"
                ]
            for local, target in pairs:
                if top_level:
                    sym.imports[local] = target
                    sym.kinds.setdefault(local, KIND_IMPORT)
                resolved = self._resolve_import_target(target)
                if resolved is not None and resolved != m.module:
                    all_edges.add(resolved)
                    if top_level:
                        top_edges.add(resolved)

        def classify_assign(value: ast.expr) -> str:
            if isinstance(value, _MUTABLE_LITERALS):
                # empty or literal containers are mutable module state
                return KIND_MUTABLE
            if isinstance(value, ast.Call):
                tail = dotted(value.func).rsplit(".", 1)[-1]
                if tail in _MUTABLE_CALLS:
                    return KIND_MUTABLE
                if tail in _LOCK_CALLS:
                    return KIND_LOCK
                if tail == "ContextVar":
                    return KIND_CONTEXTVAR
            return KIND_CONSTANT

        def visit_top(stmts: Iterable[ast.stmt], type_checking: bool) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    record_import(stmt, top_level=not type_checking)
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    sym.kinds[stmt.name] = KIND_FUNCTION
                    self._index_function(m, stmt, cls=None)
                elif isinstance(stmt, ast.ClassDef):
                    sym.kinds[stmt.name] = KIND_CLASS
                    sym.classes[stmt.name] = stmt
                    for sub in stmt.body:
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            self._index_function(m, sub, cls=stmt.name)
                elif isinstance(stmt, ast.Assign):
                    kind = classify_assign(stmt.value)
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            sym.kinds[target.id] = kind
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    if isinstance(stmt.target, ast.Name):
                        sym.kinds[stmt.target.id] = classify_assign(stmt.value)
                elif isinstance(stmt, ast.If):
                    visit_top(stmt.body, type_checking or _is_type_checking_guard(stmt))
                    visit_top(stmt.orelse, type_checking)
                elif isinstance(stmt, ast.Try):
                    visit_top(stmt.body, type_checking)
                    for handler in stmt.handlers:
                        visit_top(handler.body, type_checking)
                    visit_top(stmt.orelse, type_checking)
                    visit_top(stmt.finalbody, type_checking)

        visit_top(m.tree.body, type_checking=False)

        # nested (function-level) imports still create architecture edges;
        # one walk of the module, since re-recording a top-level import is a no-op
        for node in ast.walk(m.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                record_import(node, top_level=False)

    def _index_function(
        self, m: "ModuleInfo", node: ast.AST, cls: Optional[str]
    ) -> FunctionInfo:
        name = node.name
        qual = f"{m.module}:{cls}.{name}" if cls else f"{m.module}:{name}"
        info = FunctionInfo(
            qualname=qual,
            module=m.module,
            name=name,
            node=node,
            cls=cls,
            lineno=node.lineno,
        )
        self.functions[qual] = info
        self.by_name.setdefault(name, []).append(qual)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                target = dotted(sub.func)
                if target:
                    info.calls.append(target)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not node:
                # nested defs become their own nodes (pool-shipped closures)
                if not any(
                    f.node is sub for f in self.functions.values()
                ):
                    self._index_function(m, sub, cls=cls)
        return info

    def _link_calls(self) -> None:
        """Resolve each function's called names to project qualnames."""
        self.call_edges: Dict[str, Set[str]] = {}
        for qual, info in self.functions.items():
            edges: Set[str] = set()
            sym = self.symbols.get(info.module)
            for target in info.calls:
                edges.update(self._resolve_call(info, sym, target))
            self.call_edges[qual] = edges

    def _resolve_call(
        self, info: FunctionInfo, sym: Optional[ModuleSymbols], target: str
    ) -> Set[str]:
        out: Set[str] = set()
        head, _, _ = target.partition(".")
        tail = target.rsplit(".", 1)[-1]
        if "." not in target:
            # bare name: same-module function, imported function, or class
            local = f"{info.module}:{target}"
            if local in self.functions:
                return {local}
            if sym is not None:
                kind = sym.kinds.get(target)
                if kind == KIND_CLASS:
                    init = f"{info.module}:{target}.__init__"
                    return {init} if init in self.functions else set()
                imported = sym.imports.get(target)
                if imported is not None:
                    out.update(self._resolve_dotted(imported))
                    return out
            # unknown bare name (builtin, closure arg): fall through to bucket
            out.update(self.by_name.get(target, ()))
            return out
        if sym is not None and head in sym.imports:
            # module.attr / imported-name.attr
            out.update(self._resolve_dotted(sym.imports[head] + target[len(head):]))
            if out:
                return out
        # attribute call on an unknown receiver: name-based bucket
        out.update(self.by_name.get(tail, ()))
        return out

    def _resolve_dotted(self, target: str) -> Set[str]:
        """``pkg.mod.func`` / ``pkg.mod.Class`` -> project qualnames."""
        mod = self._resolve_import_target(target)
        if mod is None:
            return set()
        rest = target[len(mod):].lstrip(".")
        if not rest:
            return set()
        parts = rest.split(".")
        cand = f"{mod}:{parts[0]}"
        if cand in self.functions and len(parts) == 1:
            return {cand}
        sym = self.symbols.get(mod)
        if sym is not None and parts[0] in sym.classes:
            if len(parts) >= 2:
                meth = f"{mod}:{parts[0]}.{parts[1]}"
                return {meth} if meth in self.functions else set()
            init = f"{mod}:{parts[0]}.__init__"
            return {init} if init in self.functions else set()
        # re-exported name: fall back to the bare-name bucket
        return set(self.by_name.get(parts[-1], ()))

    # -- queries ---------------------------------------------------------------

    def resolve_call(self, info: FunctionInfo, target: str) -> Set[str]:
        """Qualnames a dotted call target could reach from inside ``info``."""
        return self._resolve_call(info, self.symbols.get(info.module), target)

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Transitive closure of the call graph from ``roots`` qualnames."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self.call_edges.get(cur, ()) - seen)
        return seen

    def public_functions(self, module_prefixes: Sequence[str]) -> List[FunctionInfo]:
        """Public functions/methods of public classes under the prefixes."""
        out: List[FunctionInfo] = []
        for qual in sorted(self.functions):
            info = self.functions[qual]
            if not any(
                info.module == p or info.module.startswith(p + ".")
                for p in module_prefixes
            ):
                continue
            if not info.is_public or info.name.startswith("__"):
                continue
            if info.cls is not None and info.cls.startswith("_"):
                continue
            out.append(info)
        return out

    def import_cycles(self) -> List[List[str]]:
        """Module-level import cycles (strongly connected components > 1).

        Edges from a package ``__init__`` to its *own* submodules are
        excluded: that is the sanctioned registration/re-export idiom
        (``repro.features`` registers its extractors that way), and
        Python resolves it at import time.
        """
        graph: Dict[str, Set[str]] = {}
        for mod, edges in self.import_edges.items():
            is_init = self.modules[mod].path.endswith("__init__.py")
            kept = set()
            for dst in edges:
                if is_init and dst.startswith(mod + "."):
                    continue  # package re-exporting its own children
                if dst in self.modules:
                    kept.add(dst)
            graph[mod] = kept
        return _tarjan_sccs(graph)


def _tarjan_sccs(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Strongly connected components with > 1 node, iteratively."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for start in sorted(graph):
        if start in index:
            continue
        work: List[Tuple[str, Iterable[str]]] = [(start, iter(sorted(graph[start])))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in graph:
                    continue
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(graph[nxt]))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))
    return sccs
