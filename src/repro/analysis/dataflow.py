"""Intraprocedural dataflow: per-function CFG + reaching definitions.

The per-file AST rules answer "does this expression look wrong"; the
dataflow layer answers "can a value *assembled* here *arrive* there".
R16 uses it to catch SQL built one assignment away from its call::

    q = f"SELECT * FROM {table}"   # assembled here
    ...
    db.execute(q)                  # arrives here as a plain name

The machinery is deliberately small: statements are CFG nodes (no basic
blocks -- function bodies here are tens of statements, not thousands),
branches and loops add edges conservatively, and the reaching-definitions
transfer function is the textbook gen/kill over a worklist.  ``try``
blocks edge every statement to every handler, which over-approximates --
exactly what a linter wants (never miss a flow that could happen).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["CFG", "Definition", "build_cfg", "reaching_definitions", "walrus_bindings"]


@dataclass(frozen=True)
class Definition:
    """One assignment of one name: ``(name, node id of the statement)``."""

    name: str
    stmt_id: int


@dataclass
class _Node:
    """One statement in the CFG."""

    stmt_id: int
    stmt: ast.stmt
    defs: Tuple[str, ...] = ()
    succ: Set[int] = field(default_factory=set)


class CFG:
    """Control-flow graph over the statements of one function (or module)."""

    def __init__(self) -> None:
        self.nodes: Dict[int, _Node] = {}
        self.entry: Optional[int] = None
        #: statement id -> the ast.stmt (for callers mapping back to source)
        self.stmts: Dict[int, ast.stmt] = {}

    def _add(self, stmt: ast.stmt) -> int:
        sid = len(self.nodes)
        self.nodes[sid] = _Node(stmt_id=sid, stmt=stmt, defs=tuple(_defined_names(stmt)))
        self.stmts[sid] = stmt
        if self.entry is None:
            self.entry = sid
        return sid

    def _edge(self, src: Optional[int], dst: int) -> None:
        if src is not None:
            self.nodes[src].succ.add(dst)


def _assigned_in_target(target: ast.expr, out: List[str]) -> None:
    if isinstance(target, ast.Name):
        out.append(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _assigned_in_target(elt, out)
    elif isinstance(target, ast.Starred):
        _assigned_in_target(target.value, out)
    # Attribute / Subscript stores mutate objects, not name bindings


def walrus_bindings(stmt: ast.stmt) -> List[ast.NamedExpr]:
    """The ``name := value`` expressions in this statement's own expressions
    (nested blocks are separate CFG nodes)."""
    return [
        node
        for child in ast.iter_child_nodes(stmt)
        if not isinstance(child, (ast.stmt, ast.ExceptHandler))
        for node in ast.walk(child)
        if isinstance(node, ast.NamedExpr)
    ]


def _defined_names(stmt: ast.stmt) -> List[str]:
    """Names (re)bound by this statement -- the gen/kill set key."""
    out: List[str] = [node.target.id for node in walrus_bindings(stmt)]
    if isinstance(stmt, ast.Assign):
        for t in stmt.targets:
            _assigned_in_target(t, out)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        _assigned_in_target(stmt.target, out)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        _assigned_in_target(stmt.target, out)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                _assigned_in_target(item.optional_vars, out)
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        out.append(stmt.name)
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            if alias.name != "*":
                out.append(alias.asname or alias.name.split(".")[0])
    return out


def build_cfg(body: Sequence[ast.stmt]) -> CFG:
    """A CFG over ``body`` (a function body or a module body).

    Compound statements contribute their header as a node (``if``/``for``
    headers bind names and evaluate expressions) and then their nested
    blocks; every branch merges back conservatively.
    """
    cfg = CFG()

    def walk(stmts: Sequence[ast.stmt], preds: List[int]) -> List[int]:
        """Wire ``stmts`` after ``preds``; return the block's exits."""
        current = preds
        for stmt in stmts:
            sid = cfg._add(stmt)
            for p in current:
                cfg._edge(p, sid)
            if isinstance(stmt, ast.If):
                body_exits = walk(stmt.body, [sid])
                else_exits = walk(stmt.orelse, [sid]) if stmt.orelse else [sid]
                current = body_exits + else_exits
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                body_exits = walk(stmt.body, [sid])
                for ex in body_exits:  # loop back edge
                    cfg._edge(ex, sid)
                else_exits = walk(stmt.orelse, [sid]) if stmt.orelse else []
                current = [sid] + body_exits + else_exits
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                current = walk(stmt.body, [sid])
            elif isinstance(stmt, ast.Try):
                body_exits = walk(stmt.body, [sid])
                handler_exits: List[int] = []
                for handler in stmt.handlers:
                    # any statement in the try body may jump to any handler
                    h_exits = walk(handler.body, body_exits + [sid])
                    handler_exits.extend(h_exits)
                else_exits = (
                    walk(stmt.orelse, body_exits) if stmt.orelse else body_exits
                )
                merged = else_exits + handler_exits
                if stmt.finalbody:
                    current = walk(stmt.finalbody, merged)
                else:
                    current = merged
            elif isinstance(stmt, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
                current = []  # control leaves the straight line
            else:
                current = [sid]
        return current

    walk(list(body), [])
    return cfg


def reaching_definitions(cfg: CFG) -> Dict[int, Set[Definition]]:
    """For each statement id: the definitions live *on entry* to it.

    Textbook worklist: ``out = gen U (in - kill)`` where a statement's
    gen set is its own (name, stmt_id) pairs and its kill set is every
    other definition of the names it rebinds.
    """
    in_sets: Dict[int, Set[Definition]] = {sid: set() for sid in cfg.nodes}
    out_sets: Dict[int, Set[Definition]] = {sid: set() for sid in cfg.nodes}
    preds: Dict[int, Set[int]] = {sid: set() for sid in cfg.nodes}
    for sid, node in cfg.nodes.items():
        for s in node.succ:
            preds[s].add(sid)

    work = list(cfg.nodes)
    while work:
        sid = work.pop(0)
        node = cfg.nodes[sid]
        new_in: Set[Definition] = set()
        for p in preds[sid]:
            new_in |= out_sets[p]
        killed = set(node.defs)
        new_out = {d for d in new_in if d.name not in killed}
        new_out |= {Definition(name, sid) for name in node.defs}
        if new_in != in_sets[sid] or new_out != out_sets[sid]:
            in_sets[sid] = new_in
            out_sets[sid] = new_out
            work.extend(node.succ)
    return in_sets
