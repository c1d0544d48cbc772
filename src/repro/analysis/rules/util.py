"""Shared AST helpers for the rule visitors."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.project import dotted

__all__ = [
    "decorator_names",
    "base_names",
    "class_defs",
    "class_str_attr",
    "is_abstract_class",
    "calls_super_method",
    "references_attribute",
    "calls_function",
]


def decorator_names(cls: ast.ClassDef) -> List[str]:
    """Last component of every decorator ("register_extractor" etc.)."""
    names = []
    for dec in cls.decorator_list:
        name = dotted(dec)
        if name:
            names.append(name.rsplit(".", 1)[-1])
    return names


def base_names(cls: ast.ClassDef) -> List[str]:
    """Last component of every base-class expression."""
    names = []
    for base in cls.bases:
        name = dotted(base)
        if name:
            names.append(name.rsplit(".", 1)[-1])
    return names


def class_defs(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Top-level (and conditionally-nested) class definitions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def class_str_attr(cls: ast.ClassDef, attr: str) -> Tuple[Optional[str], Optional[int]]:
    """Value and line of a class-level ``attr = "literal"`` assignment.

    Returns ``(None, None)`` when the attribute is not assigned at class
    level, and ``("", line)``-style values for non-literal assignments so
    callers can distinguish "missing" from "not a string constant".
    """
    for stmt in cls.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == attr:
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    return value.value, stmt.lineno
                return None, stmt.lineno
    return None, None


def is_abstract_class(cls: ast.ClassDef) -> bool:
    """Heuristically abstract: ABC base/metaclass or any @abstractmethod."""
    for name in base_names(cls):
        if name in ("ABC", "ABCMeta"):
            return True
    for kw in cls.keywords:
        if kw.arg == "metaclass" and dotted(kw.value).endswith("ABCMeta"):
            return True
    for node in ast.walk(cls):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if dotted(dec).rsplit(".", 1)[-1] in (
                    "abstractmethod",
                    "abstractproperty",
                ):
                    return True
    return False


def calls_super_method(func: ast.FunctionDef, method: str) -> bool:
    """True if the body contains ``super().<method>(...)``."""
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
            and isinstance(node.func.value, ast.Call)
            and dotted(node.func.value.func) == "super"
        ):
            return True
    return False


def references_attribute(func: ast.AST, attr: str) -> bool:
    """True if the body reads ``<anything>.<attr>`` or the bare name."""
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and node.attr == attr:
            return True
        if isinstance(node, ast.Name) and node.id == attr:
            return True
    return False


def calls_function(func: ast.AST, name: str) -> bool:
    """True if the body calls ``name(...)`` or ``<expr>.name(...)``."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            target = dotted(node.func).rsplit(".", 1)[-1]
            if target == name:
                return True
    return False
