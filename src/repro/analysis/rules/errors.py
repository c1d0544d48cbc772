"""Rule R9: the DB layer raises only its own error hierarchy.

``repro.db.errors.DatabaseError`` is the contract boundary: ``cli.py``, the
web facade and the core system all catch it to turn engine failures into
user-facing messages.  A ``ValueError`` escaping from deep inside the
engine bypasses every one of those handlers.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import Finding, LintConfig, ModuleInfo, Rule, register_rule
from repro.analysis.project import dotted

__all__ = ["DbErrorHierarchyRule"]

#: builtin exceptions the db layer must wrap instead of raising directly.
#: NotImplementedError/AssertionError stay allowed: they flag programmer
#: errors, not runtime database failures.
_BANNED_BUILTINS = frozenset(
    {
        "Exception",
        "BaseException",
        "ValueError",
        "TypeError",
        "KeyError",
        "IndexError",
        "LookupError",
        "AttributeError",
        "RuntimeError",
        "ArithmeticError",
        "ZeroDivisionError",
        "OSError",
        "IOError",
        "StopIteration",
    }
)


@register_rule
class DbErrorHierarchyRule(Rule):
    """R9: raises inside repro.db derive from repro.db.errors."""

    rule_id = "R9"
    title = "db-error-hierarchy"
    fix_hint = (
        "raise a DatabaseError subclass from repro.db.errors (add one if "
        "no existing class fits)"
    )

    def applies_to(self, module: ModuleInfo, config: LintConfig) -> bool:
        return module.in_package(config.db_package)

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            name = dotted(target)
            if name in _BANNED_BUILTINS:
                yield self.finding(
                    module,
                    node,
                    f"db layer raises builtin {name}; callers only catch the "
                    "repro.db.errors hierarchy",
                )
