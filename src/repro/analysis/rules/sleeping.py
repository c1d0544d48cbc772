"""Rule R13: no bare ``time.sleep`` anywhere in the package.

An ad-hoc sleep is backpressure nothing can see: it is bounded by no
request deadline, shows up in no metric, and cannot be replaced by a fake
clock in tests.  Nothing in ``src/`` waits by sleeping -- the system does
not retry, and a circuit breaker's cooldown is a timestamp compared on
the next call -- so every ``time.sleep`` is a finding.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from repro.analysis.engine import Finding, LintConfig, ModuleInfo, Rule, register_rule

__all__ = ["NoSleepRule"]


@register_rule
class NoSleepRule(Rule):
    """R13: nothing in the package blocks in time.sleep."""

    rule_id = "R13"
    title = "no-bare-sleep"
    fix_hint = (
        "don't wait inline: let the failure reach its fallback, or compare "
        "a deadline / breaker timestamp on the next call"
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterable[Finding]:
        # names the module has bound directly to time.sleep
        # (``from time import sleep [as snooze]``)
        direct: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        direct.add(alias.asname or alias.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_sleep = (
                isinstance(func, ast.Attribute)
                and func.attr == "sleep"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ) or (isinstance(func, ast.Name) and func.id in direct)
            if is_sleep:
                yield self.finding(
                    module,
                    node,
                    "bare time.sleep blocks where no deadline or metric "
                    "can see it",
                )
