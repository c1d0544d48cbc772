"""Rule R5: the imaging and similarity layers stay free of IO.

``repro.imaging`` and ``repro.similarity`` are the numeric substrate every
other layer builds on: extractors, the DP sequence matcher, the evaluation
harness and the web facade all assume calling them has no side effects.
A stray ``open()`` or ``import socket`` inside a filter turns a pure
function into an IO hazard.  ``repro/imaging/image.py`` is the one
sanctioned IO boundary (it reads and writes image files).  That the
substrate imports no upper layer is R14's job: both packages sit in the
bottom layer of the DAG.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import Finding, LintConfig, ModuleInfo, Rule, register_rule

__all__ = ["PurityRule"]

#: stdlib/third-party modules that imply file, network or process IO
_IO_MODULES = frozenset(
    {
        "os", "io", "shutil", "pathlib", "tempfile", "socket", "ssl", "http",
        "urllib", "ftplib", "smtplib", "requests", "subprocess",
    }
)


@register_rule
class PurityRule(Rule):
    """R5: no IO calls or IO-module imports in imaging/similarity."""

    rule_id = "R5"
    title = "pure-layers"
    fix_hint = (
        "keep imaging/similarity free of IO; file IO belongs in the "
        "repro.imaging.image boundary module"
    )

    def applies_to(self, module: ModuleInfo, config: LintConfig) -> bool:
        return any(module.in_package(pkg) for pkg in config.pure_packages)

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterable[Finding]:
        if module.module in config.io_allowlist:
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "open"
            ):
                yield self.finding(
                    module,
                    node,
                    f"pure module {module.module} calls open(); file IO "
                    "is reserved for the imaging.image boundary",
                )
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                else:
                    targets = [node.module] if node.module else []
                for target in targets:
                    if target.split(".")[0] in _IO_MODULES:
                        yield self.finding(
                            module,
                            node,
                            f"pure module {module.module} imports IO module "
                            f"{target!r}",
                        )
