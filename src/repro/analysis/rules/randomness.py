"""Rule R11: no unseeded NumPy randomness.

Reproducibility is this project's whole point: ingest, key-framing, the
synthetic corpus, and the IVF coarse quantizer must produce identical
results run over run.  NumPy's legacy global-RNG API (``np.random.rand``,
``np.random.seed``, ``np.random.shuffle``, ...) draws from hidden process
state that any import can perturb, and an argument-less
``default_rng()`` seeds from the OS.  Both make results unrepeatable, so
every random draw must flow through a ``Generator`` constructed with an
explicit seed: ``np.random.default_rng(seed)``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable

from repro.analysis.engine import Finding, LintConfig, ModuleInfo, Rule, register_rule

__all__ = ["SeededRandomnessRule"]

#: numpy.random members that are fine to call: explicit-state constructors.
_STATEFUL_CONSTRUCTORS = frozenset(
    {"default_rng", "SeedSequence", "Generator", "RandomState",
     "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64"}
)

#: constructors that seed from the OS when called without arguments.
_NEEDS_SEED_ARG = frozenset({"default_rng", "SeedSequence", "RandomState"})


def _attribute_chain(node: ast.expr) -> str:
    """``a.b.c`` for a pure Name/Attribute chain, '' otherwise.

    Unlike :func:`~repro.analysis.project.dotted` this does NOT
    look through intermediate calls: ``default_rng(s).random()`` must
    not be mistaken for a second ``default_rng`` call.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def _numpy_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted prefix for numpy imports.

    Covers ``import numpy [as np]``, ``from numpy import random [as r]``,
    and ``from numpy.random import rand [as r]``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or alias.name.startswith("numpy."):
                    aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else "numpy"
                    )
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "numpy" or node.module.startswith("numpy."):
                for alias in node.names:
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return aliases


@register_rule
class SeededRandomnessRule(Rule):
    """R11: numpy randomness must come from an explicitly seeded Generator."""

    rule_id = "R11"
    title = "seeded-randomness"
    fix_hint = (
        "construct a generator with an explicit seed -- "
        "rng = np.random.default_rng(seed) -- and draw from it"
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterable[Finding]:
        aliases = _numpy_aliases(module.tree)
        if not aliases:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _attribute_chain(node.func)
            if not name:
                continue
            head, _, rest = name.partition(".")
            canonical = aliases.get(head)
            if canonical is None:
                continue
            full = f"{canonical}.{rest}" if rest else canonical
            if not full.startswith("numpy.random."):
                continue
            member = full[len("numpy.random."):].split(".")[0]
            if member not in _STATEFUL_CONSTRUCTORS:
                yield self.finding(
                    module,
                    node,
                    f"'{name}' draws from numpy's hidden global RNG; "
                    "results depend on process history",
                )
            elif member in _NEEDS_SEED_ARG and not node.args and not node.keywords:
                yield self.finding(
                    module,
                    node,
                    f"'{name}()' without a seed draws entropy from the OS; "
                    "pass an explicit seed",
                )
