"""reprolint -- project-native static analysis for the CBVR system.

The retrieval pipeline is held together by conventions no unit test sees
end-to-end: the DB layer must stay parameterized, the numeric substrate
pure, the layers must import downward only, and state shared across
threads must be locked.  This package checks those contracts statically,
over the AST, in CI; generic Python hygiene is left to ruff
(``[tool.ruff.lint]`` in ``pyproject.toml``), and the contracts a running
process can check (the extractor registry, the feature-string round-trip)
are runtime tests.

Three entry points:

- ``repro lint [paths]`` (and ``python -m repro.analysis``) -- the CLI;
- :func:`lint_paths` / :func:`lint_source` -- the library API;
- ``tests/analysis/test_self_clean.py`` -- the tier-1 gate that runs the
  full rule set over ``src/repro`` on every test run.

See ``docs/static_analysis.md`` for the rule catalogue and how to add a
rule.
"""

from repro.analysis.dataflow import CFG, Definition, build_cfg, reaching_definitions
from repro.analysis.engine import (
    LintConfig,
    LintEngine,
    ModelRule,
    ModuleInfo,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
    module_name_for,
    register_rule,
)
from repro.analysis.findings import Finding, Report, Severity
from repro.analysis.project import FunctionInfo, ModuleSymbols, ProjectModel
from repro.analysis.runner import main

__all__ = [
    "Finding",
    "Report",
    "Severity",
    "LintConfig",
    "LintEngine",
    "ModuleInfo",
    "Rule",
    "ModelRule",
    "register_rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "main",
    "ProjectModel",
    "ModuleSymbols",
    "FunctionInfo",
    "CFG",
    "Definition",
    "build_cfg",
    "reaching_definitions",
]
