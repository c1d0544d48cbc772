"""Rule engine for ``reprolint``.

The engine parses every target file once into an :class:`ModuleInfo`
(source, AST, derived module name), then runs two kinds of rules over the
result:

- :class:`Rule` -- checked module-by-module (most rules);
- :class:`ModelRule` -- checked once against the whole-program
  :class:`~repro.analysis.project.ProjectModel`, for cross-file contracts
  such as the layer DAG.

``# reprolint: disable=R16`` on the offending line (or any line of the
same simple statement) silences that rule there; there is no file-wide
or all-rules form.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type, Union

from repro.analysis.findings import Finding, Report, Severity

__all__ = [
    "ModuleInfo",
    "LintConfig",
    "Rule",
    "ModelRule",
    "LintEngine",
    "register_rule",
    "all_rules",
    "module_name_for",
    "lint_paths",
    "lint_source",
]

_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*disable\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source file, ready for rule visitors."""

    path: str
    module: str  # dotted module name, e.g. "repro.features.glcm"
    source: str
    tree: ast.Module
    lines: Tuple[str, ...]

    @property
    def package(self) -> str:
        """Parent package ("repro.features" for "repro.features.glcm")."""
        return self.module.rsplit(".", 1)[0] if "." in self.module else ""

    def in_package(self, prefix: str) -> bool:
        return self.module == prefix or self.module.startswith(prefix + ".")


@dataclass(frozen=True)
class LintConfig:
    """Rule selection and project-shape knobs.

    The defaults encode this repository's layout; fixture tests override
    them freely, which is also how a future second project would adapt the
    linter.
    """

    select: Optional[frozenset] = None  # None = all registered rules
    #: modules that must stay free of IO (R5 scope)
    pure_packages: Tuple[str, ...] = ("repro.imaging", "repro.similarity")
    #: modules allowed to do file IO despite living in a pure package
    io_allowlist: frozenset = frozenset({"repro.imaging.image"})
    #: the embedded-database package (R9 scope)
    db_package: str = "repro.db"
    #: the architecture DAG, bottom layer first; a module may only import
    #: modules in strictly lower layers (or its own package).  Packages
    #: not named here are unconstrained (R14 scope)
    layers: Tuple[Tuple[str, ...], ...] = (
        ("repro.obs", "repro.imaging", "repro.similarity", "repro.snapshot"),
        ("repro.video", "repro.resilience"),
        ("repro.features", "repro.db", "repro.runtime"),
        ("repro.indexing",),
        ("repro.core",),
        ("repro.sharding",),
        ("repro.web", "repro.eval", "repro.analysis"),
        ("repro.serving",),
        ("repro.cli",),
        ("repro.__main__",),
    )
    #: packages whose functions run on server threads (R15 roots, beside
    #: every callable handed to a thread, an executor or ``run_in_executor``)
    threaded_packages: Tuple[str, ...] = ("repro.web",)
    #: modules whose public entry points must reach instrumentation (R17)
    obs_entry_modules: Tuple[str, ...] = (
        "repro.core.system",
        "repro.web",
        "repro.sharding.coordinator",
        "repro.sharding.worker",
    )

    def wants(self, rule_id: str) -> bool:
        return self.select is None or rule_id in self.select

    def with_rules(self, select: Optional[Iterable[str]]) -> "LintConfig":
        return replace(self, select=frozenset(select) if select is not None else None)


class Rule:
    """Base class: one named, per-module check.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings; :meth:`applies_to` restricts the rule to some
    modules (default: every module).
    """

    rule_id: str = ""
    title: str = ""
    fix_hint: str = ""

    def applies_to(self, module: ModuleInfo, config: LintConfig) -> bool:
        return True

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: Union[ast.AST, int], message: str) -> Finding:
        return self.finding_at(module.path, node, message)

    def finding_at(self, path: str, node: Union[ast.AST, int], message: str) -> Finding:
        """A finding at a line (or node) of the file at ``path``."""
        if isinstance(node, ast.AST):
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0) + 1
        else:
            line, col = int(node), 1
        return Finding(
            rule_id=self.rule_id,
            severity=Severity.ERROR,
            path=path,
            line=line,
            col=col,
            message=message,
            fix_hint=self.fix_hint,
        )


class ModelRule(Rule):
    """A rule over the :class:`~repro.analysis.project.ProjectModel`.

    The engine builds the model once per run (module graph, symbol
    tables, call graph) and shares it across every model rule, so adding
    a rule costs one traversal, not one re-parse.  Model rules roam the
    project, so they report through :meth:`finding_at`.
    """

    def check_model(self, model, config: LintConfig) -> Iterable[Finding]:
        raise NotImplementedError


_RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global catalogue."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must define a rule_id")
    if cls.rule_id in _RULES and _RULES[cls.rule_id] is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _RULES[cls.rule_id] = cls
    return cls


def all_rules() -> List[Type[Rule]]:
    """Every registered rule class, sorted by id."""
    import repro.analysis.rules  # noqa: F401  (registers the built-in rules)

    return [_RULES[rid] for rid in sorted(_RULES)]


def module_name_for(path: Union[str, Path]) -> str:
    """Dotted module name, derived by walking up through ``__init__.py`` dirs."""
    p = Path(path)
    parts: List[str] = [] if p.stem == "__init__" else [p.stem]
    parent = p.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else p.stem


def _scan_pragmas(lines: Sequence[str], tree: ast.Module) -> Dict[int, Set[str]]:
    """Line -> rule ids its ``disable=`` pragmas silence."""
    by_line: Dict[int, Set[str]] = {}
    line_pragmas: List[Tuple[int, Set[str]]] = []
    for lineno, line in enumerate(lines, start=1):
        m = _PRAGMA_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group("rules").split(",") if r.strip()}
            by_line.setdefault(lineno, set()).update(rules)
            line_pragmas.append((lineno, rules))
    if line_pragmas:
        # a pragma on *any* physical line of a multi-line simple statement
        # covers the whole statement (findings anchor to its first line)
        spans = [
            (node.lineno, node.end_lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.stmt)
            and not hasattr(node, "body")  # simple statements only
            and node.end_lineno is not None
            and node.end_lineno > node.lineno
        ]
        for lineno, rules in line_pragmas:
            for start, end in spans:
                if start <= lineno <= end:
                    for covered in range(start, end + 1):
                        by_line.setdefault(covered, set()).update(rules)
    return by_line


class LintEngine:
    """Parses files, runs the rule set, and assembles a :class:`Report`."""

    def __init__(self, config: Optional[LintConfig] = None):
        self.config = config or LintConfig()
        self.rules: List[Rule] = [
            cls() for cls in all_rules() if self.config.wants(cls.rule_id)
        ]

    # -- module loading -------------------------------------------------------

    def load_source(
        self, source: str, path: str = "<string>", module: Optional[str] = None
    ) -> ModuleInfo:
        tree = ast.parse(source, filename=path)
        return ModuleInfo(
            path=path,
            module=module if module is not None else module_name_for(path),
            source=source,
            tree=tree,
            lines=tuple(source.splitlines()),
        )

    def collect_files(self, paths: Sequence[Union[str, Path]]) -> List[Path]:
        files: List[Path] = []
        for raw in paths:
            p = Path(raw)
            if p.is_dir():
                files.extend(sorted(p.rglob("*.py")))
            elif p.suffix == ".py":
                files.append(p)
        seen: Set[Path] = set()
        unique = []
        for f in files:
            r = f.resolve()
            if r not in seen:
                seen.add(r)
                unique.append(f)
        return unique

    # -- running --------------------------------------------------------------

    def lint_modules(self, modules: Sequence[ModuleInfo]) -> Report:
        findings: List[Finding] = []
        model = None
        for rule in self.rules:
            if isinstance(rule, ModelRule):
                if model is None:
                    from repro.analysis.project import ProjectModel

                    model = ProjectModel(modules)
                findings.extend(rule.check_model(model, self.config))
            else:
                for module in modules:
                    if rule.applies_to(module, self.config):
                        findings.extend(rule.check(module, self.config))
        by_path = {m.path: _scan_pragmas(m.lines, m.tree) for m in modules}
        kept = [
            f
            for f in findings
            if f.rule_id not in by_path.get(f.path, {}).get(f.line, ())
        ]
        return Report(findings=kept, n_files=len(modules), n_rules=len(self.rules))

    def lint_paths(self, paths: Sequence[Union[str, Path]]) -> Report:
        modules: List[ModuleInfo] = []
        parse_failures: List[Finding] = []
        for path in self.collect_files(paths):
            text = path.read_text(encoding="utf-8")
            try:
                modules.append(self.load_source(text, path=str(path)))
            except SyntaxError as exc:
                parse_failures.append(
                    Finding(
                        rule_id="PARSE",
                        severity=Severity.ERROR,
                        path=str(path),
                        line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1,
                        message=f"file does not parse: {exc.msg}",
                    )
                )
        report = self.lint_modules(modules)
        if parse_failures:
            report = Report(
                findings=list(report.findings) + parse_failures,
                n_files=report.n_files + len(parse_failures),
                n_rules=report.n_rules,
            )
        return report


def lint_paths(
    paths: Sequence[Union[str, Path]], config: Optional[LintConfig] = None
) -> Report:
    """Lint files/directories with the full (or configured) rule set."""
    return LintEngine(config).lint_paths(paths)


def lint_source(
    source: str,
    path: str = "<string>",
    module: str = "fixture",
    config: Optional[LintConfig] = None,
) -> Report:
    """Lint one in-memory module (the fixture-test entry point)."""
    engine = LintEngine(config)
    return engine.lint_modules([engine.load_source(source, path=path, module=module)])
