"""Every rule catches a one-line mutation of the real tree.

A rule keeps its place by failing on a plausible one-line slip in
``src/repro``, not only on a synthetic fixture.  The package is parsed
once; each case swaps one module for its mutated copy and asserts that
exactly the case's rule fires.  Model rules see the whole program;
per-module rules only need the mutated module, because a per-module
rule's findings depend on that module alone and the unmutated tree is
clean.
"""

from pathlib import Path

import pytest

import repro
from repro.analysis import LintConfig, LintEngine, ModelRule, all_rules

PACKAGE_DIR = Path(repro.__file__).parent

MODEL_RULES = LintConfig(
    select=frozenset(c.rule_id for c in all_rules() if issubclass(c, ModelRule))
)
MODULE_RULES = LintConfig(
    select=frozenset(c.rule_id for c in all_rules() if not issubclass(c, ModelRule))
)

#: (rule, module, text as it is, the text mutated); each changes or adds one line
MUTATIONS = [
    pytest.param(
        "R5", "repro.similarity.measures",
        "import numpy as np", "import numpy as np, socket",
        id="R5-io-import-in-substrate",
    ),
    pytest.param(
        "R9", "repro.db.engine",
        'raise SqlSyntaxError(f"invalid SQL identifier', 'raise ValueError(f"invalid SQL identifier',
        id="R9-builtin-raise-in-db",
    ),
    pytest.param(
        "R11", "repro.imaging.draw",
        "np.random.default_rng(0)", "np.random.default_rng()",
        id="R11-unseeded-rng",
    ),
    pytest.param(
        "R13", "repro.serving.server",
        "t0 = time.perf_counter()", "t0 = time.perf_counter(); time.sleep(0.01)",
        id="R13-sleep-in-search-handler",
    ),
    pytest.param(
        "R14", "repro.db.engine",
        "from repro.db.types import Statement, encode_commit, type_from_name",
        "from repro.db.types import Statement, encode_commit, type_from_name; import repro.core",
        id="R14-db-imports-core",
    ),
    pytest.param(
        "R15", "repro.web.api",
        '        if method == "GET" and path == "/":',
        '        __all__.append(path)\n        if method == "GET" and path == "/":',
        id="R15-web-route-state",
    ),
    pytest.param(
        "R15", "repro.serving.batcher",
        "batch = [item]", "batch = [item]; __all__.append(item)",
        id="R15-engine-thread-state",
    ),
    pytest.param(
        "R16", "repro.core.system",
        '"SELECT VIDEO FROM VIDEO_STORE WHERE V_ID = ?", (video_id,)',
        'f"SELECT VIDEO FROM VIDEO_STORE WHERE V_ID = {video_id}"',
        id="R16-fstring-at-execute",
    ),
    pytest.param(
        "R16", "repro.core.system",
        '"""Decode the stored RVF blob back into frames (Fig. 10\'s player)."""',
        'q = f"SELECT VIDEO FROM VIDEO_STORE WHERE V_ID = {video_id}"; self.db.execute(q)',
        id="R16-fstring-via-variable",
    ),
    pytest.param(
        "R16", "repro.core.system",
        '"SELECT IMAGE FROM KEY_FRAMES WHERE I_ID = ?", (frame_id,)',
        '(q := f"SELECT IMAGE FROM KEY_FRAMES WHERE I_ID = {frame_id}")',
        id="R16-walrus-at-execute",
    ),
    pytest.param(
        "R16", "repro.core.system",
        '"""Decode one stored key-frame image."""',
        'if (q := f"SELECT IMAGE FROM KEY_FRAMES WHERE I_ID = {frame_id}"): self.db.execute(q)',
        id="R16-walrus-via-variable",
    ),
    pytest.param(
        "R17", "repro.web.api",
        "explain: bool) -> Dict[str, object]:  # reprolint: disable=R17",
        "explain: bool) -> Dict[str, object]:",
        id="R17-entry-point-without-span",
    ),
]


@pytest.fixture(scope="module")
def tree():
    engine = LintEngine()
    return [
        engine.load_source(path.read_text(encoding="utf-8"), path=str(path))
        for path in engine.collect_files([PACKAGE_DIR])
    ]


def rules_firing(modules, mutant=None):
    """Rule ids that fire on ``modules`` (with ``mutant`` swapped in)."""
    if mutant is None:
        report = LintEngine().lint_modules(modules)
        return {f.rule_id for f in report.findings}
    swapped = [mutant if m.module == mutant.module else m for m in modules]
    findings = LintEngine(MODEL_RULES).lint_modules(swapped).findings
    findings += LintEngine(MODULE_RULES).lint_modules([mutant]).findings
    return {f.rule_id for f in findings}


def test_unmutated_tree_is_clean(tree):
    assert rules_firing(tree) == set()


def test_every_rule_has_a_mutation():
    assert {p.values[0] for p in MUTATIONS} == {c.rule_id for c in all_rules()}


@pytest.mark.parametrize("rule_id, module, text, mutated", MUTATIONS)
def test_mutation_fires_exactly_its_rule(tree, rule_id, module, text, mutated):
    (target,) = [m for m in tree if m.module == module]
    assert target.source.count(text) == 1, f"{text!r} is not one line of {module}"
    mutant = LintEngine().load_source(
        target.source.replace(text, mutated), path=target.path, module=module
    )
    assert rules_firing(tree, mutant) == {rule_id}
