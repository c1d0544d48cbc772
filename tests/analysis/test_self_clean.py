"""Tier-1 gate: the full rule set over the package's own source.

This is the test that turns reprolint into CI: any contract violation
introduced anywhere in ``src/repro`` fails the ordinary pytest run.
"""

import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.analysis import lint_paths
from repro.core.config import SystemConfig

PACKAGE_DIR = Path(repro.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


@pytest.fixture(scope="module")
def report():
    """One lint run of the whole package, shared by the gate tests."""
    return lint_paths([PACKAGE_DIR])


def test_reprolint_is_clean_on_own_source(report):
    assert not report.findings, "\n" + report.to_text()


def test_full_tree_was_actually_scanned(report):
    assert report.n_files >= 70, "package scan looks truncated"
    assert report.n_rules == 14


def test_ruff_selects_the_retired_rules_replacements():
    """R7 -> B006, R6's ``except Exception: pass`` -> S110, R12 -> T201,
    with R12's two stdout modules exempt.  Read as text: no ``tomllib``
    before Python 3.11."""
    text = PYPROJECT.read_text(encoding="utf-8")
    (select,) = re.findall(r"^select = \[(.*)\]$", text, re.M)  # ruff's, the only one
    assert {"B006", "S110", "T201"} <= set(re.findall(r'"(\w+)"', select))
    assert "\n[tool.ruff.lint.per-file-ignores]\n" in text
    for module in ("src/repro/cli.py", "src/repro/analysis/runner.py"):
        assert f'\n"{module}" = ["T201"]\n' in text, module


def test_no_engine_level_scoring_switch():
    """One scoring path: ``imaging.accel`` switches extraction kernels only."""
    for module in [*PACKAGE_DIR.glob("core/*.py"), *PACKAGE_DIR.glob("sharding/*.py")]:
        source = module.read_text()
        assert "import accel" not in source and "imaging.accel" not in source, module
    assert "batch_distances" not in {f.name for f in dataclasses.fields(SystemConfig)}


def test_one_pipeline_for_all_three_query_kinds():
    """A clip is a ``QueryRequest`` kind: no clip-only distance loop, shard
    task or pool-initializer hand-off is left beside the pipeline."""
    from repro.core.search import SearchEngine
    from repro.sharding import ShardedSearchEngine, worker

    gone = (
        "score_video_shard", "_score_video", "_clip_distances", "set_initializer",
        "init_worker_snapshot", "worker_snapshot_path", "worker_feature_matrix",
    )
    for module in PACKAGE_DIR.rglob("*.py"):
        source = module.read_text()
        assert not [name for name in gone if name in source], module
    overridden = {
        name
        for name in vars(ShardedSearchEngine)
        if name in vars(SearchEngine) and not name.startswith("__")
    }
    assert overridden == {"_plan_vectors", "_score_plans", "_rank_plan", "close"}
    assert [n for n in worker.__all__ if n.startswith("score_")] == ["score_vectors_shard"]
    assert len(dataclasses.fields(SystemConfig)) == 33


def test_numpy_is_the_only_import_outside_the_stdlib():
    """Two paths per kernel -- fast (NumPy) and reference (the paper's
    listing) -- and none that depends on what else is installed."""
    gone = ("scipy", "HAVE_SCIPY", "_label_regions_scipy")
    for module in PACKAGE_DIR.rglob("*.py"):
        source = module.read_text()
        assert not [name for name in gone if name in source], module


def test_one_durable_history():
    """The database log is the library's one history: no store-level WAL,
    its writer, its per-mutation hooks, its compaction knob or fault point."""
    gone = (
        "repro.snapshot.wal", "WalWriter", "record_add_video",
        "snapshot_compact_every", "snapshot.compact",
    )
    assert not (PACKAGE_DIR / "snapshot" / "wal.py").exists()
    for module in PACKAGE_DIR.rglob("*.py"):
        source = module.read_text()
        assert not [name for name in gone if name in source], module
