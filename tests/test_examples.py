"""Every example runs to completion against the current API.

Each ``examples/*.py`` runs in its own interpreter with ``PYTHONPATH=src``
and must exit 0, so a renamed or deleted name cannot leave an example
broken unseen.  ``reproduce_table1.py`` is skipped: it takes ~16 s and
``tests/eval`` covers the driver it calls.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SLOW = {"reproduce_table1.py"}
EXAMPLES = sorted(p.name for p in (ROOT / "examples").glob("*.py") if p.name not in SLOW)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
