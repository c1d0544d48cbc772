"""Where the benchmark lives and where the program it measures lives.

``run.py`` is the entry point; ``README.md`` beside it is the manual.
The benchmark touches ``repro`` only through its public functions --
every timer, span and check is in this directory.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: the checkout this benchmark measures (``benchmarks/e2e`` -> root)
REPO_ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: traces, result files and per-run work directories; git-ignored
OUT_DIR = os.path.join(BENCH_DIR, "out")


def require_repro() -> None:
    """Put ``src/`` on ``sys.path`` (call before importing ``repro``); exit 2
    when there is no program to measure."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        sys.stderr.write(
            f"benchmarks/e2e: no program to measure ({SRC_DIR}/repro is missing)\n"
        )
        raise SystemExit(2)
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    # repro logs warnings to stderr (read at import); results own the streams
    os.environ.setdefault("REPRO_LOG_LEVEL", "ERROR")
