"""Execution layer: how the ingest/search hot paths use more than one core.

``repro.runtime`` owns *how* work is spread over cores so the pipeline
layers (`core.ingest`, `core.search`) only say *what* to compute.  The
contract is deliberately narrow: ``lane()``, one helper thread for NumPy
work that releases the GIL, and a ``submit``/``result`` pair for
long-lived tasks pinned to persistent worker processes (the sharded
scatter-gather path), which degrades to running the task in-process when
a worker cannot take it (unpicklable task, dead pool).
"""

from repro.runtime.pool import PoolTask, WorkerPool

__all__ = ["PoolTask", "WorkerPool"]
