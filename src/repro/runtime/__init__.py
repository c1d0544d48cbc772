"""Execution layer: process-pool fan-out for the ingest/search hot paths.

``repro.runtime`` owns *how* work is spread over cores so the pipeline
layers (`core.ingest`, `core.search`) only say *what* to compute.  The
contract is deliberately narrow: an order-preserving chunked ``map`` that
degrades to the plain serial loop whenever parallelism cannot help
(one worker, one item) or cannot work (unpicklable task, dead pool),
a ``submit``/``result`` pair for long-lived tasks pinned to
persistent worker processes (the sharded scatter-gather path), and
``lane()``, one helper thread for NumPy work that releases the GIL.
"""

from repro.runtime.pool import PoolTask, WorkerPool, parallel_map, resolve_workers

__all__ = ["PoolTask", "WorkerPool", "parallel_map", "resolve_workers"]
