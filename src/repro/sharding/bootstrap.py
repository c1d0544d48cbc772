"""Wiring a sharded engine into a :class:`VideoRetrievalSystem`.

The system facade must not import this layer (``repro.core`` sits below
``repro.sharding`` in the architecture DAG), so attachment is a push:
callers -- the CLI's ``--shards``, ``repro.serving.AsyncCbvrServer``, or
user code -- build the coordinator here and hand it to
``system.attach_engine``.  After attachment the system is a read
replica: admin mutations keep hitting the database but are invisible to
queries until the corpus is re-split (``repro shard split``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.core.config import SystemConfig
from repro.sharding.coordinator import ShardedSearchEngine
from repro.sharding.manifest import read_manifest

__all__ = ["sharded_config", "attach_sharded_engine", "maybe_attach_sharded"]


def sharded_config(
    shard_dir: str, config: Optional[SystemConfig] = None
) -> SystemConfig:
    """A config serving the shard set under ``shard_dir``.

    Reads the directory's manifest and pins ``shards``/``shard_paths``;
    ``ann`` is forced off (the coordinator merges exact distances).
    """
    manifest, paths = read_manifest(shard_dir)
    base = config or SystemConfig()
    return replace(
        base, shards=manifest.n_shards, shard_paths=tuple(paths), ann=False
    )


def attach_sharded_engine(
    system, shard_paths: Optional[Sequence[str]] = None
) -> ShardedSearchEngine:
    """Build a coordinator over ``shard_paths`` and attach it to ``system``.

    ``shard_paths`` defaults to ``system.config.shard_paths``.  The
    coordinator shares the system's observability and resilience bundles,
    so its per-shard breakers and metrics land in the same registry
    ``GET /metrics`` scrapes.
    """
    paths = tuple(shard_paths or system.config.shard_paths or ())
    if not paths:
        raise ValueError(
            "no shard snapshots: pass shard_paths or set "
            "SystemConfig(shard_paths=...)"
        )
    engine = ShardedSearchEngine(
        system.config, paths, obs=system.obs, policies=system.resilience
    )
    system.attach_engine(engine)
    return engine


def maybe_attach_sharded(system) -> Optional[ShardedSearchEngine]:
    """Attach a coordinator iff the system's config asks for one.

    The idempotent serve-time hook (``AsyncCbvrServer``, so ``repro serve``):
    returns the attached engine, or None for ordinary unsharded configs.
    """
    config = system.config
    if config.shards <= 1 or not config.shard_paths:
        return None
    if isinstance(system.engine, ShardedSearchEngine):
        return system.engine
    return attach_sharded_engine(system)
