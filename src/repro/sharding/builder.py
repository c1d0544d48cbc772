"""Per-shard corpus builder: split one store into N snapshot partitions.

Each shard gets a complete, self-contained RSNAP1 snapshot holding exactly
the videos that :func:`~repro.sharding.partition.shard_of` assigns to it.
Shard images carry no history stamp, so workers serve them as they are.
Workers then cold-start a partition with the same mmap machinery the
single-store engine uses -- a shard is just a smaller library.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.core.snapshots import build_snapshot_payload
from repro.core.store import FeatureStore
from repro.obs import log
from repro.sharding.manifest import ShardManifest
from repro.sharding.partition import shard_of
from repro.snapshot import write_snapshot

__all__ = ["SHARD_SNAPSHOT_PATTERN", "split_store", "split_library"]

#: per-shard snapshot file name (index == hash bucket)
SHARD_SNAPSHOT_PATTERN = "shard-{index:03d}.snap"


def split_store(
    store: FeatureStore, out_dir: str, n_shards: int
) -> ShardManifest:
    """Partition ``store`` into ``n_shards`` snapshots under ``out_dir``.

    Empty shards (no video hashed to them) still get a snapshot, so the
    manifest's shard index always equals the hash bucket.  Returns the
    written manifest.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    os.makedirs(out_dir, exist_ok=True)
    video_ids = np.asarray(store.video_ids(), dtype=np.int64)
    owners = np.array([shard_of(vid, n_shards) for vid in video_ids.tolist()], dtype=np.int64)
    frame_owner = owners[np.searchsorted(video_ids, store.columns.video_ids)]
    subs = [store.take(np.flatnonzero(frame_owner == index)) for index in range(n_shards)]
    names = []
    for index, sub in enumerate(subs):
        name = SHARD_SNAPSHOT_PATTERN.format(index=index)
        path = os.path.join(out_dir, name)
        arrays, meta = build_snapshot_payload(sub)
        meta["shard"] = {"index": index, "of": n_shards}
        write_snapshot(path, arrays, meta)
        names.append(name)
    manifest = ShardManifest(n_shards=n_shards, snapshots=tuple(names))
    manifest.write(out_dir)
    log.get_logger(__name__).info(
        "shard.split",
        out_dir=out_dir,
        n_shards=n_shards,
        frames=[len(sub) for sub in subs],
    )
    return manifest


def split_library(
    library: str, out_dir: str, n_shards: int, config: Optional[object] = None
) -> ShardManifest:
    """Open a durable library and split its corpus (the CLI entry point)."""
    from repro.core.system import VideoRetrievalSystem

    system = VideoRetrievalSystem.open(library, config=config)
    try:
        return split_store(system.feature_store, out_dir, n_shards)
    finally:
        system.close()
