"""Store-level snapshot management: mmap cold start + WAL + compaction.

:mod:`repro.snapshot` owns the bytes; this module translates them to and
from live objects.  :class:`SnapshotManager` sits beside the
:class:`~repro.core.store.FeatureStore` and

- **opens**: maps the snapshot read-only, has the store adopt the mmap
  sections as its columns (queries then serve straight off the page
  cache) with the recorded generation counters, replays the WAL on top,
  and hands the IVF coarse quantizer its trained state -- all without
  touching a single ``KEY_FRAMES`` row or looping over the frames;
- **records**: appends each ingest/delete/rename to the WAL so the
  on-disk image keeps up without a full rewrite per mutation;
- **compacts**: folds the WAL into a fresh snapshot (atomic rename)
  once it grows past ``snapshot_compact_every`` entries.

Failure handling is fallback-first: a missing, corrupt, stale, or
version-skewed snapshot means the system rebuilds from SQL exactly as if
no snapshot existed, counts the miss, and reports itself degraded only
in the ``repro_snapshot_opens_total{outcome="rebuild"}`` sense --
``snapshot="require"`` turns that fallback into a hard error for read
replicas that must never touch the database.

Byte-correctness: WAL replay parses the very same feature strings the
SQL rebuild would parse, and the restored generation counters continue
exactly where the writing process left them, so query-cache keys and
``structure_generation``-based invalidation agree between a process that
lived through the mutations and one that replayed them.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.store import (
    FeatureColumn,
    FeatureStore,
    FrameColumns,
    FrameRecord,
    VideoInfo,
)
from repro.features.base import FeatureVector
from repro.indexing.rangefinder import Bucket
from repro.obs import NULL_OBS, Obs, log
from repro.resilience import NULL_POLICIES, FaultInjected, ResiliencePolicies
from repro.snapshot import (
    CorruptSnapshotError,
    CorruptWalError,
    Snapshot,
    SnapshotError,
    WalWriter,
    read_wal,
    remove_wal,
    wal_path_for,
    write_snapshot,
)

__all__ = [
    "SnapshotManager",
    "SnapshotRequiredError",
    "build_snapshot_payload",
    "load_snapshot_into_store",
    "open_snapshot_store",
]

#: snapshot meta discriminator (a repro.snapshot file could hold anything)
_META_KIND = "cbvr-store"


class SnapshotRequiredError(RuntimeError):
    """``snapshot="require"`` and no valid snapshot could be opened."""


# -- store <-> snapshot translation --------------------------------------------


def build_snapshot_payload(
    store: FeatureStore, ivf=None
) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """``(arrays, meta)`` for :func:`repro.snapshot.write_snapshot`: the
    store's columns, section by section.

    Feature matrices are stored as float64: exact float64 kernels would
    have to up-cast a narrower section block by block (measured slower,
    docs/performance.md "Store layout"), and float32 arithmetic would
    break the byte-identity of mmap-served and SQL-rebuilt rankings
    (feature strings parse to float64).  The dtype is recorded per
    section all the same.
    """
    columns = store.columns
    arrays: Dict[str, np.ndarray] = {
        "frame_ids": columns.ids,
        "frame_video_ids": columns.video_ids,
        "bucket_min": columns.bucket_min,
        "bucket_max": columns.bucket_max,
    }
    features_meta: Dict[str, Dict[str, object]] = {}
    for name, (matrix, tag, rows) in sorted(store.feature_columns().items()):
        if rows is None:
            features_meta[name] = {"tag": tag, "rows": "all"}
        else:
            arrays[f"feat_rows:{name}"] = columns.ids[rows]
            features_meta[name] = {"tag": tag, "rows": "subset"}
        arrays[f"feat:{name}"] = np.asarray(matrix, dtype=np.float64)
    videos: Dict[str, Dict[str, object]] = {}
    for vid in store.video_ids():
        video = store.video(vid)
        videos[str(vid)] = {
            "name": video.name,
            "category": video.category,
            "motion": video.motion.to_string() if video.motion is not None else None,
        }
    meta: Dict[str, object] = {
        "kind": _META_KIND,
        "generation": store.generation,
        "structure_generation": store.structure_generation,
        "n_frames": len(store),
        "frame_names": columns.frame_names.tolist(),
        "features": features_meta,
        "videos": videos,
    }
    if ivf is not None:
        state = ivf.export_state()
        if state is not None:
            ivf_arrays, ivf_meta = state
            for key, value in ivf_arrays.items():
                arrays[f"ivf:{key}"] = value
            meta["ivf"] = ivf_meta
    return arrays, meta


def load_snapshot_into_store(snap: Snapshot, store: FeatureStore) -> None:
    """Restore the frame population from an open snapshot (no WAL yet).

    The store adopts the mmap sections as its columns: no per-frame work,
    no vector copies, and the first query reads pages straight from the
    file.  (The per-video table and the frame names come out of the
    header JSON, one entry each.)
    """
    meta = snap.meta
    if meta.get("kind") != _META_KIND:
        raise CorruptSnapshotError(
            f"{snap.path}: not a store snapshot (kind={meta.get('kind')!r})"
        )
    ids = snap.section("frame_ids")
    columns = FrameColumns(
        ids,
        snap.section("frame_video_ids"),
        snap.section("bucket_min"),
        snap.section("bucket_max"),
        np.array(meta["frame_names"], dtype=object),
    )
    if any(column.shape != ids.shape for column in columns):
        raise CorruptSnapshotError(f"{snap.path}: frame table sections disagree")
    if ids.size > 1 and not np.all(ids[1:] > ids[:-1]):
        raise CorruptSnapshotError(f"{snap.path}: frame ids are not ascending")
    videos = {
        int(vid): VideoInfo(
            name=str(vinfo["name"]),
            category=vinfo.get("category"),
            motion=FeatureVector.from_string("motion", str(vinfo["motion"]))
            if vinfo.get("motion")
            else None,
        )
        for vid, vinfo in meta["videos"].items()
    }
    if not set(np.unique(columns.video_ids).tolist()) <= videos.keys():
        raise CorruptSnapshotError(f"{snap.path}: a frame names a video the table lacks")
    features: Dict[str, FeatureColumn] = {}
    for name, fmeta in meta["features"].items():
        matrix = snap.section(f"feat:{name}")
        if matrix.dtype != np.float64:
            matrix = matrix.astype(np.float64)
        rows = None
        if fmeta["rows"] != "all":
            carriers = snap.section(f"feat_rows:{name}")
            rows = np.minimum(np.searchsorted(ids, carriers), max(ids.size - 1, 0))
            if not np.array_equal(ids[rows], carriers):
                raise CorruptSnapshotError(f"{snap.path}: {name!r} rows name unknown frames")
        if matrix.ndim != 2 or matrix.shape[0] != (ids.size if rows is None else rows.size):
            raise CorruptSnapshotError(f"{snap.path}: section feat:{name} has the wrong shape")
        features[name] = FeatureColumn(matrix, str(fmeta["tag"]), rows)
    store.adopt(
        columns,
        videos,
        features,
        generation=int(meta["generation"]),
        structure_generation=int(meta["structure_generation"]),
    )


def open_snapshot_store(path: str) -> Tuple[Snapshot, FeatureStore]:
    """Open a snapshot + its WAL into a fresh read-replica store.

    The pure-mmap analogue of :meth:`SnapshotManager.try_open` for callers
    that have only a snapshot file and no database -- shard workers and the
    scatter-gather coordinator.  No fallback: a missing or corrupt file
    raises, because a replica silently serving an empty partition would
    corrupt merged rankings.  The caller owns closing the returned
    :class:`~repro.snapshot.Snapshot` (the store's columns view its mmap).
    """
    snap = Snapshot.open(path)
    try:
        store = FeatureStore()
        base = (
            int(snap.meta["generation"]),
            int(snap.meta["structure_generation"]),
        )
        entries = read_wal(wal_path_for(path), base[0], base[1])
        load_snapshot_into_store(snap, store)
        for entry in entries:
            _replay_wal_entry(store, entry)
    except Exception:
        snap.close()
        raise
    return snap, store


def _replay_wal_entry(store: FeatureStore, entry: Dict[str, object]) -> None:
    """Apply one WAL record through the exact mutation path ingest used.

    ``add_video`` re-parses the recorded feature strings with
    ``FeatureVector.from_string`` -- the same code the SQL rebuild runs --
    so a replayed store is byte-identical to a rebuilt one.
    """
    op = entry.get("op")
    if op == "add_video":
        video_id = int(entry["video_id"])
        name = str(entry["name"])
        category = entry.get("category")
        for frame in entry["frames"]:
            features = {
                fname: FeatureVector.from_string(fname, text)
                for fname, text in frame["features"].items()
            }
            store.add(
                FrameRecord(
                    frame_id=int(frame["frame_id"]),
                    video_id=video_id,
                    video_name=name,
                    frame_name=str(frame["frame_name"]),
                    category=category,
                    bucket=Bucket(int(frame["bucket"][0]), int(frame["bucket"][1])),
                    features=features,
                )
            )
        if entry.get("motion"):
            store.set_video_motion(
                video_id, FeatureVector.from_string("motion", str(entry["motion"]))
            )
    elif op == "delete_video":
        store.remove_video(int(entry["video_id"]))
    elif op == "rename_video":
        store.rename_video(int(entry["video_id"]), str(entry["name"]))
    else:
        raise CorruptWalError(f"unknown WAL op {op!r}")


# -- the manager ---------------------------------------------------------------


class SnapshotManager:
    """Owns one system's snapshot file, WAL, and compaction policy."""

    def __init__(
        self,
        config,
        db,
        store: FeatureStore,
        obs: Obs = NULL_OBS,
        policies: ResiliencePolicies = NULL_POLICIES,
    ):
        self.config = config
        self.db = db
        self.store = store
        self.mode: str = config.snapshot
        path = config.snapshot_path
        if path is None and db.path is not None:
            path = db.path + ".snap"
        self.path: Optional[str] = path
        self._policies = policies
        self._obs = obs
        self._log = log.get_logger(__name__)
        self._engine = None  # attach_engine; needed for IVF state
        self._snapshot: Optional[Snapshot] = None
        self._wal: Optional[WalWriter] = None
        self._served_from = "none"
        self._m_opens = obs.counter(
            "repro_snapshot_opens_total",
            "System cold starts by source (mmap snapshot vs SQL rebuild).",
            labelnames=("outcome",),
        )
        self._m_open_seconds = obs.histogram(
            "repro_snapshot_open_seconds",
            "Snapshot open + WAL replay wall time.",
        )
        self._m_compact_seconds = obs.histogram(
            "repro_snapshot_compact_seconds",
            "Snapshot compaction (WAL fold + rewrite) wall time.",
        )
        self._m_compactions = obs.counter(
            "repro_snapshot_compactions_total",
            "Snapshot compactions, by outcome.",
            labelnames=("outcome",),
        )
        self._m_writes = obs.counter(
            "repro_snapshot_writes_total", "Full snapshot files written."
        )
        self._m_wal_depth = obs.gauge(
            "repro_snapshot_wal_depth",
            "Mutations in the WAL since the base snapshot.",
        )

    @property
    def active(self) -> bool:
        """Whether this system participates in snapshot serving at all."""
        return self.mode != "off" and self.path is not None

    @property
    def served_from(self) -> str:
        """How this process started: ``mmap``, ``rebuild``, or ``none``."""
        return self._served_from

    @property
    def wal_depth(self) -> int:
        return self._wal.depth if self._wal is not None else 0

    def attach_engine(self, engine) -> None:
        """Bind the search engine (its IVF index rides in the snapshot)."""
        self._engine = engine

    # -- opening ---------------------------------------------------------------

    def try_open(self) -> bool:
        """Serve from the snapshot; ``False`` -> caller rebuilds from SQL.

        On any failure in ``auto`` mode -- missing file, checksum mismatch,
        foreign version/endianness, stale WAL, or disagreement with the
        database -- the store is left empty, a fallback is counted, and the
        caller runs the usual SQL rebuild.  ``require`` escalates the same
        failures to :class:`SnapshotRequiredError`.
        """
        if not self.active:
            self._served_from = "rebuild"
            return False
        t0 = time.perf_counter()
        try:
            self._policies.fire("snapshot.open")
            snap = Snapshot.open(self.path)
            base = (
                int(snap.meta["generation"]),
                int(snap.meta["structure_generation"]),
            )
            entries = read_wal(wal_path_for(self.path), base[0], base[1])
            load_snapshot_into_store(snap, self.store)
            for entry in entries:
                _replay_wal_entry(self.store, entry)
            self._check_freshness()
        except FileNotFoundError:
            return self._open_failed("missing snapshot file")
        except (SnapshotError, FaultInjected, KeyError, ValueError, TypeError) as exc:
            # malformed meta surfaces as KeyError/ValueError; a partially
            # replayed store is discarded before the SQL rebuild
            self.store.clear()
            return self._open_failed(f"{type(exc).__name__}: {exc}")
        self._snapshot = snap
        self._wal = WalWriter(wal_path_for(self.path), base[0], base[1])
        self._served_from = "mmap"
        if self._engine is not None and self._engine.ann is not None:
            ivf_meta = snap.meta.get("ivf")
            if ivf_meta is not None:
                ivf_arrays = {
                    name[len("ivf:") :]: snap.section(name)
                    for name in snap.section_names()
                    if name.startswith("ivf:")
                }
                self._engine.ann.load_state(ivf_arrays, ivf_meta)
        elapsed = time.perf_counter() - t0
        self._m_opens.labels(outcome="mmap").inc()
        self._m_open_seconds.observe(elapsed)
        self._m_wal_depth.set(self._wal.depth)
        self._log.info(
            "snapshot.open",
            path=self.path,
            frames=len(self.store),
            wal_entries=len(entries),
            ms=round(elapsed * 1000.0, 2),
        )
        return True

    def _open_failed(self, reason: str) -> bool:
        if self.mode == "require":
            raise SnapshotRequiredError(
                f"snapshot='require' but {self.path}: {reason}"
            )
        self._served_from = "rebuild"
        self._m_opens.labels(outcome="rebuild").inc()
        self._policies.note_fallback("snapshot_rebuild")
        self._log.warning("snapshot.fallback", path=self.path, reason=reason)
        return False

    def _check_freshness(self) -> None:
        """The snapshot + WAL must reproduce exactly the database's frames.

        Durable systems compare frame count and max id (cheap aggregates)
        against the replayed store; a snapshot another writer left behind
        -- or one that simply missed the last transactions -- is stale and
        falls back to the rebuild.  In-memory systems skip the check: with
        an explicit ``snapshot_path`` they are pure mmap read replicas that
        by design never consult SQL (see docs/snapshot.md).
        """
        if not self.db.is_durable:
            return
        count = self.db.execute("SELECT COUNT(*) FROM KEY_FRAMES").scalar()
        max_id = self.db.execute("SELECT MAX(I_ID) FROM KEY_FRAMES").scalar()
        ids = self.store.frame_ids()
        store_max = ids[-1] if ids else None
        if int(count) != len(ids) or (max_id is None) != (store_max is None) or (
            max_id is not None and int(max_id) != int(store_max)
        ):
            raise CorruptSnapshotError(
                f"snapshot+WAL holds {len(ids)} frames (max id {store_max}), "
                f"database holds {count} (max id {max_id}): stale snapshot"
            )

    # -- incremental recording -------------------------------------------------

    def _append(self, op: str, payload: Dict[str, object]) -> None:
        if self._wal is None:
            return
        try:
            self._wal.append(op, payload)
        except OSError as exc:
            # never fail the (already committed) mutation over WAL I/O
            self._log.warning(
                "snapshot.wal_error", op=op, error=f"{type(exc).__name__}: {exc}"
            )
            self._policies.note_fallback("snapshot_wal_disabled")
            self._wal = None
            self._discard_image()
            return
        self._m_wal_depth.set(self._wal.depth)
        self.maybe_compact()

    def _discard_image(self) -> None:
        """Unlink the snapshot + WAL that missed a committed mutation.

        A rename, or a delete + add of equal frame count, leaves the
        ``COUNT(*)`` / ``MAX(I_ID)`` aggregates of :meth:`_check_freshness`
        unchanged, so the image would serve stale rows on the next open.
        With the files gone that open rebuilds from SQL, and the next
        :meth:`write` starts a fresh image.  This process keeps serving
        from its mapping, which the unlink does not touch.
        """
        try:
            if os.path.exists(self.path):
                os.remove(self.path)
            remove_wal(self.path)
        except OSError as exc:
            self._log.warning(
                "snapshot.discard_failed",
                path=self.path,
                error=f"{type(exc).__name__}: {exc}",
            )
            return
        self._policies.note_fallback("snapshot_discarded")
        self._log.warning("snapshot.discarded", path=self.path)

    def record_add_video(
        self,
        video_id: int,
        name: str,
        category: Optional[str],
        motion: Optional[FeatureVector],
        records: List[FrameRecord],
    ) -> None:
        """Log one committed ``add_video`` (call after the store mirror)."""
        self._append(
            "add_video",
            {
                "video_id": video_id,
                "name": name,
                "category": category,
                "motion": motion.to_string() if motion is not None else None,
                "frames": [
                    {
                        "frame_id": r.frame_id,
                        "frame_name": r.frame_name,
                        "bucket": [r.bucket.min, r.bucket.max],
                        "features": {
                            fname: vector.to_string()
                            for fname, vector in r.features.items()
                        },
                    }
                    for r in records
                ],
            },
        )

    def record_delete(self, video_id: int) -> None:
        self._append("delete_video", {"video_id": video_id})

    def record_rename(self, video_id: int, new_name: str) -> None:
        self._append("rename_video", {"video_id": video_id, "name": new_name})

    # -- writing / compaction --------------------------------------------------

    def write(self) -> str:
        """Write a full snapshot of the live store (and IVF) right now.

        Atomic (tmp + rename); on success the WAL restarts empty at the
        new base generation.  This is both the explicit ``repro snapshot
        write`` / ``checkpoint()`` path and the compaction rewrite.
        """
        if self.path is None:
            raise SnapshotError(
                "no snapshot path: pass SystemConfig(snapshot_path=...) or "
                "open a durable database"
            )
        ivf = self._engine.ann if self._engine is not None else None
        arrays, meta = build_snapshot_payload(self.store, ivf)
        write_snapshot(self.path, arrays, meta)
        remove_wal(self.path)
        self._wal = WalWriter(
            wal_path_for(self.path),
            self.store.generation,
            self.store.structure_generation,
        )
        self._m_writes.inc()
        self._m_wal_depth.set(0)
        self._log.info(
            "snapshot.write", path=self.path, frames=len(self.store)
        )
        return self.path

    def maybe_compact(self) -> bool:
        """Compact when the WAL has outgrown ``snapshot_compact_every``."""
        limit = self.config.snapshot_compact_every
        if limit <= 0 or self._wal is None or self._wal.depth < limit:
            return False
        return self.compact()

    def compact(self) -> bool:
        """Fold the WAL into a fresh snapshot; ``False`` on failure.

        A failed (or fault-injected, point ``snapshot.compact``) run
        leaves the old snapshot + WAL fully intact -- the write is atomic
        and the WAL is only truncated after the rename lands -- so a kill
        mid-compact costs nothing but the retry.
        """
        t0 = time.perf_counter()
        try:
            self._policies.fire("snapshot.compact")
            self.write()
        except (FaultInjected, SnapshotError, OSError) as exc:
            self._m_compactions.labels(outcome="error").inc()
            self._policies.note_fallback("snapshot_compact_failed")
            self._log.warning(
                "snapshot.compact_failed", error=f"{type(exc).__name__}: {exc}"
            )
            return False
        elapsed = time.perf_counter() - t0
        self._m_compactions.labels(outcome="ok").inc()
        self._m_compact_seconds.observe(elapsed)
        self._log.info("snapshot.compact", ms=round(elapsed * 1000.0, 2))
        return True

    # -- introspection ---------------------------------------------------------

    def stats(self) -> Optional[Dict[str, object]]:
        """Summary for ``system.metrics()`` (None when snapshots are off)."""
        if not self.active:
            return None
        return {
            "mode": self.mode,
            "path": self.path,
            "served_from": self._served_from,
            "wal_depth": self.wal_depth,
            "generation": self.store.generation,
            "structure_generation": self.store.structure_generation,
        }

    def close(self) -> None:
        """Release the mmap (idempotent; part of system shutdown)."""
        with self._obs.span("snapshot.close"):
            if self._snapshot is not None:
                self._snapshot.close()
                self._snapshot = None
