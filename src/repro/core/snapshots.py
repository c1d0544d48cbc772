"""Store-level snapshot management: mmap cold start, caught up from the SQL log.

:mod:`repro.snapshot` owns the bytes; this module translates them to and
from live objects.  :class:`SnapshotManager` **writes** the image of the
live store, stamped with the library's token, the database commit the store
holds and the log's name, and **opens** it: the store adopts the mmap
sections as its columns (queries serve straight off the page cache) with
the recorded generation counters, applies the commits the log holds after
the stamp (:func:`~repro.core.ingest.apply_commits`, the same feature
strings the SQL rebuild parses, so the result is bitwise that rebuild) and
hands the IVF coarse quantizer its trained state.

The database log is the library's one history and the image a cache of it:
fresh when its token is the database's and its commit lies between the
log's base and the database's last commit.  A read replica (no database)
reads the same tail from the log the image names.  Anything else -- a
missing, corrupt or version-skewed file, a stamp the log no longer
reaches, a logged write the store cannot replay -- rebuilds from SQL,
counted in ``repro_snapshot_opens_total{outcome="rebuild"}``;
``snapshot="require"`` turns that fallback into a hard error for read
replicas that must never touch the database.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.catalog import FEATURE_COLUMNS
from repro.core.ingest import apply_commits
from repro.core.store import FeatureColumn, FeatureStore, FrameColumns, VideoInfo
from repro.db.errors import DatabaseError, StorageError
from repro.db.storage import Log, Statement, read_log
from repro.features.base import FeatureVector
from repro.obs import NULL_OBS, Obs, log
from repro.resilience import NULL_POLICIES, FaultInjected, ResiliencePolicies
from repro.snapshot import CorruptSnapshotError, Snapshot, SnapshotError, write_snapshot

__all__ = [
    "SnapshotManager",
    "SnapshotRequiredError",
    "build_snapshot_payload",
    "load_snapshot_into_store",
    "named_log",
    "open_snapshot_store",
]

#: snapshot meta discriminator (a repro.snapshot file could hold anything)
_META_KIND = "cbvr-store"

Commits = List[List[Statement]]


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
    """Restore the frame population from an open snapshot (no tail yet).

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


def named_log(snap: Snapshot) -> Optional[Log]:
    """The log an image's stamp names (beside the image), read; None when
    the image is unstamped or the log is not there."""
    name = snap.meta.get("log")
    if name is None:
        return None
    return read_log(os.path.join(os.path.dirname(snap.path), str(name)))


def _replica_tail(snap: Snapshot) -> Optional[Commits]:
    """What a reader without the database replays: the named log's
    commits after the stamp (None when there is no log to read)."""
    found = named_log(snap)
    if found is None:
        return None
    return found.after(str(snap.meta.get("token")), int(snap.meta["commit_seq"]))


def open_snapshot_store(path: str) -> Tuple[Snapshot, FeatureStore]:
    """Open a snapshot, caught up from its log, into a fresh read-replica store.

    The pure-mmap analogue of :meth:`SnapshotManager.try_open` for callers
    that have only a snapshot file and no database -- shard workers and the
    scatter-gather coordinator.  No fallback: a missing or corrupt file, or
    a log the store cannot catch up from, raises, because a replica
    silently serving the wrong partition would corrupt merged rankings.
    The caller owns closing the returned :class:`~repro.snapshot.Snapshot`
    (the store's columns view its mmap).
    """
    snap = Snapshot.open(path)
    try:
        store = FeatureStore()
        tail = _replica_tail(snap)
        load_snapshot_into_store(snap, store)
        apply_commits(store, tail or [], FEATURE_COLUMNS)
    except Exception:
        snap.close()
        raise
    return snap, store


# -- the manager ---------------------------------------------------------------


class SnapshotManager:
    """Owns one system's snapshot file: opens, catches up and rewrites it."""

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
        self._served_from = "none"
        #: the commit the image in use holds (None: unstamped, or none)
        self._image_seq: Optional[int] = None
        #: a replica's last commit, from the log it read at open
        self._replica_head: Optional[int] = None
        self._m_opens = obs.counter(
            "repro_snapshot_opens_total",
            "System cold starts by source (mmap snapshot vs SQL rebuild).",
            labelnames=("outcome",),
        )
        self._m_open_seconds = obs.histogram(
            "repro_snapshot_open_seconds",
            "Snapshot open + log tail replay wall time.",
        )
        self._m_writes = obs.counter(
            "repro_snapshot_writes_total", "Full snapshot files written."
        )

    @property
    def active(self) -> bool:
        """Whether this system participates in snapshot serving at all."""
        return self.mode != "off" and self.path is not None

    @property
    def served_from(self) -> str:
        """How this process started: ``mmap``, ``rebuild``, or ``none``."""
        return self._served_from

    def attach_engine(self, engine) -> None:
        """Bind the search engine (its IVF index rides in the snapshot)."""
        self._engine = engine

    # -- opening ---------------------------------------------------------------

    def try_open(self) -> bool:
        """Serve from the snapshot; ``False`` -> caller rebuilds from SQL.

        On any failure in ``auto`` mode -- missing file, checksum mismatch,
        foreign version/endianness, a stamp this history does not reach, or
        a logged commit the store cannot replay -- the store is left empty,
        a fallback is counted, and the caller runs the usual SQL rebuild.
        ``require`` escalates the same failures to
        :class:`SnapshotRequiredError`.
        """
        if not self.active:
            self._served_from = "rebuild"
            return False
        t0 = time.perf_counter()
        try:
            self._policies.fire("snapshot.open")
            snap = Snapshot.open(self.path)
            tail = self._tail(snap)
            load_snapshot_into_store(snap, self.store)
            apply_commits(self.store, tail or [], self.config.features)
        except FileNotFoundError:
            return self._open_failed("missing snapshot file")
        except (
            SnapshotError, DatabaseError, FaultInjected, KeyError, ValueError, TypeError
        ) as exc:
            # malformed meta surfaces as KeyError/ValueError; a partially
            # replayed store is discarded before the SQL rebuild
            self.store.clear()
            return self._open_failed(f"{type(exc).__name__}: {exc}")
        self._snapshot = snap
        self._served_from = "mmap"
        self._image_seq = snap.meta.get("commit_seq")
        if not self.db.is_durable and tail is not None:
            self._replica_head = self._image_seq + len(tail)
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
        self._log.info(
            "snapshot.open",
            path=self.path,
            frames=len(self.store),
            commits=len(tail or []),
            ms=round(elapsed * 1000.0, 2),
        )
        return True

    def _tail(self, snap: Snapshot) -> Optional[Commits]:
        """The commits the image misses; raises when this history cannot
        say what they are.  A durable library takes them from its own log
        and refuses an image without its stamp."""
        if not self.db.is_durable:
            return _replica_tail(snap)
        meta = snap.meta
        if meta.get("token") != self.db.token:
            raise CorruptSnapshotError(f"{snap.path}: not an image of this library")
        seq = int(meta["commit_seq"])
        if seq == self.db.commit_seq:
            return []
        found = read_log(self.db.log_path)
        if found is None:
            raise StorageError(f"no log to catch up from commit {seq}")
        return found.after(self.db.token, seq)

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

    # -- writing ---------------------------------------------------------------

    def write(self) -> str:
        """Write a full snapshot of the live store (and IVF) right now.

        Atomic (tmp + rename).  A store that mirrors a durable database is
        stamped with the last commit it holds; this is both the explicit
        ``repro snapshot write`` and the ``checkpoint()`` path.
        """
        if self.path is None:
            raise SnapshotError(
                "no snapshot path: pass SystemConfig(snapshot_path=...) or "
                "open a durable database"
            )
        ivf = self._engine.ann if self._engine is not None else None
        arrays, meta = build_snapshot_payload(self.store, ivf)
        if self.store.commit_seq is not None:
            image_dir = os.path.dirname(os.path.abspath(self.path))
            meta.update(
                token=self.db.token,
                commit_seq=self.store.commit_seq,
                log=os.path.relpath(self.db.log_path, image_dir),
            )
        write_snapshot(self.path, arrays, meta)
        self._image_seq = self.store.commit_seq
        self._m_writes.inc()
        self._log.info(
            "snapshot.write", path=self.path, frames=len(self.store)
        )
        return self.path

    # -- introspection ---------------------------------------------------------

    def stats(self) -> Optional[Dict[str, object]]:
        """Summary for ``system.metrics()`` (None when snapshots are off)."""
        if not self.active:
            return None
        out: Dict[str, object] = {
            "mode": self.mode,
            "path": self.path,
            "served_from": self._served_from,
            "commit_seq": self._image_seq,
            "generation": self.store.generation,
            "structure_generation": self.store.structure_generation,
        }
        head = self.db.commit_seq if self.db.is_durable else self._replica_head
        if self._image_seq is not None and head is not None:
            out["commits_behind"] = head - self._image_seq
        return out

    def close(self) -> None:
        """Release the mmap (idempotent; part of system shutdown)."""
        with self._obs.span("snapshot.close"):
            if self._snapshot is not None:
                self._snapshot.close()
                self._snapshot = None
