"""The :class:`VideoRetrievalSystem` facade.

Mirrors the paper's two-role design (Fig. 2 use cases, Fig. 4 block
diagram): an **administrator** manages the stored videos; a **user** only
searches.  Construction bootstraps the DB schema, and opening an existing
database adopts the in-memory feature store from the mmap snapshot, or
rebuilds it from the ``KEY_FRAMES`` table.

    system = VideoRetrievalSystem.in_memory()
    admin = system.login_admin()
    admin.add_video(my_video)
    results = system.search(query_frame, top_k=20)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from repro.core.catalog import bootstrap
from repro.core.config import SystemConfig
from repro.core.ingest import Ingestor, IngestReport
from repro.core.results import SearchResults
from repro.core.search import SearchEngine, VideoMatch
from repro.core.snapshots import SnapshotManager
from repro.core.store import FeatureStore
from repro.db.engine import Database
from repro.db.types import ORD_VIDEO
from repro.imaging.image import Image, decode_image
from repro.indexing.rangefinder import RangeFinder
from repro.indexing.tree import RangeIndex
from repro.obs import Obs
from repro.resilience import NULL_POLICIES, ResiliencePolicies
from repro.runtime import WorkerPool, resolve_workers

if TYPE_CHECKING:  # pragma: no cover
    from repro.video.generator import SyntheticVideo

__all__ = ["VideoRetrievalSystem", "AdminSession", "AuthenticationError"]


class AuthenticationError(Exception):
    """Wrong admin password."""


class AdminSession:
    """The administrator's view: full content management."""

    def __init__(self, system: "VideoRetrievalSystem"):
        self._system = system

    def add_video(self, video, name: Optional[str] = None, category: Optional[str] = None, **kwargs) -> IngestReport:
        return self._system._ingestor.add_video(video, name=name, category=category, **kwargs)

    def delete_video(self, video_id: int) -> int:
        return self._system._ingestor.delete_video(video_id)

    def rename_video(self, video_id: int, new_name: str) -> None:
        self._system._ingestor.rename_video(video_id, new_name)

    def checkpoint(self) -> None:
        """Write the store's image, then fold the database's log.

        In that order: a crash between the two leaves an image the log
        still reaches, so the next open serves from it.
        """
        if self._system.snapshots.active:
            self._system.snapshots.write()
        self._system.db.checkpoint()


class VideoRetrievalSystem:
    """End-to-end content-based video retrieval."""

    def __init__(self, db: Optional[Database] = None, config: Optional[SystemConfig] = None):
        self.config = config or SystemConfig()
        #: per-system observability facade; disabled it costs one no-op
        #: call per instrumentation point (see docs/observability.md)
        self.obs = Obs(
            enabled=self.config.obs_enabled,
            trace_buffer=self.config.obs_trace_buffer,
            slow_query_ms=self.config.obs_slow_query_ms,
            slow_log_size=self.config.obs_slow_log_size,
        )
        #: per-system resilience policies (retry/breakers/deadline/faults);
        #: disabled every hook is one early-out (see docs/resilience.md)
        self.resilience = (
            ResiliencePolicies.from_config(self.config, obs=self.obs)
            if self.config.resilience
            else NULL_POLICIES
        )
        self.db = db or Database()
        self.db.attach_obs(self.obs)
        self.db.attach_resilience(self.resilience)
        bootstrap(self.db)
        self._store = FeatureStore()
        finder = RangeFinder(
            first_threshold=self.config.index_first_threshold,
            threshold=self.config.index_threshold,
            max_level=self.config.index_max_level,
        )
        # a view of the store's bucket columns: it follows every write
        self._index = RangeIndex(finder, self._store)
        # one worker pool shared by ingest and search (lazy: serial configs
        # never spawn processes)
        self._pool = WorkerPool(workers=resolve_workers(self.config.workers))
        self._pool.attach_obs(self.obs)
        self._pool.attach_resilience(self.resilience)
        self._ingestor = Ingestor(
            self.db, self.config, self._store, self._index, pool=self._pool,
            obs=self.obs, policies=self.resilience,
        )
        self._engine = SearchEngine(
            self.config, self._store, self._index, pool=self._pool, obs=self.obs,
            policies=self.resilience,
        )
        #: mmap snapshot serving: open the on-disk index image when one is
        #: valid, rebuild from SQL otherwise (see docs/snapshot.md)
        self.snapshots = SnapshotManager(
            self.config, self.db, self._store, obs=self.obs,
            policies=self.resilience,
        )
        self.snapshots.attach_engine(self._engine)
        if not self.snapshots.try_open():  # else: the columns came off the mmap
            self._store.rebuild_from_db(self.db, list(self.config.features))
        self._store.commit_seq = self.db.commit_seq

    # -- constructors ----------------------------------------------------------

    @classmethod
    def in_memory(cls, config: Optional[SystemConfig] = None) -> "VideoRetrievalSystem":
        """A volatile system (no files touched)."""
        return cls(Database(), config)

    @classmethod
    def open(cls, path, config: Optional[SystemConfig] = None) -> "VideoRetrievalSystem":
        """A durable system at ``path`` (snapshot + WAL)."""
        return cls(Database.open(path), config)

    # -- engine attachment -----------------------------------------------------

    @property
    def engine(self):
        """The query engine currently serving :meth:`search` (read access)."""
        return self._engine

    @property
    def feature_store(self) -> FeatureStore:
        """The live in-memory feature store (read access for tooling).

        Mutations belong to :class:`AdminSession`; this accessor exists
        for read-side tooling -- the shard splitter, evaluation scripts --
        that needs the records without re-parsing the database.
        """
        return self._store

    def attach_engine(self, engine) -> None:
        """Swap the query engine serving :meth:`search` / :meth:`search_by_video`.

        The hook the sharded scatter-gather coordinator (and any future
        engine variant) binds through -- ``repro.core`` sits below those
        layers in the architecture DAG, so they push themselves in rather
        than being imported here.  The engine must expose the
        :class:`~repro.core.search.SearchEngine` query surface; it is
        closed with the system.  The previous engine stays usable (it
        shares this system's store and pool) but stops receiving queries.
        """
        self._engine = engine
        self.snapshots.attach_engine(engine)

    # -- roles ----------------------------------------------------------------------

    def login_admin(self, password: Optional[str] = None) -> AdminSession:
        """Authenticate as administrator (open access if no password set)."""
        if self.config.admin_password is not None and password != self.config.admin_password:
            raise AuthenticationError("wrong administrator password")
        return AdminSession(self)

    @property
    def admin(self) -> AdminSession:
        """Shortcut for systems without a password."""
        return self.login_admin()

    # -- user API ----------------------------------------------------------------------

    def search(
        self,
        image: Image,
        features: Optional[Sequence[str]] = None,
        top_k: int = 20,
        use_index: Optional[bool] = None,
    ) -> SearchResults:
        """Query by frame; see :meth:`SearchEngine.query_frame`."""
        return self._engine.query_frame(image, features=features, top_k=top_k, use_index=use_index)

    def search_by_video(
        self,
        video: Union[SyntheticVideo, Sequence[Image]],
        features: Optional[Sequence[str]] = None,
        top_k: int = 10,
    ) -> List[VideoMatch]:
        """Query by clip; see :meth:`SearchEngine.query_video`."""
        return self._engine.query_video(video, features=features, top_k=top_k)

    def search_by_name(self, pattern: str) -> List[dict]:
        """Metadata search over video names (SQL LIKE pattern)."""
        return self.db.execute(
            "SELECT V_ID, V_NAME, CATEGORY FROM VIDEO_STORE WHERE V_NAME LIKE ? ORDER BY V_ID",
            (pattern,),
        ).rows

    # -- content access -----------------------------------------------------------------------

    def list_videos(self) -> List[dict]:
        return self.db.execute(
            "SELECT V_ID, V_NAME, CATEGORY, DOSTORE FROM VIDEO_STORE ORDER BY V_ID"
        ).rows

    def n_videos(self) -> int:
        return len(self.list_videos())

    def n_key_frames(self) -> int:
        return len(self._store)

    def get_video_frames(self, video_id: int) -> List[Image]:
        """Decode the stored RVF blob back into frames (Fig. 10's player)."""
        rows = self.db.execute(
            "SELECT VIDEO FROM VIDEO_STORE WHERE V_ID = ?", (video_id,)
        ).rows
        if not rows or rows[0]["VIDEO"] is None:
            raise KeyError(f"no stored video with id {video_id}")
        blob = rows[0]["VIDEO"]
        frames = self.resilience.run("codec.decode", lambda: ORD_VIDEO.decode(blob))
        return list(frames)

    def get_key_frame(self, frame_id: int) -> Image:
        """Decode one stored key-frame image."""
        rows = self.db.execute(
            "SELECT IMAGE FROM KEY_FRAMES WHERE I_ID = ?", (frame_id,)
        ).rows
        if not rows or rows[0]["IMAGE"] is None:
            raise KeyError(f"no key frame with id {frame_id}")
        return decode_image(rows[0]["IMAGE"])

    def key_frames_of(self, video_id: int):
        """FrameRecords of one video, in temporal order."""
        return self._store.frames_of_video(video_id)

    def any_key_frame(self) -> Image:
        """An arbitrary stored key frame (handy for demos and tests)."""
        ids = self._store.frame_ids()
        if not ids:
            raise KeyError("the system holds no key frames yet")
        return self.get_key_frame(ids[0])

    # -- observability ------------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """One snapshot of every live counter the system keeps.

        The unified stats surface: per-subsystem summaries under
        ``store`` / ``index`` / ``ann`` / ``cache`` / ``snapshot``
        (``ann`` is None when ``config.ann`` is off, ``snapshot`` when
        snapshots are), plus the full metrics registry under
        ``registry`` (same data ``GET /metrics`` renders as Prometheus
        text).  Only :meth:`index_stats` sits beside it, for the bucket
        sizes this summary leaves out.
        """
        index = self._index.stats()
        return {
            "store": {
                "videos": self.n_videos(),
                "key_frames": len(self._store),
                "generation": self._store.generation,
            },
            "index": {
                "entries": index.n_entries,
                "buckets": index.n_buckets,
                "mean_bucket_size": index.mean_bucket_size,
            },
            "ann": self._engine.ann_stats(),
            "cache": self._engine.cache_stats(),
            "snapshot": self.snapshots.stats(),
            "sharding": self._sharding_summary(),
            "resilience": self._resilience_summary(),
            "slow_log": self._slow_log_summary(),
            "registry": self.obs.registry.render_json(),
        }

    def _slow_log_summary(self) -> Optional[Dict[str, Any]]:
        """Slow-query ring-buffer stats (None when the log is disabled).

        Includes the buffered entries under ``recent`` so dump-mode
        ``repro stats --slow`` works from a saved :meth:`metrics` JSON.
        """
        stats = self.obs.slow_log.stats()
        if stats is None:
            return None
        stats["recent"] = self.obs.slow_log.recent()
        return stats

    def _sharding_summary(self) -> Optional[Dict[str, Any]]:
        """Shard topology of the attached engine (None when unsharded).

        Duck-typed on purpose: ``repro.core`` cannot import the sharding
        layer, so any engine exposing ``sharding_stats()`` reports here.
        """
        stats_fn = getattr(self._engine, "sharding_stats", None)
        return stats_fn() if callable(stats_fn) else None

    def _resilience_summary(self) -> Dict[str, Any]:
        """Flat resilience snapshot for :meth:`metrics` / ``repro stats``."""
        stats = self.resilience.stats()
        flat: Dict[str, Any] = {
            "enabled": stats["enabled"],
            "armed_points": len(stats["faults"]),
            "faults_fired": sum(s["fired"] for s in stats["faults"].values()),
        }
        for name, breaker in stats["breakers"].items():
            flat[f"{name}_breaker_state"] = breaker["state"]
            flat[f"{name}_breaker_trips"] = breaker["trips"]
        return flat

    def recent_traces(self, limit: Optional[int] = None) -> List[dict]:
        """The most recent root traces, newest first (empty when disabled)."""
        return self.obs.recent_traces(limit)

    def slow_queries(self, limit: Optional[int] = None) -> List[dict]:
        """Slow-query entries, newest first (empty when the log is off)."""
        return self.obs.slow_log.recent(limit)

    def index_stats(self):
        """Range-index occupancy (rich :class:`IndexStats` snapshot)."""
        return self._index.stats()

    def write_snapshot(self) -> str:
        """Write the store's mmap snapshot now; returns its path."""
        return self.snapshots.write()

    def close(self) -> None:
        # the engine owns per-engine resources (a sharded coordinator's
        # worker pools and partition mmaps); the default engine shares
        # self._pool, whose close is idempotent
        self._engine.close()
        self._pool.close()
        self.snapshots.close()
        self.db.close()
