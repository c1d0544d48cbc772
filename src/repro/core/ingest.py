"""The admin ingest pipeline (the left half of the Fig. 3 DFD).

``add_video`` runs the full chain the paper describes:

1. serialize the frames into an RVF blob (``VIDEO_STORE.VIDEO``);
2. extract key frames with the §4.1 threshold algorithm;
3. for each key frame: run every configured feature extractor, compute the
   §4.2 ``(min, max)`` index bucket, encode the frame as a PPM blob;
4. insert the ``KEY_FRAMES`` rows and mirror them into the in-memory
   feature store (whose bucket columns are the range index) -- all inside
   one transaction so a failing extractor leaves nothing half-ingested.

Step 3 is the CPU hot path -- the six ``TABLE1_FEATURES`` extractors over
every key frame -- and is pure per-frame computation, so it runs through
:func:`repro.core.lanes.analyse_frames`: the Gabor bank on the pool's
helper thread beside the rest, or fanned out over worker processes when
``config.workers > 1``.  The DB writes of step 4 stay in one transaction on
the calling thread either way, and the results are byte-identical to a
one-thread run.

The commits ``Ingestor`` writes are also how a store catches up with the
database: :func:`apply_commits` maps each logged add, delete and rename
back onto the calls ``Ingestor`` made on the live store.
"""

from __future__ import annotations

import datetime
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.catalog import FEATURE_COLUMNS
from repro.core.config import SystemConfig
from repro.core.lanes import analyse_frames
from repro.core.store import FeatureStore, FrameRecord, frame_record, video_motion
from repro.db import sql as ast
from repro.db.engine import Database
from repro.db.errors import DatabaseError
from repro.db.sql import build_insert
from repro.db.storage import Statement
from repro.features.base import FeatureExtractor, FeatureVector, get_extractor
from repro.imaging.image import Image
from repro.indexing.rangefinder import Bucket, RangeFinder
from repro.indexing.tree import RangeIndex
from repro.obs import NULL_OBS, Obs, log
from repro.resilience import NULL_POLICIES, ResiliencePolicies
from repro.runtime import WorkerPool, resolve_workers
from repro.video.codec import encode_rvf_bytes
from repro.video.keyframes import KeyFrameExtractor

if TYPE_CHECKING:  # pragma: no cover
    from repro.video.generator import SyntheticVideo

__all__ = ["Ingestor", "IngestReport", "apply_commits"]

#: a key frame's row parts besides its features: index bucket, MAJORREGIONS
#: when the regions feature is not configured (else None), PPM blob
RowParts = Tuple[Bucket, Optional[int], bytes]

# -- the statements Ingestor commits, and their replay onto a store ------------

_VIDEO_COLUMNS = ("V_ID", "V_NAME", "CATEGORY", "VIDEO", "MOTION", "DOSTORE")
#: a key frame's columns before its feature columns
_FRAME_COLUMNS = ("I_ID", "I_NAME", "IMAGE", "MIN", "MAX", "MAJORREGIONS", "V_ID")
_INSERT_VIDEO = build_insert("VIDEO_STORE", _VIDEO_COLUMNS)
_DELETE_FRAMES = "DELETE FROM KEY_FRAMES WHERE V_ID = ?"
_DELETE_VIDEO = "DELETE FROM VIDEO_STORE WHERE V_ID = ?"
_RENAME_VIDEO = "UPDATE VIDEO_STORE SET V_NAME = ? WHERE V_ID = ?"
#: the tables the feature store mirrors
_STORE_TABLES = frozenset({"VIDEO_STORE", "KEY_FRAMES"})


@lru_cache(maxsize=64)
def _parse(text: str) -> Tuple[ast.Statement, int]:
    return ast.parse(text)


def _table_of(text: str, params: Tuple) -> str:
    """The table a logged statement writes (its parameter count checked)."""
    stmt, n_params = _parse(text)
    if n_params != len(params):
        raise ValueError(f"statement has {n_params} parameter(s), {len(params)} logged")
    return stmt.schema.name if isinstance(stmt, ast.CreateTable) else stmt.table


def _video_id(value: object) -> int:
    """A logged ``WHERE V_ID = ?`` value as the store keys it; one that SQL
    would not match exactly (``2.5``, ``"2"``) raises."""
    if int(value) != value:
        raise ValueError(f"video id {value!r} is not an integer")
    return int(value)


def _frame_row(text: str, params: Tuple) -> Dict[str, object]:
    """The ``KEY_FRAMES`` row an ``Ingestor`` key-frame insert writes."""
    columns = getattr(_parse(text)[0], "columns", ())
    if columns[: len(_FRAME_COLUMNS)] != _FRAME_COLUMNS or text != build_insert(
        "KEY_FRAMES", columns
    ):
        raise ValueError(f"{text[:60]!r} is not a key-frame insert")
    return dict(zip(columns, params))


def apply_commits(
    store: FeatureStore,
    commits: Iterable[Sequence[Statement]],
    feature_names: Iterable[str],
) -> None:
    """Replay logged commits onto ``store`` through the calls ``Ingestor``
    makes after committing them, parsing the same feature strings.

    Writes to other tables pass.  Any other write to ``VIDEO_STORE`` or
    ``KEY_FRAMES`` -- or one that does not parse -- raises
    :class:`DatabaseError`, and the caller rebuilds from SQL instead.
    """
    feature_names = tuple(feature_names)
    for statements in commits:
        try:
            _apply_commit(store, statements, feature_names)
        except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
            raise DatabaseError(f"a logged commit does not replay: {exc}") from exc


def _apply_commit(
    store: FeatureStore, statements: Sequence[Statement], feature_names: Sequence[str]
) -> None:
    texts = [text for text, _params in statements]
    tables = {_table_of(text, params) for text, params in statements}
    if texts == [_RENAME_VIDEO]:
        name, video_id = statements[0][1]
        store.rename_video(_video_id(video_id), name)
    elif texts == [_DELETE_FRAMES, _DELETE_VIDEO] and statements[0][1] == statements[1][1]:
        store.remove_video(_video_id(statements[0][1][0]))
    elif texts[:1] == [_INSERT_VIDEO]:
        video = dict(zip(_VIDEO_COLUMNS, statements[0][1]))
        for text, params in statements[1:]:
            row = _frame_row(text, params)
            if row["V_ID"] != video["V_ID"]:
                raise ValueError(f"key frame {row['I_ID']!r} is not of video {video['V_ID']!r}")
            store.add(frame_record(row, video, feature_names))
        motion = video_motion(video) if len(statements) > 1 else None
        if motion is not None:
            store.set_video_motion(int(video["V_ID"]), motion)
    elif tables & _STORE_TABLES:
        raise ValueError(f"{texts[0][:60]!r} is not a write Ingestor makes")


def _row_parts(
    frame: Image, finder: RangeFinder, fallback_regions: Optional[FeatureExtractor]
) -> RowParts:
    """What ``_ingest_frame`` needs besides features and the DB.

    Module-level and side-effect free so a :class:`WorkerPool` can ship it
    to worker processes.
    """
    major_regions = None
    if fallback_regions is not None:
        major_regions = int(fallback_regions.extract(frame).values[2])
    return finder.bucket_for_image(frame), major_regions, frame.encode("ppm")


class _StageTimer:
    """Context manager pairing a span with a per-stage histogram sample."""

    __slots__ = ("_span", "_hist", "_label", "_t0")

    def __init__(self, span: object, hist: object, label: str):
        self._span = span
        self._hist = hist
        self._label = label
        self._t0 = 0.0

    def __enter__(self) -> "_StageTimer":
        self._t0 = time.perf_counter()
        self._span.__enter__()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._hist.labels(stage=self._label).observe(
            time.perf_counter() - self._t0
        )
        return bool(self._span.__exit__(*exc_info))


@dataclass(frozen=True)
class IngestReport:
    """What one ``add_video`` call produced."""

    video_id: int
    video_name: str
    n_frames: int
    keyframe_ids: List[int]

    @property
    def n_keyframes(self) -> int:
        return len(self.keyframe_ids)


class Ingestor:
    """Admin-side pipeline bound to one database + store + index."""

    def __init__(
        self,
        db: Database,
        config: SystemConfig,
        store: FeatureStore,
        index: RangeIndex,
        pool: Optional[WorkerPool] = None,
        obs: Obs = NULL_OBS,
        policies: ResiliencePolicies = NULL_POLICIES,
    ):
        self.db = db
        self.config = config
        self.store = store
        self.index = index
        self.extractors: Dict[str, FeatureExtractor] = {
            name: get_extractor(name) for name in config.features
        }
        self.keyframe_extractor = KeyFrameExtractor(
            threshold=config.keyframe_threshold,
            base_size=config.keyframe_base_size,
        )
        # regions is needed for the MAJORREGIONS column even if not an
        # active search feature
        self._fallback_regions = (
            None if "regions" in self.extractors else get_extractor("regions")
        )
        self._pool = pool or WorkerPool(workers=resolve_workers(config.workers))
        self._obs = obs
        self._policies = policies
        self._log = log.get_logger(__name__)
        self._m_videos = obs.counter(
            "repro_ingest_videos_total", "Videos ingested."
        )
        self._m_frames = obs.counter(
            "repro_ingest_frames_total", "Raw frames ingested."
        )
        self._m_keyframes = obs.counter(
            "repro_ingest_keyframes_total", "Key frames extracted and stored."
        )
        self._m_deletes = obs.counter(
            "repro_ingest_deletes_total", "Videos deleted."
        )
        self._m_renames = obs.counter(
            "repro_ingest_renames_total", "Videos renamed."
        )
        self._m_video_seconds = obs.histogram(
            "repro_ingest_video_seconds", "End-to-end add_video wall time."
        )
        self._m_stage_seconds = obs.histogram(
            "repro_ingest_stage_seconds",
            "Per-stage add_video wall time.",
            labelnames=("stage",),
        )
        self._m_extract_seconds = obs.histogram(
            "repro_ingest_extract_seconds",
            "Per-extractor wall time per key frame (measured in the worker).",
            labelnames=("feature",),
        )

    def close(self) -> None:
        """Tear down the worker pool and its helper thread."""
        self._pool.close()

    @staticmethod
    def _motion_descriptor(frames: Sequence[Image]) -> FeatureVector:
        """Clip-level motion activity (zeros for single-frame clips)."""
        import numpy as np

        from repro.video.motion import MOTION_DIMS, motion_activity

        if len(frames) < 2:
            values = np.zeros(MOTION_DIMS)
        else:
            values = motion_activity(frames)
        return FeatureVector(kind="motion", values=values, tag="MOTION")

    # -- id allocation ----------------------------------------------------------

    #: literal MAX() statements per id column (R4: no interpolated SQL)
    _MAX_ID_SQL = {
        ("VIDEO_STORE", "V_ID"): "SELECT MAX(V_ID) FROM VIDEO_STORE",
        ("KEY_FRAMES", "I_ID"): "SELECT MAX(I_ID) FROM KEY_FRAMES",
    }

    def _next_id(self, table: str, column: str) -> int:
        """1 + the column's max, via an aggregate instead of fetching rows."""
        result = self.db.execute(self._MAX_ID_SQL[(table, column)]).scalar()
        return 1 + (int(result) if result is not None else 0)

    # -- operations -----------------------------------------------------------------

    def add_video(
        self,
        video: Union[SyntheticVideo, Sequence[Image]],
        name: Optional[str] = None,
        category: Optional[str] = None,
        stored_on: Optional[datetime.date] = None,
    ) -> IngestReport:
        """Ingest a video (SyntheticVideo or a plain frame sequence)."""
        if hasattr(video, "frames"):  # a SyntheticVideo, told by its shape
            frames = list(video.frames)
            name = name or video.name
            category = category or video.category
        else:
            frames = list(video)
            if name is None:
                raise ValueError("a name is required when ingesting raw frames")
        if not frames:
            raise ValueError("cannot ingest an empty video")

        t_video = time.perf_counter()
        with self._policies.request_scope(), self._obs.span(
            "ingest.add_video", name=name, frames=len(frames)
        ) as root:
            video_id = self._next_id("VIDEO_STORE", "V_ID")
            next_frame_id = self._next_id("KEY_FRAMES", "I_ID")
            self._policies.check_stage("ingest.encode")
            with self._stage("encode"):
                video_blob = encode_rvf_bytes(frames)
            self._policies.check_stage("ingest.keyframes")
            with self._stage("keyframes"):
                key_frames = self.keyframe_extractor.extract(frames)
            stored_on = stored_on or datetime.date(2012, 10, 1)
            self._policies.check_stage("ingest.motion")
            with self._stage("motion"):
                motion = self._motion_descriptor(frames)

            # the analysis keeps key_frames' order, so ids and rows are
            # deterministic
            row_parts = partial(
                _row_parts,
                finder=self.index.finder,
                fallback_regions=self._fallback_regions,
            )
            self._policies.check_stage("ingest.features")
            with self._stage("features"):
                analysis = analyse_frames(
                    [frame for _index, frame in key_frames],
                    self.extractors,
                    self._pool,
                    per_frame=row_parts,
                )
            for per_feature in analysis.seconds:
                for feature, seconds in per_feature.items():
                    self._m_extract_seconds.labels(feature=feature).observe(seconds)

            new_records: List[FrameRecord] = []
            self._policies.check_stage("ingest.db_txn")
            before = self.db.commit_seq
            with self._stage("db_txn"):
                with self.db.transaction():
                    self.db.execute(
                        _INSERT_VIDEO,
                        (video_id, name, category, video_blob, motion.to_string(), stored_on),
                    )
                    for offset, ((frame_index, _frame), features, parts) in enumerate(
                        zip(key_frames, analysis.features, analysis.extras)
                    ):
                        record = self._ingest_frame(
                            next_frame_id + offset, video_id, name, category,
                            frame_index, features, parts,
                        )
                        new_records.append(record)

            # DB committed; now mirror into the store (the range index
            # reads the store's bucket columns)
            with self._stage("mirror"):
                for record in new_records:
                    self.store.add(record)
                self.store.set_video_motion(video_id, motion)
            self._mirrored(before)

            root.annotate(video_id=video_id, keyframes=len(new_records))
            elapsed = time.perf_counter() - t_video
            self._m_videos.inc()
            self._m_frames.inc(len(frames))
            self._m_keyframes.inc(len(new_records))
            self._m_video_seconds.observe(elapsed)
            self._log.info(
                "ingest.video",
                video_id=video_id,
                name=name,
                frames=len(frames),
                keyframes=len(new_records),
                ms=round(elapsed * 1000.0, 2),
            )
        return IngestReport(
            video_id=video_id,
            video_name=name,
            n_frames=len(frames),
            keyframe_ids=[r.frame_id for r in new_records],
        )

    def _mirrored(self, before: Optional[int]) -> None:
        """The store now holds the commit just made after ``before``: it is
        at the database's last commit, if it held every earlier one."""
        if before is not None and self.store.commit_seq == before:
            self.store.commit_seq = self.db.commit_seq

    def _stage(self, label: str) -> "_StageTimer":
        """A span + stage-histogram context manager for one pipeline stage."""
        return _StageTimer(
            self._obs.span(f"ingest.{label}"), self._m_stage_seconds, label
        )

    def _ingest_frame(
        self,
        frame_id: int,
        video_id: int,
        video_name: str,
        category: Optional[str],
        frame_index: int,
        features: Dict[str, FeatureVector],
        parts: RowParts,
    ) -> FrameRecord:
        """Write one precomputed key frame's row (DB work only)."""
        bucket, major_regions, ppm_blob = parts
        if major_regions is None:
            major_regions = int(features["regions"].values[2])
        frame_name = f"{video_name}_f{frame_index:04d}"

        columns = list(_FRAME_COLUMNS)
        values: List[object] = [
            frame_id,
            frame_name,
            ppm_blob,
            bucket.min,
            bucket.max,
            major_regions,
            video_id,
        ]
        for name, vector in features.items():
            columns.append(FEATURE_COLUMNS[name])
            values.append(vector.to_string())
        self.db.execute(build_insert("KEY_FRAMES", columns), tuple(values))
        return FrameRecord(
            frame_id=frame_id,
            video_id=video_id,
            video_name=video_name,
            frame_name=frame_name,
            category=category,
            bucket=bucket,
            features=features,
        )

    def delete_video(self, video_id: int) -> int:
        """Remove a video and its key frames; returns removed frame count."""
        rows = self.db.execute(
            "SELECT V_ID FROM VIDEO_STORE WHERE V_ID = ?", (video_id,)
        ).rows
        if not rows:
            raise DatabaseError(f"no video with id {video_id}")
        before = self.db.commit_seq
        with self.db.transaction():
            self.db.execute(_DELETE_FRAMES, (video_id,))
            self.db.execute(_DELETE_VIDEO, (video_id,))
        frame_ids = self.store.remove_video(video_id)
        self._mirrored(before)
        self._m_deletes.inc()
        self._log.info(
            "ingest.delete", video_id=video_id, frames=len(frame_ids)
        )
        return len(frame_ids)

    def rename_video(self, video_id: int, new_name: str) -> None:
        """Update V_NAME (metadata-only update; features are untouched)."""
        before = self.db.commit_seq
        count = self.db.execute(_RENAME_VIDEO, (new_name, video_id)).rowcount
        if count == 0:
            raise DatabaseError(f"no video with id {video_id}")
        self.store.rename_video(video_id, new_name)
        self._mirrored(before)
        self._m_renames.inc()
        self._log.info("ingest.rename", video_id=video_id, name=new_name)
