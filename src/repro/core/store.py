"""In-memory feature store mirroring the KEY_FRAMES table.

Search must compare the query against every candidate's feature vectors;
re-parsing feature strings out of the DB on every query would dominate
latency, so the system keeps this write-through cache: ingest updates it
and the DB together, and on open it is rebuilt from the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.catalog import FEATURE_COLUMNS
from repro.db.engine import Database
from repro.features.base import FeatureExtractor, FeatureVector
from repro.indexing.rangefinder import Bucket

__all__ = ["FrameRecord", "FeatureStore"]


@dataclass(frozen=True)
class FrameRecord:
    """One key frame's metadata + parsed feature vectors."""

    frame_id: int
    video_id: int
    video_name: str
    frame_name: str
    category: Optional[str]
    bucket: Bucket
    # usually a plain dict; snapshot-backed records use a lazy Mapping that
    # materializes FeatureVectors from mmap rows on first access
    features: Mapping[str, FeatureVector] = field(default_factory=dict)


class FeatureStore:
    """frame_id -> FrameRecord, with per-video grouping.

    Two monotonic counters expose mutation state to the layers above:
    :attr:`generation` moves on *any* visible change (query caches key on
    it), :attr:`structure_generation` only when the frame population
    changes (the ANN index and the internal matrix/id caches sync on it).
    Bumping a counter is O(1), so bulk ingest pays one lazy cache rebuild
    at the next query instead of one invalidation per insert.
    """

    def __init__(self):
        self._frames: Dict[int, FrameRecord] = {}
        self._by_video: Dict[int, List[int]] = {}
        # clip-level motion descriptors (extension; see repro.video.motion)
        self._video_motion: Dict[int, FeatureVector] = {}
        # feature name -> stacked matrix over all frames in id order;
        # built lazily by feature_matrix, revalidated by generation
        self._matrix_cache: Dict[str, np.ndarray] = {}
        # feature name -> extractor-prepared full stack; the single source
        # of truth every SearchEngine sharing this store draws from, so
        # snapshot generation, cache generation, and ANN retrain key off
        # the same structure_generation (they can't skew)
        self._prepared_cache: Dict[str, np.ndarray] = {}
        self._generation = 0
        self._structure_generation = 0
        # structure generation the matrix/id caches were built at
        self._cache_generation = -1
        self._ids_cache: Tuple[int, ...] = ()
        self._ids_arr: np.ndarray = np.empty(0, dtype=np.int64)

    @property
    def generation(self) -> int:
        """Bumped on every mutation (adds, removals, renames, motion)."""
        return self._generation

    @property
    def structure_generation(self) -> int:
        """Bumped only when frames are added or removed."""
        return self._structure_generation

    def _mutated(self, structural: bool = False) -> None:
        self._generation += 1
        if structural:
            self._structure_generation += 1

    def _sync_caches(self) -> None:
        if self._cache_generation != self._structure_generation:
            self._matrix_cache.clear()
            self._prepared_cache.clear()
            self._ids_cache = tuple(sorted(self._frames))
            self._ids_arr = np.asarray(self._ids_cache, dtype=np.int64)
            self._cache_generation = self._structure_generation

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, frame_id: int) -> bool:
        return frame_id in self._frames

    def get(self, frame_id: int) -> FrameRecord:
        return self._frames[frame_id]

    def frame_ids(self) -> List[int]:
        self._sync_caches()
        return list(self._ids_cache)

    def video_ids(self) -> List[int]:
        return sorted(self._by_video)

    def frames_of_video(self, video_id: int) -> List[FrameRecord]:
        """The video's key frames in frame-id (i.e. temporal) order."""
        return [self._frames[i] for i in sorted(self._by_video.get(video_id, []))]

    def video_spans(
        self, video_ids: Optional[Sequence[int]] = None
    ) -> Tuple[List[FrameRecord], Dict[int, slice]]:
        """Key frames in video-major order, and each video's slice of it.

        Videos ascending by id (or as listed), frames in temporal order
        within each: the column order of every clip-query cost matrix, on
        the engine, the shard workers and the coordinator alike.
        """
        records: List[FrameRecord] = []
        spans: Dict[int, slice] = {}
        for video_id in self.video_ids() if video_ids is None else video_ids:
            frames = self.frames_of_video(video_id)
            spans[video_id] = slice(len(records), len(records) + len(frames))
            records.extend(frames)
        return records, spans

    # -- mutation -------------------------------------------------------------

    def add(self, record: FrameRecord) -> None:
        if record.frame_id in self._frames:
            raise KeyError(f"frame id {record.frame_id} already in store")
        self._frames[record.frame_id] = record
        self._by_video.setdefault(record.video_id, []).append(record.frame_id)
        self._mutated(structural=True)

    def remove_video(self, video_id: int) -> List[int]:
        """Drop every frame of a video; returns the removed frame ids."""
        frame_ids = self._by_video.pop(video_id, [])
        for fid in frame_ids:
            del self._frames[fid]
        self._video_motion.pop(video_id, None)
        if frame_ids:
            self._mutated(structural=True)
        return frame_ids

    def rename_video(self, video_id: int, new_name: str) -> int:
        """Rewrite ``video_name`` on the video's records (metadata only).

        Feature vectors and buckets are untouched, so the stacked-matrix
        cache stays valid.  Returns the number of affected frames.
        """
        frame_ids = self._by_video.get(video_id, [])
        for fid in frame_ids:
            self._frames[fid] = replace(self._frames[fid], video_name=new_name)
        if frame_ids:
            self._mutated()
        return len(frame_ids)

    def clear(self) -> None:
        self._frames.clear()
        self._by_video.clear()
        self._video_motion.clear()
        self._matrix_cache.clear()
        self._prepared_cache.clear()
        self._mutated(structural=True)

    # -- stacked feature matrices ------------------------------------------------

    def feature_matrix(
        self, name: str, frame_ids: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """The frames' ``name`` vectors stacked into an ``(n, d)`` matrix.

        Row ``i`` is ``frame_ids[i]``'s vector (all frames in id order when
        ``frame_ids`` is None).  The full stack is cached per feature and
        lazily rebuilt when :attr:`structure_generation` has moved since it
        was built; subsets are row gathers from that cache through
        :meth:`matrix_rows`.  Raises ``KeyError`` for an unknown frame id
        or a frame missing the feature.
        """
        self._sync_caches()
        base = self._matrix_cache.get(name)
        if base is None:
            vectors = [self._frames[fid].features[name].values for fid in self._ids_cache]
            if vectors:
                base = np.stack(vectors).astype(np.float64, copy=False)
            else:
                base = np.empty((0, 0), dtype=np.float64)
            base.setflags(write=False)
            self._matrix_cache[name] = base
        if frame_ids is None:
            return base
        rows = self.gather_rows(frame_ids)
        return base if rows is None else base[rows]

    def prepared_matrix(self, name: str, extractor: FeatureExtractor) -> np.ndarray:
        """The feature's extractor-prepared full stack, cached per structure.

        This is the one ``structure_generation``-keyed prepared-matrix
        cache in the system: search engines delegate here instead of
        keeping tuple-keyed copies, so every consumer of the stack
        invalidates on exactly the same counter as :meth:`feature_matrix`
        and the ANN retrain.  Row ``i`` describes frame ``frame_ids()[i]``
        (preparation commutes with row gathers, see
        ``FeatureExtractor.prepare_matrix``).
        """
        self._sync_caches()
        prepared = self._prepared_cache.get(name)
        if prepared is None:
            prepared = extractor.prepare_matrix(self.feature_matrix(name))
            prepared.setflags(write=False)
            self._prepared_cache[name] = prepared
        return prepared

    def matrix_rows(self, frame_ids: Sequence[int]) -> np.ndarray:
        """Row positions of ``frame_ids`` in the id-ordered stacked matrices.

        The stacks of :meth:`feature_matrix` hold frames in ascending-id
        order, so the id -> row mapping is a binary search.  Raises
        ``KeyError`` for an id not in the store.
        """
        self._sync_caches()
        wanted = np.asarray(frame_ids, dtype=np.int64)
        if wanted.size == 0:
            return np.empty(0, dtype=np.int64)
        id_arr = self._ids_arr
        if id_arr.size:
            pos = np.searchsorted(id_arr, wanted)
            pos = np.minimum(pos, id_arr.size - 1)
            ok = id_arr[pos] == wanted
            if bool(np.all(ok)):
                return pos
            bad = wanted[~ok][0]
        else:
            bad = wanted[0]
        raise KeyError(int(bad))

    def gather_rows(self, frame_ids: Sequence[int]) -> Optional[np.ndarray]:
        """:meth:`matrix_rows`, or None when that is every row in stack order."""
        rows = self.matrix_rows(frame_ids)
        if rows.size == self._ids_arr.size and np.array_equal(rows, np.arange(rows.size)):
            return None
        return rows

    # -- clip-level motion ------------------------------------------------------

    def set_video_motion(self, video_id: int, descriptor: FeatureVector) -> None:
        self._video_motion[video_id] = descriptor

    def video_motion(self, video_id: int) -> Optional[FeatureVector]:
        return self._video_motion.get(video_id)

    # -- snapshot loading --------------------------------------------------------

    def load_snapshot_state(
        self,
        records: Iterable[FrameRecord],
        video_motion: Mapping[int, FeatureVector],
        generation: int,
        structure_generation: int,
    ) -> None:
        """Adopt a snapshot's frame population and its recorded counters.

        Unlike :meth:`rebuild_from_db` + :meth:`add` loops, this restores
        :attr:`generation` / :attr:`structure_generation` to the values
        the snapshot was written at, so query-cache keys and ANN sync
        state computed before the process restarted stay byte-correct
        relative to the WAL entries replayed on top.
        """
        self._frames = {r.frame_id: r for r in records}
        self._by_video = {}
        for fid in sorted(self._frames):
            record = self._frames[fid]
            self._by_video.setdefault(record.video_id, []).append(fid)
        self._video_motion = dict(video_motion)
        self._matrix_cache.clear()
        self._prepared_cache.clear()
        self._generation = generation
        self._structure_generation = structure_generation
        self._ids_cache = tuple(sorted(self._frames))
        self._ids_arr = np.asarray(self._ids_cache, dtype=np.int64)
        self._cache_generation = structure_generation

    def seed_matrix(self, name: str, matrix: np.ndarray) -> None:
        """Install a prebuilt id-ordered full stack (e.g. an mmap view).

        ``matrix`` row ``i`` must hold ``frame_ids()[i]``'s vector -- the
        exact layout :meth:`feature_matrix` would build.  Seeding an mmap
        view means queries serve straight off the page cache; the seed
        is discarded like any cache entry once the structure mutates.
        """
        self._sync_caches()
        if matrix.shape[0] != len(self._ids_cache):
            raise ValueError(
                f"seed matrix for {name!r} has {matrix.shape[0]} rows, "
                f"store has {len(self._ids_cache)} frames"
            )
        if matrix.flags.writeable:  # np.memmap mode="r" views already aren't
            matrix.setflags(write=False)
        self._matrix_cache[name] = matrix

    # -- rebuild -----------------------------------------------------------------

    def rebuild_from_db(self, db: Database, feature_names: Sequence[str]) -> None:
        """Repopulate from VIDEO_STORE + KEY_FRAMES (used by ``open``)."""
        self.clear()
        videos = {
            row["V_ID"]: row
            for row in db.execute(
                "SELECT V_ID, V_NAME, CATEGORY, MOTION FROM VIDEO_STORE"
            ).rows
        }
        for v_id, row in videos.items():
            if row.get("MOTION"):
                self._video_motion[int(v_id)] = FeatureVector.from_string(
                    "motion", row["MOTION"]
                )
        wanted = [(name, FEATURE_COLUMNS[name]) for name in feature_names]
        for row in db.execute("SELECT * FROM KEY_FRAMES").rows:
            features: Dict[str, FeatureVector] = {}
            for name, column in wanted:
                text = row.get(column)
                if text:
                    features[name] = FeatureVector.from_string(name, text)
            video = videos.get(row["V_ID"], {})
            self.add(
                FrameRecord(
                    frame_id=int(row["I_ID"]),
                    video_id=int(row["V_ID"]),
                    video_name=video.get("V_NAME", f"video_{row['V_ID']}"),
                    frame_name=row["I_NAME"],
                    category=video.get("CATEGORY"),
                    bucket=Bucket(int(row["MIN"]), int(row["MAX"])),
                    features=features,
                )
            )
