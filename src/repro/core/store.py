"""In-memory feature store mirroring the KEY_FRAMES table, as columns.

Search must compare the query against every candidate's feature vectors;
re-parsing feature strings out of the DB on every query would dominate
latency, so the system keeps this write-through mirror: ingest updates it
and the DB together, and on open it is adopted from the mmap snapshot (or
rebuilt from the table).

The arrays are the single source of truth.  Per frame, in ascending
frame-id order: the id, the video id, the §4.2 range-finder bucket
(``bucket_min`` / ``bucket_max``, the paper's ``MIN`` / ``MAX`` columns)
and the frame name; per video: name, category and motion; per feature: one
base matrix and one extractor-prepared matrix, row ``i`` describing frame
``ids[i]``.  A :class:`FrameRecord` is a view built on demand, the range
index is a comparison on the bucket columns
(:class:`~repro.indexing.tree.RangeIndex` holds nothing per frame), and a
write patches the columns instead of invalidating them.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field, replace
from typing import (
    Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.core.catalog import FEATURE_COLUMNS
from repro.db.engine import Database
from repro.db.errors import DatabaseError
from repro.features.base import FeatureExtractor, FeatureVector
from repro.indexing.rangefinder import Bucket

__all__ = [
    "FrameRecord", "VideoInfo", "FrameColumns", "FeatureColumn", "FeatureStore",
    "frame_record", "video_motion",
]


@dataclass(frozen=True)
class FrameRecord:
    """One key frame's metadata + feature vectors.

    Callers adding a frame pass ``features`` as a dict; records the store
    hands out carry a read-only mapping that reads the frame's row of the
    stacked matrices when a vector is asked for.
    """

    frame_id: int
    video_id: int
    video_name: str
    frame_name: str
    category: Optional[str]
    bucket: Bucket
    features: Mapping[str, FeatureVector] = field(default_factory=dict)


@dataclass(frozen=True)
class VideoInfo:
    """One row of the per-video table (``motion``: see repro.video.motion)."""

    name: str
    category: Optional[str]
    motion: Optional[FeatureVector] = None


class FrameColumns(NamedTuple):
    """The per-frame columns, frames ascending by id."""

    ids: np.ndarray
    video_ids: np.ndarray
    bucket_min: np.ndarray
    bucket_max: np.ndarray
    frame_names: np.ndarray


class FeatureColumn(NamedTuple):
    """One feature's vectors, stacked.

    ``rows`` is None when every frame carries the feature (``matrix`` is
    then the full stack, row ``i`` for frame ``ids[i]``); otherwise the
    ascending row positions of the frames that do, ``matrix`` holding just
    those rows.
    """

    matrix: np.ndarray
    tag: str
    rows: Optional[np.ndarray] = None


class _RowFeatures(MappingABC):
    """One frame's ``features``: row ``row`` of each feature's matrix.

    Holds the matrices, never the store (a store <-> view cycle would keep
    a closed system's stacks alive until the cyclic collector runs), and
    stays valid after later writes: the store appends into spare rows and
    otherwise replaces its arrays, it never rewrites a live row.
    """

    __slots__ = ("_matrices", "_row", "_vectors")

    def __init__(self, matrices: Mapping[str, Tuple[np.ndarray, str]], row: int):
        self._matrices = matrices
        self._row = row
        self._vectors: Dict[str, FeatureVector] = {}  # built so far

    def __getitem__(self, name: str) -> FeatureVector:
        vector = self._vectors.get(name)
        if vector is None:
            matrix, tag = self._matrices[name]
            vector = self._vectors[name] = FeatureVector(
                kind=name, values=matrix[self._row], tag=tag
            )
        return vector

    def items(self):
        if len(self._vectors) < len(self._matrices):
            self._vectors = {name: self[name] for name in self._matrices}
        return self._vectors.items()

    def __contains__(self, name: object) -> bool:
        return name in self._matrices

    def __iter__(self) -> Iterator[str]:
        return iter(self._matrices)

    def __len__(self) -> int:
        return len(self._matrices)


def frame_record(
    row: Mapping[str, object], video: Mapping[str, object], feature_names: Iterable[str]
) -> FrameRecord:
    """A ``KEY_FRAMES`` row as a record, named after its ``VIDEO_STORE``
    row (``{}`` when it has none): the one mapping of the SQL rebuild and
    of the log replay.  A malformed row raises :class:`DatabaseError`."""
    try:
        features = {
            name: FeatureVector.from_string(name, row[FEATURE_COLUMNS[name]])
            for name in feature_names
            if row.get(FEATURE_COLUMNS[name])
        }
        return FrameRecord(
            frame_id=int(row["I_ID"]),
            video_id=int(row["V_ID"]),
            video_name=video.get("V_NAME", f"video_{row['V_ID']}"),
            frame_name=row["I_NAME"],
            category=video.get("CATEGORY"),
            bucket=Bucket(int(row["MIN"]), int(row["MAX"])),
            features=features,
        )
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise DatabaseError(f"key frame {row.get('I_ID')!r}: {exc}") from exc


def video_motion(video: Mapping[str, object]) -> Optional[FeatureVector]:
    """A ``VIDEO_STORE`` row's motion descriptor (None when it has none);
    a malformed one raises :class:`DatabaseError`."""
    text = video.get("MOTION")
    if not text:
        return None
    try:
        return FeatureVector.from_string("motion", text)
    except (ValueError, AttributeError) as exc:
        raise DatabaseError(f"video {video.get('V_ID')!r} motion: {exc}") from exc


def _live(arr: np.ndarray, n: int) -> np.ndarray:
    """A read-only view of ``arr``'s first ``n`` rows."""
    view = arr[:n]
    view.setflags(write=False)
    return view


def _regrown(arr: np.ndarray, n: int, rows: int) -> np.ndarray:
    """A fresh array of ``rows`` rows holding ``arr``'s first ``n``."""
    out = np.empty((rows,) + arr.shape[1:], dtype=arr.dtype)
    out[:n] = arr[:n]
    return out


class FeatureStore:
    """Parallel per-frame columns + per-feature matrices, ascending by frame id.

    Two monotonic counters expose mutation state to the layers above:
    :attr:`generation` moves on *any* visible change (query caches key on
    it), :attr:`structure_generation` only when the frame population
    changes (the ANN index syncs on it).

    The columns and base matrices all have the same ``>= len(self)`` rows;
    those past ``len(self)`` are spare capacity, grown geometrically, so
    :meth:`add` is O(new rows) amortised.  Arrays adopted from a snapshot
    have no spare rows and are never written: the first write to such a
    store lands in a copy.
    """

    def __init__(self):
        self._generation = 0
        self._structure_generation = 0
        #: the last database commit this mirror holds, when it mirrors a
        #: durable database and has missed none (the snapshot stamp)
        self.commit_seq: Optional[int] = None
        self._reset()

    def _reset(self) -> None:
        self._n = 0
        self._ids = np.empty(0, dtype=np.int64)
        self._vids = np.empty(0, dtype=np.int64)
        self._bmin = np.empty(0, dtype=np.int64)
        self._bmax = np.empty(0, dtype=np.int64)
        self._names = np.empty(0, dtype=object)
        self._videos: Dict[int, VideoInfo] = {}
        #: feature name -> base matrix / string-form tag
        self._base: Dict[str, np.ndarray] = {}
        self._tags: Dict[str, str] = {}
        #: feature name -> which frames carry it; only for features some
        #: frame lacks (their matrix rows are zeros)
        self._present: Dict[str, np.ndarray] = {}
        #: feature name -> extractor-prepared matrix (None: the base matrix
        #: is its own prepared form) and how many leading rows are prepared
        self._prepared: Dict[str, Optional[np.ndarray]] = {}
        self._prepared_rows: Dict[str, int] = {}
        #: what record views read: ``_base`` + tags; replaced, never mutated
        self._row_matrices: Optional[Dict[str, Tuple[np.ndarray, str]]] = None

    @property
    def generation(self) -> int:
        """Bumped on every mutation (adds, removals, renames)."""
        return self._generation

    @property
    def structure_generation(self) -> int:
        """Bumped only when frames are added or removed."""
        return self._structure_generation

    def _mutated(self, structural: bool = False) -> None:
        self._generation += 1
        if structural:
            self._structure_generation += 1

    # -- columns -----------------------------------------------------------------

    @property
    def ids(self) -> np.ndarray:
        """The frame ids, ascending: row ``i`` of every matrix is ``ids[i]``."""
        return _live(self._ids, self._n)

    @property
    def columns(self) -> FrameColumns:
        """Read-only views of the per-frame columns."""
        n = self._n
        return FrameColumns(
            _live(self._ids, n), _live(self._vids, n), _live(self._bmin, n),
            _live(self._bmax, n), _live(self._names, n),
        )

    def feature_columns(self) -> Dict[str, FeatureColumn]:
        """Every stored feature's :class:`FeatureColumn`."""
        out: Dict[str, FeatureColumn] = {}
        for name, base in self._base.items():
            present = self._present.get(name)
            if present is None:
                out[name] = FeatureColumn(_live(base, self._n), self._tags[name])
            else:
                rows = np.flatnonzero(present[: self._n])
                out[name] = FeatureColumn(base[rows], self._tags[name], rows)
        return out

    def adopt(
        self,
        columns: FrameColumns,
        videos: Mapping[int, VideoInfo],
        features: Mapping[str, FeatureColumn],
        generation: int,
        structure_generation: int,
    ) -> None:
        """Become the given columns, without copying a full stack.

        The bulk entry, for a snapshot's mmap sections (or another store's
        :attr:`columns` / :meth:`feature_columns`, gathered or merged).
        ``columns.ids`` must be strictly ascending.  The counters are
        restored as given, so query-cache keys and ANN sync state computed
        before a restart stay correct relative to the logged commits
        replayed on top.
        """
        n = len(columns.ids)
        self._reset()
        self._n = n
        self._ids, self._vids, self._bmin, self._bmax, self._names = columns
        self._videos = dict(videos)
        for name, (matrix, tag, rows) in features.items():
            self._tags[name] = tag
            if rows is None:
                self._base[name] = matrix
            else:
                self._base[name] = np.zeros((n, matrix.shape[1]), dtype=np.float64)
                self._base[name][rows] = matrix
                self._present[name] = np.zeros(n, dtype=bool)
                self._present[name][rows] = True
        self._generation = generation
        self._structure_generation = structure_generation

    def take(self, rows: np.ndarray) -> "FeatureStore":
        """A new store of the frames at ``rows`` (ascending by frame id)
        and their videos, with the counters it would have had they been
        added one by one."""
        columns = FrameColumns(*(column[rows] for column in self.columns))
        features: Dict[str, FeatureColumn] = {}
        for name, base in self._base.items():
            present = self._present.get(name)
            carried = None if present is None else np.flatnonzero(present[rows])
            if carried is None or carried.size == rows.size:
                features[name] = FeatureColumn(base[rows], self._tags[name])
            elif carried.size:
                features[name] = FeatureColumn(base[rows[carried]], self._tags[name], carried)
        out = FeatureStore()
        out.adopt(
            columns,
            {vid: self._videos[vid] for vid in np.unique(columns.video_ids).tolist()},
            features,
            generation=len(rows),
            structure_generation=len(rows),
        )
        return out

    @classmethod
    def merged(cls, stores: Sequence["FeatureStore"]) -> "FeatureStore":
        """One store over the frames of ``stores``; a frame id two of them
        hold raises ``KeyError``, as :meth:`add` would."""
        joined = cls()
        if not stores:
            return joined
        columns = FrameColumns(
            *(np.concatenate(parts) for parts in zip(*(s.columns for s in stores)))
        )
        order = np.argsort(columns.ids, kind="stable")
        ids = columns.ids[order]
        clash = np.flatnonzero(ids[1:] == ids[:-1])
        if clash.size:
            raise KeyError(f"frame id {int(ids[clash[0]])} already in store")
        offsets = np.cumsum([0] + [len(s) for s in stores])
        per_store = [s.feature_columns() for s in stores]
        features: Dict[str, FeatureColumn] = {}
        for name in dict.fromkeys(name for found in per_store for name in found):
            blocks = [(off, found[name]) for off, found in zip(offsets, per_store) if name in found]
            carried = np.concatenate([
                off + (np.arange(len(col.matrix)) if col.rows is None else col.rows)
                for off, col in blocks
            ])
            features[name] = FeatureColumn(
                np.concatenate([col.matrix for _off, col in blocks]),
                blocks[0][1].tag,
                None if carried.size == ids.size else carried,
            )
        joined.adopt(  # store after store, not yet in id order: take() sorts
            columns,
            {vid: info for s in stores for vid, info in s._videos.items()},
            features,
            generation=0,
            structure_generation=0,
        )
        return joined.take(order)

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def _row_of(self, frame_id: int) -> int:
        """The frame's row, or -1."""
        ids = self._ids[: self._n]
        pos = int(np.searchsorted(ids, frame_id))
        return pos if pos < self._n and ids[pos] == frame_id else -1

    def __contains__(self, frame_id: int) -> bool:
        return self._row_of(frame_id) >= 0

    def get(self, frame_id: int) -> FrameRecord:
        row = self._row_of(frame_id)
        if row < 0:
            raise KeyError(frame_id)
        return self._record(row)

    def _record(self, row: int) -> FrameRecord:
        matrices = self._row_matrices
        if matrices is None:
            matrices = self._row_matrices = {
                name: (base, self._tags[name]) for name, base in self._base.items()
            }
        if self._present:
            matrices = {
                name: pair for name, pair in matrices.items()
                if name not in self._present or self._present[name][row]
            }
        video_id = int(self._vids[row])
        video = self._videos[video_id]
        return FrameRecord(
            frame_id=int(self._ids[row]),
            video_id=video_id,
            video_name=video.name,
            frame_name=self._names[row],
            category=video.category,
            bucket=Bucket(int(self._bmin[row]), int(self._bmax[row])),
            features=_RowFeatures(matrices, row),
        )

    def frame_ids(self) -> List[int]:
        return self._ids[: self._n].tolist()

    def video_ids(self) -> List[int]:
        return sorted(self._videos)

    def video(self, video_id: int) -> VideoInfo:
        return self._videos[video_id]

    def frames_of_video(self, video_id: int) -> List[FrameRecord]:
        """The video's key frames in frame-id (i.e. temporal) order."""
        rows = np.flatnonzero(self._vids[: self._n] == video_id)
        return [self._record(row) for row in rows.tolist()]

    def video_spans(self) -> Tuple[Optional[np.ndarray], Dict[int, slice]]:
        """Stack rows in video-major order, and each video's slice of them.

        Videos ascending by id, frames in temporal order within each: the
        column order of every clip-query cost matrix, on the engine and
        (restricted to a partition) on the shard workers alike.  The rows
        are None when that order is the stack order.
        """
        vids = self._vids[: self._n]
        order = np.argsort(vids, kind="stable")
        found, starts, counts = np.unique(vids[order], return_index=True, return_counts=True)
        spans = {
            video_id: slice(start, start + count)
            for video_id, start, count in zip(found.tolist(), starts.tolist(), counts.tolist())
        }
        if np.array_equal(order, np.arange(self._n)):
            return None, spans
        return order, spans

    # -- mutation -------------------------------------------------------------

    def _open_row(self, pos: int) -> None:
        """Replace every column and base matrix by a (geometrically
        larger) copy with row ``pos`` unused and rows ``pos..n-1`` moved
        up one -- live rows are never rewritten in place."""
        n = self._n
        capacity = max(16, 2 * n)  # spare rows are never touched: no resident cost

        def opened(arr: np.ndarray) -> np.ndarray:
            out = _regrown(arr, pos, capacity)
            out[pos + 1 : n + 1] = arr[pos:n]
            return out

        self._ids, self._vids = opened(self._ids), opened(self._vids)
        self._bmin, self._bmax = opened(self._bmin), opened(self._bmax)
        self._names = opened(self._names)
        for table in (self._base, self._present):
            for name in table:  # one at a time: at most one matrix is held twice
                table[name] = opened(table[name])
        self._row_matrices = None
        if pos < n:  # what was prepared past ``pos`` would have to move too
            self._prepared.clear()
            self._prepared_rows.clear()

    def add(self, record: FrameRecord) -> None:
        """Insert one frame at its sorted position (the end, for the
        ascending ids ingest hands out)."""
        n, frame_id = self._n, int(record.frame_id)
        pos = n
        if n and frame_id <= self._ids[n - 1]:
            pos = int(np.searchsorted(self._ids[:n], frame_id))
            if self._ids[pos] == frame_id:
                raise KeyError(f"frame id {frame_id} already in store")
        vectors = dict(record.features.items())
        for name, vector in vectors.items():
            base = self._base.get(name)
            if base is not None and base.shape[1] != vector.values.size:
                raise ValueError(
                    f"{name!r} vector has {len(vector)} values, the store holds {base.shape[1]}"
                )
        if pos < n or n == self._ids.shape[0]:
            self._open_row(pos)
        capacity = self._ids.shape[0]
        for name, vector in vectors.items():
            if name not in self._base:  # a feature no earlier frame carried
                self._base[name] = np.zeros((capacity, len(vector)), dtype=np.float64)
                self._tags[name] = vector.tag
                if n:
                    self._present[name] = np.zeros(capacity, dtype=bool)
                self._row_matrices = None
            self._base[name][pos] = vector.values
        if len(vectors) < len(self._base):
            for name, base in self._base.items():
                if name not in vectors:
                    base[pos] = 0.0
                    if name not in self._present:
                        self._present[name] = np.ones(capacity, dtype=bool)
        for name, present in self._present.items():
            present[pos] = name in vectors
        self._ids[pos], self._vids[pos] = frame_id, record.video_id
        self._bmin[pos], self._bmax[pos] = record.bucket.min, record.bucket.max
        self._names[pos] = record.frame_name
        if record.video_id not in self._videos:
            self._videos[int(record.video_id)] = VideoInfo(record.video_name, record.category)
        self._n = n + 1
        self._mutated(structural=True)

    def remove_video(self, video_id: int) -> List[int]:
        """Drop every frame of a video; returns the removed frame ids.

        One boolean mask compresses every column into a fresh array of the
        old capacity, so the add that usually follows a delete finds spare
        rows.
        """
        n = self._n
        self._videos.pop(video_id, None)
        keep = self._vids[:n] != video_id
        if keep.all():
            return []
        removed = self._ids[:n][~keep].tolist()

        def compress(arr: np.ndarray, live: int = n) -> np.ndarray:
            mask = keep[:live]
            out = np.empty_like(arr)
            np.compress(mask, arr[:live], axis=0, out=out[: np.count_nonzero(mask)])
            return out

        self._ids, self._vids = compress(self._ids), compress(self._vids)
        self._bmin, self._bmax = compress(self._bmin), compress(self._bmax)
        self._names = compress(self._names)
        for table in (self._base, self._present):
            for name in table:  # one at a time: at most one matrix is held twice
                table[name] = compress(table[name])
        for name, rows in self._prepared_rows.items():
            if self._prepared[name] is not None:
                self._prepared[name] = compress(self._prepared[name], rows)
            self._prepared_rows[name] = int(np.count_nonzero(keep[:rows]))
        self._n = n - len(removed)
        if not self._n:  # nothing left to constrain the next add's features
            self._reset()
        for name, present in list(self._present.items()):
            if present[: self._n].all():
                del self._present[name]
            elif not present[: self._n].any():  # its last carrier left
                for table in (self._present, self._base, self._tags,
                              self._prepared, self._prepared_rows):
                    table.pop(name, None)
        self._row_matrices = None
        self._mutated(structural=True)
        return removed

    def rename_video(self, video_id: int, new_name: str) -> int:
        """Rewrite the video's name: one entry of the per-video table.

        Returns the number of affected frames.
        """
        video = self._videos.get(video_id)
        if video is None:
            return 0
        self._videos[video_id] = replace(video, name=new_name)
        self._mutated()
        return int(np.count_nonzero(self._vids[: self._n] == video_id))

    def clear(self) -> None:
        self._reset()
        self._mutated(structural=True)

    # -- stacked feature matrices ------------------------------------------------

    def _stack(self, name: str, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """The feature's base matrix, spare rows included; ``KeyError``
        when a frame (of ``rows``, or any) does not carry the feature."""
        base = self._base[name]
        present = self._present.get(name)
        if present is not None:
            if not (present[: self._n] if rows is None else present[rows]).all():
                raise KeyError(name)
        return base

    def feature_matrix(
        self, name: str, frame_ids: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """The frames' ``name`` vectors stacked into an ``(n, d)`` matrix.

        Row ``i`` is ``frame_ids[i]``'s vector (all frames in id order when
        ``frame_ids`` is None: a read-only view of the store's own matrix).
        Raises ``KeyError`` for an unknown frame id or a frame missing the
        feature.
        """
        if not self._n:
            return np.empty((0, 0), dtype=np.float64)
        rows = None if frame_ids is None else self.gather_rows(frame_ids)
        full = _live(self._stack(name, rows), self._n)
        return full if rows is None else full[rows]

    def prepared_matrix(self, name: str, extractor: FeatureExtractor) -> np.ndarray:
        """The feature's extractor-prepared full stack.

        The one prepared copy in the system: every engine sharing this
        store draws from it.  Row ``i`` describes frame ``ids[i]``;
        preparation commutes with row gathers
        (``FeatureExtractor.prepare_matrix``), so only the rows added
        since the last call are prepared, into spare capacity.
        """
        n = self._n
        if not n:
            return extractor.prepare_matrix(np.empty((0, 0), dtype=np.float64))
        base = self._stack(name)
        done = self._prepared_rows.get(name, 0)
        if done < n:
            fresh = extractor.prepare_matrix(base[done:n])
            held = self._prepared.get(name)
            if np.may_share_memory(fresh, base):
                held = None  # the extractor scores raw rows
            elif held is None:
                held = fresh
            else:
                if held.shape[0] < n:
                    held = _regrown(held, done, base.shape[0])
                held[done:n] = fresh
            self._prepared[name] = held
            self._prepared_rows[name] = n
        prepared = self._prepared[name]
        return _live(base if prepared is None else prepared, n)

    def matrix_rows(self, frame_ids: Sequence[int]) -> np.ndarray:
        """Row positions of ``frame_ids`` in the id-ordered stacked matrices.

        The stacks hold frames in ascending-id order, so the id -> row
        mapping is a binary search.  Raises ``KeyError`` for an id not in
        the store.
        """
        wanted = np.asarray(frame_ids, dtype=np.int64)
        if wanted.size == 0:
            return np.empty(0, dtype=np.int64)
        id_arr = self._ids[: self._n]
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
        if rows.size == self._n and np.array_equal(rows, np.arange(rows.size)):
            return None
        return rows

    # -- clip-level motion ------------------------------------------------------

    def set_video_motion(self, video_id: int, descriptor: FeatureVector) -> None:
        self._videos[video_id] = replace(self._videos[video_id], motion=descriptor)

    def video_motion(self, video_id: int) -> Optional[FeatureVector]:
        video = self._videos.get(video_id)
        return video.motion if video is not None else None

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
        for row in db.execute("SELECT * FROM KEY_FRAMES").rows:
            self.add(frame_record(row, videos.get(row["V_ID"], {}), feature_names))
        for video_id in list(self._videos):
            motion = video_motion(videos.get(video_id, {}))
            if motion is not None:
                self.set_video_motion(video_id, motion)
