"""IVF inverted-file candidate index (sublinear retrieval extension).

The paper's range finder (§4.2) prunes by gray-level buckets only; on
corpora where most frames share a bucket the search still scores nearly
every frame.  This module adds a classic IVF-flat layer over the *feature*
space: a k-means coarse quantizer partitions the stored frames into
``n_cells`` Voronoi cells over the concatenated (per-feature scaled)
vectors, and a query only scores the members of its ``nprobe`` nearest
cells.  The probed union is re-ranked **exactly** through the existing
``batch_distance`` path, so the index changes which frames are scored,
never how they are scored.

Design notes:

- **Determinism.**  Training uses k-means++ seeding from a seeded
  ``numpy.random.Generator``; identical store contents always produce the
  identical partition.
- **Self-syncing.**  The index holds a reference to its
  :class:`~repro.core.store.FeatureStore` and compares the store's
  ``structure_generation`` to the one it last saw on every probe: new
  frames are assigned to their nearest centroid, removed frames drop out
  of the inverted lists.  Once the accumulated churn exceeds
  ``rebuild_drift`` of the trained population, the quantizer is retrained
  from scratch (lazily, on the next probe).
- **Residuals.**  Frames missing any indexed feature cannot be embedded;
  they are kept in a residual set that every probe returns, so the index
  never hides a frame that brute force would have scored.
- **Multi-assignment.**  Each frame is filed under its ``n_assign``
  nearest cells (not just the nearest).  The final ranking fuses several
  per-feature distances, which the single L2 coarse metric only
  approximates; replicating frames across the cell boundary is what keeps
  recall high at small ``nprobe`` despite that mismatch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.features.base import FeatureVector
from repro.indexing.ann_metrics import register_metrics
from repro.obs import NULL_OBS, Obs

__all__ = ["IVFIndex", "IVFStats", "kmeans", "register_metrics"]

#: Default seed for the coarse quantizer (any fixed value works; what
#: matters is that rebuilds on identical data give identical partitions).
DEFAULT_SEED = 2012


def _squared_distances(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Pairwise squared L2 distances, shape ``(n_points, n_centroids)``."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; clamp the tiny negatives
    # the expansion can produce
    d2 = (
        np.sum(data * data, axis=1)[:, np.newaxis]
        - 2.0 * (data @ centroids.T)
        + np.sum(centroids * centroids, axis=1)[np.newaxis, :]
    )
    return np.maximum(d2, 0.0)


def _kmeans_pp_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007)."""
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = data[first]
    closest = _squared_distances(data, centroids[:1])[:, 0]
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            # all remaining points coincide with a centroid; any choice works
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[i] = data[idx]
        np.minimum(
            closest, _squared_distances(data, centroids[i : i + 1])[:, 0], out=closest
        )
    return centroids


def kmeans(
    data: np.ndarray,
    k: int,
    seed: int = DEFAULT_SEED,
    n_iter: int = 25,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic Lloyd's k-means with k-means++ seeding.

    Returns ``(centroids, assignments)``.  ``k`` is clamped to the number
    of points; empty clusters are re-seeded on the point currently
    farthest from its centroid, so exactly ``k`` non-empty clusters come
    back whenever ``k <= n``.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("kmeans needs a non-empty (n, d) matrix")
    k = max(1, min(int(k), data.shape[0]))
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(data, k, rng)
    assign = np.zeros(data.shape[0], dtype=np.intp)
    for _ in range(max(1, n_iter)):
        d2 = _squared_distances(data, centroids)
        new_assign = np.argmin(d2, axis=1)
        # recompute means with one (k, n) @ (n, d) product
        onehot = np.zeros((k, data.shape[0]), dtype=np.float64)
        onehot[new_assign, np.arange(data.shape[0])] = 1.0
        counts = onehot.sum(axis=1)
        sums = onehot @ data
        empty = counts == 0
        if empty.any():
            # steal the worst-represented points for the empty clusters
            worst = np.argsort(d2[np.arange(data.shape[0]), new_assign])[::-1]
            for cell, point in zip(np.nonzero(empty)[0], worst):
                centroids[cell] = data[point]
            d2 = _squared_distances(data, centroids)
            new_assign = np.argmin(d2, axis=1)
            onehot = np.zeros((k, data.shape[0]), dtype=np.float64)
            onehot[new_assign, np.arange(data.shape[0])] = 1.0
            counts = np.maximum(onehot.sum(axis=1), 1.0)
            sums = onehot @ data
            centroids = sums / counts[:, np.newaxis]
            assign = new_assign
            continue
        centroids = sums / counts[:, np.newaxis]
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign
    return centroids, assign


class IVFStats:
    """Probe-time counters of one :class:`IVFIndex`."""

    def __init__(self):
        self.n_builds = 0
        self.n_probes = 0
        self.n_incremental_adds = 0
        self.n_incremental_removes = 0

    def as_dict(self) -> Dict[str, int]:
        # unified stats naming (no n_ prefix), matching cache/index keys
        return {
            "builds": self.n_builds,
            "probes": self.n_probes,
            "incremental_adds": self.n_incremental_adds,
            "incremental_removes": self.n_incremental_removes,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IVFStats({self.as_dict()})"


class IVFIndex:
    """IVF-flat inverted-file index over a :class:`FeatureStore`.

    ``feature_names`` fixes the embedding: the named per-frame vectors are
    concatenated, each block divided by its training-set standard
    deviation so no feature dominates the coarse partition.
    """

    def __init__(
        self,
        store,
        feature_names: Sequence[str],
        n_cells: int = 16,
        seed: int = DEFAULT_SEED,
        rebuild_drift: float = 0.3,
        n_assign: int = 2,
        obs: Obs = NULL_OBS,
    ):
        if n_cells < 1:
            raise ValueError("n_cells must be >= 1")
        if not feature_names:
            raise ValueError("at least one feature name is required")
        if rebuild_drift <= 0:
            raise ValueError("rebuild_drift must be positive")
        if n_assign < 1:
            raise ValueError("n_assign must be >= 1")
        self._store = store
        self._names = list(feature_names)
        self.n_cells = int(n_cells)
        self.seed = int(seed)
        self.rebuild_drift = float(rebuild_drift)
        self.n_assign = int(n_assign)
        self.stats = IVFStats()
        families = register_metrics(obs)
        self._m_builds = families["builds"]
        self._m_probes = families["probes"]
        self._m_incremental = families["incremental"]
        self._m_cells_probed = families["cells_probed"]
        self._m_candidates = families["candidates"]

        self._centroids: Optional[np.ndarray] = None
        self._scales: Optional[List[float]] = None
        self._lists: List[List[int]] = []
        self._cells_of: Dict[int, Tuple[int, ...]] = {}
        self._residuals: Set[int] = set()
        self._known_generation = -1
        self._trained_size = 0
        self._churn = 0

    # -- embedding ---------------------------------------------------------------

    def _embeddable(self, frame_id: int) -> bool:
        features = self._store.get(frame_id).features
        return all(name in features for name in self._names)

    def _raw_blocks(self, frame_ids: Sequence[int]) -> List[np.ndarray]:
        return [
            self._store.feature_matrix(name, frame_ids) for name in self._names
        ]

    def _embed(self, frame_ids: Sequence[int]) -> np.ndarray:
        blocks = self._raw_blocks(frame_ids)
        return np.hstack(
            [block * scale for block, scale in zip(blocks, self._scales)]
        )

    def _embed_vectors(self, query_vectors: Dict[str, FeatureVector]) -> np.ndarray:
        parts = [
            np.asarray(query_vectors[name].values, dtype=np.float64) * scale
            for name, scale in zip(self._names, self._scales)
        ]
        return np.concatenate(parts)[np.newaxis, :]

    def _nearest_cells(self, data: np.ndarray) -> np.ndarray:
        """Per row: the ``n_assign`` nearest cells, nearest first."""
        d2 = _squared_distances(data, self._centroids)
        take = min(self.n_assign, d2.shape[1])
        if take >= d2.shape[1]:
            return np.argsort(d2, axis=1)
        part = np.argpartition(d2, take - 1, axis=1)[:, :take]
        order = np.argsort(np.take_along_axis(d2, part, axis=1), axis=1)
        return np.take_along_axis(part, order, axis=1)

    def _file(self, frame_id: int, cells: np.ndarray) -> None:
        assigned = tuple(int(c) for c in cells)
        for cell in assigned:
            self._lists[cell].append(frame_id)
        self._cells_of[frame_id] = assigned

    # -- training ----------------------------------------------------------------

    def build(self) -> None:
        """(Re)train the coarse quantizer on the store's current frames."""
        self.stats.n_builds += 1
        self._m_builds.inc()
        self._known_generation = self._store.structure_generation
        self._churn = 0
        all_ids = self._store.frame_ids()
        indexable = [fid for fid in all_ids if self._embeddable(fid)]
        self._residuals = set(all_ids) - set(indexable)
        self._trained_size = len(indexable)
        if not indexable:
            self._centroids = None
            self._scales = None
            self._lists = []
            self._cells_of = {}
            return
        blocks = self._raw_blocks(indexable)
        self._scales = []
        for block in blocks:
            std = float(block.std()) if block.size else 0.0
            self._scales.append(1.0 / (std + 1e-12))
        data = np.hstack(
            [block * scale for block, scale in zip(blocks, self._scales)]
        )
        self._centroids, _ = kmeans(data, self.n_cells, seed=self.seed)
        self._lists = [[] for _ in range(self._centroids.shape[0])]
        self._cells_of = {}
        for fid, cells in zip(indexable, self._nearest_cells(data)):
            self._file(fid, cells)

    # -- incremental maintenance -------------------------------------------------

    def _sync(self) -> None:
        """Fold store mutations in; retrain when drift passes the threshold."""
        if self._known_generation == self._store.structure_generation:
            return
        if self._centroids is None:
            self.build()
            return
        current = set(self._store.frame_ids())
        known = self._residuals | set(self._cells_of)
        removed = known - current
        added = sorted(current - known)
        churn = len(removed) + len(added)
        if self._churn + churn > self.rebuild_drift * max(self._trained_size, 1):
            self.build()
            return
        self._churn += churn
        self._known_generation = self._store.structure_generation
        for fid in removed:
            if fid in self._residuals:
                self._residuals.discard(fid)
                continue
            for cell in self._cells_of.pop(fid):
                self._lists[cell].remove(fid)
            self.stats.n_incremental_removes += 1
            self._m_incremental.labels(op="remove").inc()
        if added:
            embeddable = [fid for fid in added if self._embeddable(fid)]
            emb_set = set(embeddable)
            self._residuals.update(fid for fid in added if fid not in emb_set)
            if embeddable:
                data = self._embed(embeddable)
                for fid, cells in zip(embeddable, self._nearest_cells(data)):
                    self._file(fid, cells)
                    self.stats.n_incremental_adds += 1
                    self._m_incremental.labels(op="add").inc()

    # -- probing -----------------------------------------------------------------

    def probe(
        self, query_vectors: Dict[str, FeatureVector], nprobe: int
    ) -> Optional[List[int]]:
        """Frame ids in the query's ``nprobe`` nearest cells (plus residuals).

        Returns ids sorted ascending (the brute-force candidate order), or
        ``None`` when the query is missing an indexed feature -- the caller
        must then fall back to exhaustive scoring.
        """
        if nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        self._sync()
        self.stats.n_probes += 1
        self._m_probes.inc()
        if self._centroids is None:
            residuals = sorted(self._residuals)
            self._m_candidates.observe(len(residuals))
            return residuals
        if any(name not in query_vectors for name in self._names):
            return None
        q = self._embed_vectors(query_vectors)
        d2 = _squared_distances(q, self._centroids)[0]
        nprobe = min(int(nprobe), d2.size)
        if nprobe < d2.size:
            cells = np.argpartition(d2, nprobe - 1)[:nprobe]
        else:
            cells = np.arange(d2.size)
        out: Set[int] = set(self._residuals)
        for cell in cells:
            out.update(self._lists[int(cell)])
        self._m_cells_probed.observe(len(cells))
        self._m_candidates.observe(len(out))
        return sorted(out)

    # -- snapshot state ----------------------------------------------------------

    def export_state(self) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, object]]]:
        """The trained state as ``(arrays, meta)`` for the snapshot writer.

        Returns ``None`` when the index has never been built (nothing to
        persist -- the reader trains lazily, same as a fresh process).
        Posting lists and per-frame assignments are flattened with offset
        arrays, the standard CSR-style layout for ragged data.
        """
        if self._known_generation < 0:
            return None
        meta: Dict[str, object] = {
            "names": list(self._names),
            "n_cells": self.n_cells,
            "seed": self.seed,
            "rebuild_drift": self.rebuild_drift,
            "n_assign": self.n_assign,
            "known_generation": self._known_generation,
            "trained_size": self._trained_size,
            "churn": self._churn,
            "trained": self._centroids is not None,
            "scales": list(self._scales) if self._scales is not None else None,
        }
        if self._centroids is None:
            return {}, meta
        fids = sorted(self._cells_of)
        assign_cells: List[int] = []
        assign_offsets = [0]
        for fid in fids:
            assign_cells.extend(self._cells_of[fid])
            assign_offsets.append(len(assign_cells))
        postings: List[int] = []
        post_offsets = [0]
        for members in self._lists:
            postings.extend(members)
            post_offsets.append(len(postings))
        arrays = {
            "centroids": np.asarray(self._centroids, dtype=np.float64),
            "postings": np.asarray(postings, dtype=np.int64),
            "post_offsets": np.asarray(post_offsets, dtype=np.int64),
            "assign_fids": np.asarray(fids, dtype=np.int64),
            "assign_cells": np.asarray(assign_cells, dtype=np.int64),
            "assign_offsets": np.asarray(assign_offsets, dtype=np.int64),
            "residuals": np.asarray(sorted(self._residuals), dtype=np.int64),
        }
        return arrays, meta

    def load_state(
        self, arrays: Dict[str, np.ndarray], meta: Dict[str, object]
    ) -> None:
        """Restore :meth:`export_state` output, skipping the retrain.

        The recorded ``known_generation`` must correspond to the store
        generation the snapshot restored; mutations replayed on top (the
        log's commits) are folded in by the usual :meth:`_sync` on next probe.
        """
        self._known_generation = int(meta["known_generation"])
        self._trained_size = int(meta["trained_size"])
        self._churn = int(meta["churn"])
        if not meta.get("trained"):
            self._centroids = None
            self._scales = None
            self._lists = []
            self._cells_of = {}
            self._residuals = set()
            return
        self._centroids = np.array(arrays["centroids"], dtype=np.float64)
        self._scales = [float(s) for s in meta["scales"]]
        post_offsets = arrays["post_offsets"]
        postings = arrays["postings"]
        self._lists = [
            [int(fid) for fid in postings[post_offsets[i] : post_offsets[i + 1]]]
            for i in range(len(post_offsets) - 1)
        ]
        assign_offsets = arrays["assign_offsets"]
        assign_cells = arrays["assign_cells"]
        self._cells_of = {
            int(fid): tuple(
                int(c)
                for c in assign_cells[assign_offsets[i] : assign_offsets[i + 1]]
            )
            for i, fid in enumerate(arrays["assign_fids"])
        }
        self._residuals = {int(fid) for fid in arrays["residuals"]}

    # -- introspection -----------------------------------------------------------

    @property
    def is_built(self) -> bool:
        return self._known_generation >= 0

    def cell_sizes(self) -> List[int]:
        return [len(members) for members in self._lists]

    def n_indexed(self) -> int:
        return len(self._cells_of) + len(self._residuals)
