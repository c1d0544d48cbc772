"""Feature framework: vectors, extractor ABC, registry, string round-trip.

The paper serializes every feature to a string (``getStringRepresentation``
in each pseudo-code listing) and stores it in a ``VARCHAR2`` column.  The
same convention is kept here: a :class:`FeatureVector` renders as

    ``<TAG> <n> <v1> <v2> ... <vn>``

and parses back losslessly (within float repr precision), which the DB layer
relies on.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type

import numpy as np

from repro.imaging.image import Image

__all__ = [
    "FeatureVector",
    "FeatureExtractor",
    "Rows",
    "register_extractor",
    "get_extractor",
    "all_extractors",
    "default_extractors",
    "parse_feature_string",
]


#: row positions into a stacked matrix (None = every row, in order)
Rows = Optional[np.ndarray]


@dataclass(frozen=True)
class FeatureVector:
    """A named, fixed-length float feature vector.

    ``kind`` is the extractor's registry name (e.g. ``"glcm"``); ``tag`` is
    the leading token used in the string form (the paper's dumps use tags
    like ``RGB``, ``gabor``, ``Tamura``, ``ACC``).
    """

    kind: str
    values: np.ndarray = field(repr=False)
    tag: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64).ravel()
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if not self.tag:
            object.__setattr__(self, "tag", self.kind)

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.kind, self.values.tobytes()))

    def to_string(self) -> str:
        """``<tag> <n> <v1> ... <vn>`` -- the paper's VARCHAR2 representation."""
        parts = [self.tag, str(len(self))]
        parts.extend(map(repr, self.values.tolist()))
        return " ".join(parts)

    @classmethod
    def from_string(cls, kind: str, text: str) -> "FeatureVector":
        """Parse a string produced by :meth:`to_string`."""
        tokens = text.split()
        if len(tokens) < 2:
            raise ValueError(f"feature string too short: {text[:40]!r}")
        tag = tokens[0]
        try:
            n = int(tokens[1])
        except ValueError as exc:
            raise ValueError(f"bad feature length token {tokens[1]!r}") from exc
        values = tokens[2:]
        if len(values) != n:
            raise ValueError(f"feature string declares {n} values, has {len(values)}")
        try:
            arr = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"non-numeric token in {kind!r} feature string: {exc}") from exc
        if not np.all(np.isfinite(arr)):
            bad = [values[i] for i in np.flatnonzero(~np.isfinite(arr))[:3]]
            raise ValueError(
                f"non-finite value(s) {bad} in {kind!r} feature string; "
                "nan/inf would silently poison every distance computed from it"
            )
        return cls(kind=kind, values=arr, tag=tag)


class FeatureExtractor(abc.ABC):
    """Base class for all §4.3-4.8 extractors.

    Subclasses define ``name`` (registry key), ``tag`` (string-form prefix)
    and implement :meth:`extract`.  :meth:`distance` defaults to the L1
    distance on normalized vectors; extractors override it where the paper
    (or standard practice for that feature) dictates another measure.
    """

    #: registry key; subclasses must override.
    name: str = ""
    #: string-form prefix; defaults to ``name``.
    tag: str = ""
    #: whether :meth:`extract` spends its time in NumPy calls that release
    #: the GIL (FFTs, large ufuncs), so it runs on a helper thread beside
    #: the other extractors instead of after them (``repro.core.lanes``)
    releases_gil: bool = False

    @abc.abstractmethod
    def extract(self, image: Image) -> FeatureVector:
        """Compute this extractor's feature vector for one frame."""

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """Dissimilarity between two vectors of this feature (>= 0)."""
        from repro.similarity.measures import l1

        self._check_pair(a, b)
        return l1(a.values, b.values)

    def batch_distance(self, q: FeatureVector, matrix: np.ndarray, rows: Rows = None) -> np.ndarray:
        """Distances from ``q`` to every row of a stacked ``(n, d)`` matrix.

        ``rows`` restricts (and orders) the result to ``matrix[rows]``
        without the caller materializing that gather: the row-wise kernels
        of :mod:`repro.similarity.measures` pull the rows block by block.

        Subclasses that override :meth:`distance` override this too with
        the matching vectorized measure; this default guarantees agreement
        for any extractor that has not, by looping the scalar method.  An
        extractor inheriting the base L1 ``distance`` gets the vectorized
        L1 directly.
        """
        from repro.similarity.measures import l1_batch

        m = self._check_batch(q, matrix)
        if type(self).distance is FeatureExtractor.distance:
            return l1_batch(q.values, m, rows)
        return np.array(
            [
                self.distance(q, FeatureVector(kind=self.name, values=row, tag=q.tag))
                for row in (m if rows is None else (m[i] for i in rows))
            ],
            dtype=np.float64,
        )

    def prepare_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Precompute a reusable form of a stacked candidate matrix.

        The default is the raw float64 matrix.  Extractors whose
        :meth:`batch_distance` preprocesses the candidate rows per call
        (e.g. row normalization) override this together with
        :meth:`batch_distance_prepared`, so a caller ranking many queries
        against an unchanged store can pay the preprocessing once.  Row i
        of the prepared matrix must describe row i of the input, so row
        gathers commute with preparation.
        """
        return np.asarray(matrix, dtype=np.float64)

    def batch_distance_prepared(
        self, q: FeatureVector, prepared: np.ndarray, rows: Rows = None
    ) -> np.ndarray:
        """Distances from ``q`` to rows prepared by :meth:`prepare_matrix`."""
        return self.batch_distance(q, prepared, rows)

    def _check_batch(self, q: FeatureVector, matrix: np.ndarray) -> np.ndarray:
        """Validate a query/matrix pair; returns the matrix as float64."""
        if q.kind != self.name:
            raise ValueError(
                f"{type(self).__name__} compares {self.name!r} vectors, got {q.kind!r}"
            )
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"candidate matrix must be 2-D, got shape {m.shape}")
        if m.shape[1] != len(q):
            raise ValueError(f"vector lengths differ: {len(q)} vs {m.shape[1]}")
        return m

    def _check_pair(self, a: FeatureVector, b: FeatureVector) -> None:
        if a.kind != self.name or b.kind != self.name:
            raise ValueError(
                f"{type(self).__name__} compares {self.name!r} vectors, "
                f"got {a.kind!r} and {b.kind!r}"
            )
        if len(a) != len(b):
            raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")

    def to_string(self, image: Image) -> str:
        """Extract and serialize in one step (paper: getStringRepresentation)."""
        return self.extract(image).to_string()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


_REGISTRY: Dict[str, Type[FeatureExtractor]] = {}


def register_extractor(cls: Type[FeatureExtractor]) -> Type[FeatureExtractor]:
    """Class decorator adding an extractor to the global registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty 'name'")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"duplicate extractor name {cls.name!r}")
    if not cls.tag:
        cls.tag = cls.name
    _REGISTRY[cls.name] = cls
    return cls


def get_extractor(name: str, **kwargs: object) -> FeatureExtractor:
    """Instantiate a registered extractor by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown extractor {name!r}; known: {known}") from None
    return cls(**kwargs)


def all_extractors() -> List[str]:
    """Sorted names of every registered extractor."""
    return sorted(_REGISTRY)


def default_extractors(names: Optional[List[str]] = None) -> List[FeatureExtractor]:
    """Fresh default-configured instances (all, or the given subset)."""
    return [get_extractor(n) for n in (names if names is not None else all_extractors())]


def parse_feature_string(kind: str, text: str) -> FeatureVector:
    """Module-level alias of :meth:`FeatureVector.from_string`."""
    return FeatureVector.from_string(kind, text)
