"""On-disk snapshot format: an mmap-able index image.

This package owns only the bytes -- the versioned binary layout
(:mod:`repro.snapshot.format`).  The image is a cache of the database's
log, stamped with the commit it holds; translating a
:class:`~repro.core.store.FeatureStore` and IVF index to and from those
bytes, and catching an image up from the log, lives in
:mod:`repro.core.snapshots`, keeping this layer free of core imports so
the analysis layer DAG stays acyclic.
"""

from repro.snapshot.format import (
    MAGIC,
    VERSION,
    CorruptSnapshotError,
    Snapshot,
    SnapshotError,
    SnapshotVersionError,
    write_snapshot,
)

__all__ = [
    "MAGIC",
    "VERSION",
    "Snapshot",
    "SnapshotError",
    "CorruptSnapshotError",
    "SnapshotVersionError",
    "write_snapshot",
]
