"""Fast-path switch for accelerated imaging/feature kernels.

Several hot kernels (thresholding, region labelling, the Gabor bank, the
correlogram) have two implementations: a straightforward *reference* form
that mirrors the paper's pseudo-code, and an accelerated form (vectorized
NumPy) that produces identical results.  The reference forms stay in the
tree as the oracle the equivalence tests compare against; nothing outside
NumPy is imported, so a library's stored bytes do not depend on what else
is installed where it was ingested.

The switch is process-global and defaults to fast.  Worker processes
inherit the default, so parallel ingest always runs the fast path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Tuple

import numpy as np

__all__ = [
    "fast_paths_enabled",
    "set_fast_paths",
    "reference_paths",
    "read_only",
]

_FAST = True


def fast_paths_enabled() -> bool:
    """True when accelerated kernels should be used."""
    return _FAST


def set_fast_paths(enabled: bool) -> None:
    """Globally enable/disable the accelerated kernels."""
    global _FAST
    _FAST = bool(enabled)


@contextmanager
def reference_paths() -> Iterator[None]:
    """Run the enclosed block on the reference implementations."""
    previous = _FAST
    set_fast_paths(False)
    try:
        yield
    finally:
        set_fast_paths(previous)


def read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Freeze shape-only constants (filter banks, index plans) before an
    ``lru_cache`` hands the same arrays to every caller in the process."""
    for array in arrays:
        array.setflags(write=False)
    return arrays
