"""The retrieval system proper: ingest pipeline, search engine, facade.

This package wires the substrates together exactly as the paper's block
diagram (Fig. 4) describes: an **Administrator** role that adds, updates
and deletes videos (each addition runs key-frame extraction, feature
extraction, range-finder indexing and DB storage), and a **User** role
that submits a query frame and receives ranked similar videos.
"""

from repro import _lazy_getattr
from repro.core.config import SystemConfig
from repro.core.results import RetrievalResult, SearchResults
from repro.core.system import AdminSession, AuthenticationError, VideoRetrievalSystem

#: imported on first use: a plain query or ingest never runs the feedback loop
_LAZY = {"FeedbackSession": "repro.core.feedback"}

__all__ = [
    "SystemConfig",
    "VideoRetrievalSystem",
    "AdminSession",
    "AuthenticationError",
    "RetrievalResult",
    "SearchResults",
    "FeedbackSession",
]

__getattr__ = _lazy_getattr(globals(), _LAZY)
