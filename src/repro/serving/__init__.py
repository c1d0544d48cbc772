"""``repro.serving``: the HTTP front door -- admission, dispatch, listener.

Three pieces in front of the :mod:`repro.web` route table:

- :mod:`repro.serving.admission` -- shedding: a bounded queue depth
  decides whether a request is accepted (and then gets the full answer)
  or shed with HTTP 429 + Retry-After;
- :mod:`repro.serving.batcher` -- the dispatcher: one engine thread
  takes the search requests that queued while the previous batch was
  scoring into one :meth:`~repro.core.search.SearchEngine.query_batch`
  call -- one scatter per shard for the sharded engine -- with rankings
  byte-identical to serial execution; a lone request never waits for
  batchmates;
- :mod:`repro.serving.server` -- a minimal asyncio HTTP/1.1 server:
  ``POST /search`` flows through admission + the dispatcher, every other
  route delegates to :class:`~repro.web.api.CbvrApi` in an executor
  thread.

See ``docs/serving.md`` for the queueing model, batching semantics, the
shedding, and the SLO runbook.
"""

from repro.serving.admission import AdmissionController, OverloadedError
from repro.serving.batcher import MicroBatcher
from repro.serving.server import AsyncCbvrServer

__all__ = [
    "AdmissionController",
    "OverloadedError",
    "MicroBatcher",
    "AsyncCbvrServer",
]
