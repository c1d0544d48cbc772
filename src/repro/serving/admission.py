"""Admission control for the asyncio front-end: shed at the queue limit.

The controller looks at one signal -- the serving queue's depth.  Below
``serving_queue_limit`` a request is admitted untouched; at the limit it
is shed with :class:`OverloadedError`, which the server maps to HTTP 429
with a ``Retry-After`` estimate of how long the backlog takes to drain at
the per-request service time the batcher last observed.  Every admitted
request gets the full answer.

Admit and shed decisions are counted through :mod:`repro.obs` so the
load gate can cross-check server-side counters against client-observed
rejections.
"""

from __future__ import annotations

import math

from repro.core.config import SystemConfig
from repro.obs import NULL_OBS, Obs

__all__ = ["AdmissionController", "OverloadedError"]


class OverloadedError(Exception):
    """A request was shed because the serving queue hit its limit."""

    def __init__(self, depth: int, limit: int, retry_after: int) -> None:
        super().__init__(f"serving queue full ({depth} queued, limit {limit})")
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after


class AdmissionController:
    def __init__(self, config: SystemConfig, obs: Obs = NULL_OBS) -> None:
        self.queue_limit = config.serving_queue_limit
        self._m_admitted = obs.counter(
            "repro_serving_admitted_total", "Requests admitted by the serving front-end"
        )
        self._m_shed = obs.counter(
            "repro_serving_shed_total", "Requests shed (429) by admission control"
        )

    @staticmethod
    def retry_after(depth: int, service_seconds: float) -> int:
        """Whole seconds (at least one) until a backlog of ``depth``
        requests drains at ``service_seconds`` per request."""
        return max(1, math.ceil(depth * service_seconds))

    def admit(self, depth: int, service_seconds: float = 0.0) -> None:
        """Gate one request given the current queue depth.

        Raises :class:`OverloadedError` to shed (``service_seconds``, the
        batcher's observed per-request service time, sizes its
        ``retry_after``); returns to admit the request untouched.
        """
        if depth >= self.queue_limit:
            self._m_shed.inc()
            raise OverloadedError(
                depth, self.queue_limit, self.retry_after(depth, service_seconds)
            )
        self._m_admitted.inc()
