"""Admission control for the asyncio front-end: degrade before shedding.

The controller looks at one signal -- the serving queue's depth -- and
walks a two-rung ladder:

1. depth >= ``serving_degrade_depth``: the request is still admitted,
   but degraded -- the feature set is truncated to the first
   ``serving_degrade_features`` configured features and, when ANN is on,
   ``ann_nprobe`` is halved.  Cheaper per query, same contract.
2. depth >= ``serving_queue_limit``: the request is shed with
   :class:`OverloadedError`, which the server maps to HTTP 429 with a
   ``Retry-After`` estimate of how long the backlog takes to drain at the
   per-request service time the batcher last observed.

Shed and degrade decisions are counted through :mod:`repro.obs` so the
load gate can cross-check server-side counters against client-observed
rejections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.config import SystemConfig
from repro.obs import NULL_OBS, Obs
from repro.resilience import NULL_POLICIES, ResiliencePolicies

__all__ = ["AdmissionController", "DegradeDecision", "OverloadedError"]


class OverloadedError(Exception):
    """A request was shed because the serving queue hit its limit."""

    def __init__(self, depth: int, limit: int, retry_after: int) -> None:
        super().__init__(f"serving queue full ({depth} queued, limit {limit})")
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after


@dataclass(frozen=True)
class DegradeDecision:
    """How an admitted-but-degraded request should be cheapened."""

    features: Tuple[str, ...]
    nprobe: Optional[int]


class AdmissionController:
    def __init__(
        self,
        config: SystemConfig,
        obs: Obs = NULL_OBS,
        policies: ResiliencePolicies = NULL_POLICIES,
    ) -> None:
        self.queue_limit = config.serving_queue_limit
        self.degrade_depth = config.serving_degrade_depth
        self._policies = policies
        features = tuple(config.features[: config.serving_degrade_features])
        nprobe = max(1, config.ann_nprobe // 2) if config.ann else None
        self._decision = DegradeDecision(features=features, nprobe=nprobe)
        self._m_admitted = obs.counter(
            "repro_serving_admitted_total", "Requests admitted by the serving front-end"
        )
        self._m_shed = obs.counter(
            "repro_serving_shed_total", "Requests shed (429) by admission control"
        )
        self._m_degraded = obs.counter(
            "repro_serving_degraded_total", "Requests admitted in degraded mode under load"
        )

    @staticmethod
    def retry_after(depth: int, service_seconds: float) -> int:
        """Whole seconds (at least one) until a backlog of ``depth``
        requests drains at ``service_seconds`` per request."""
        return max(1, math.ceil(depth * service_seconds))

    def admit(self, depth: int, service_seconds: float = 0.0) -> Optional[DegradeDecision]:
        """Gate one request given the current queue depth.

        Raises :class:`OverloadedError` to shed (``service_seconds``, the
        batcher's observed per-request service time, sizes its
        ``retry_after``); returns a :class:`DegradeDecision` to admit
        degraded; returns ``None`` to admit untouched.
        """
        if depth >= self.queue_limit:
            self._m_shed.inc()
            raise OverloadedError(
                depth, self.queue_limit, self.retry_after(depth, service_seconds)
            )
        self._m_admitted.inc()
        if self.degrade_depth > 0 and depth >= self.degrade_depth:
            self._m_degraded.inc()
            self._policies.note_degraded("serving.load")
            return self._decision
        return None
