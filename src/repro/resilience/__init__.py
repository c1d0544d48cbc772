"""``repro.resilience``: fault injection, deadlines, graceful degradation.

Three pieces, usable separately or through the
:class:`ResiliencePolicies` facade the retrieval system threads through
its layers (mirroring how ``repro.obs`` is wired):

- :mod:`repro.resilience.policy` -- :class:`CircuitBreaker`
  (closed/open/half-open over a failure-rate window), one per shard of a
  scatter-gather engine;
- :mod:`repro.resilience.deadline` -- contextvars-propagated per-request
  time budgets checked at stage boundaries;
- :mod:`repro.resilience.faults` -- a registry of named fault points that
  ``REPRO_FAULTS`` arms with every-Nth / once triggers, so chaos runs
  reproduce byte-for-byte.

There is no retry: every fault point has a fallback behind it (or, for
``db.execute``, a rollback), and the fallback runs on every failing call.
See ``docs/resilience.md`` for what each failure does.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.obs import NULL_OBS, Obs
from repro.resilience.deadline import (
    Deadline,
    armed_deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.resilience.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    FaultInjected,
    ResilienceError,
)
from repro.resilience.faults import (
    FAULTS_ENV_VAR,
    KNOWN_POINTS,
    NULL_FAULTS,
    FaultRegistry,
    FaultSpec,
    parse_fault_spec,
    spec_from_env,
)
from repro.resilience.policy import BREAKER_STATES, CircuitBreaker

__all__ = [
    "ResilienceError",
    "DeadlineExceeded",
    "CircuitOpenError",
    "FaultInjected",
    "CircuitBreaker",
    "BREAKER_STATES",
    "Deadline",
    "armed_deadline",
    "deadline_scope",
    "current_deadline",
    "check_deadline",
    "FaultRegistry",
    "FaultSpec",
    "NULL_FAULTS",
    "parse_fault_spec",
    "spec_from_env",
    "FAULTS_ENV_VAR",
    "KNOWN_POINTS",
    "ResiliencePolicies",
    "NULL_POLICIES",
]

#: histogram edges for the deadline-remaining samples (seconds)
_REMAINING_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class ResiliencePolicies:
    """The policy bundle one retrieval system threads through its layers.

    Holds the armed :class:`FaultRegistry`, the request-deadline knob and
    the window / cooldown of the per-shard breakers :meth:`make_breaker`
    builds.  An unarmed bundle with no deadline (the shared
    :data:`NULL_POLICIES`) runs the same hooks, each one early-out.
    """

    def __init__(
        self,
        fault_spec: Optional[str] = None,
        breaker_window: int = 16,
        breaker_cooldown: float = 0.1,
        request_deadline: Optional[float] = None,
        obs: Obs = NULL_OBS,
    ):
        self.request_deadline = request_deadline
        self.faults = FaultRegistry(fault_spec, obs=obs)
        self._breaker_kwargs = dict(
            window=breaker_window, cooldown=breaker_cooldown, obs=obs
        )
        self._m_degraded = obs.counter(
            "repro_resilience_degraded_total",
            "Requests that completed with degraded semantics, by reason.",
            labelnames=("reason",),
        )
        self._m_fallbacks = obs.counter(
            "repro_resilience_fallbacks_total",
            "Graceful-degradation fallbacks taken, by kind.",
            labelnames=("kind",),
        )
        self._m_remaining = obs.histogram(
            "repro_resilience_deadline_remaining_seconds",
            "Remaining request budget at each stage-boundary check.",
            buckets=_REMAINING_BUCKETS,
        )

    @classmethod
    def from_config(cls, config, obs: Obs = NULL_OBS) -> "ResiliencePolicies":
        """Build from a :class:`~repro.core.config.SystemConfig`, armed
        from the ``REPRO_FAULTS`` environment variable, so
        ``REPRO_FAULTS="extractor.gabor:every=1" repro search`` arms
        faults without code changes."""
        return cls(
            fault_spec=spec_from_env(),
            request_deadline=config.request_deadline,
            obs=obs,
        )

    def make_breaker(self, name: str) -> CircuitBreaker:
        """A new breaker with this bundle's window / cooldown.

        The sharded coordinator builds one per shard, so a single sick
        partition trips open without affecting its siblings.
        """
        return CircuitBreaker(name, **self._breaker_kwargs)

    # -- hooks called from the pipeline ---------------------------------------

    def fire(self, point: str) -> None:
        """Fault-point hook (no-op unless the registry armed ``point``)."""
        self.faults.fire(point)

    def check_stage(self, stage: str) -> None:
        """Deadline check at one ingest/search stage boundary."""
        remaining = check_deadline(stage)
        if remaining is not None:
            self._m_remaining.observe(remaining)

    def new_deadline(self) -> Optional[Deadline]:
        """A fresh configured request budget, or None when there is
        nothing to mint: no ``request_deadline``, or an ambient deadline
        already armed (which keeps winning)."""
        if self.request_deadline is None or current_deadline() is not None:
            return None
        return Deadline(self.request_deadline)

    @contextlib.contextmanager
    def request_scope(self) -> Iterator[None]:
        """Arm the configured request deadline unless one is already armed."""
        with armed_deadline(self.new_deadline()):
            yield

    def note_degraded(self, reason: str) -> None:
        self._m_degraded.labels(reason=reason).inc()

    def note_fallback(self, kind: str) -> None:
        self._m_fallbacks.labels(kind=kind).inc()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResiliencePolicies(armed={self.faults.armed_points()})"


#: shared unarmed bundle with no deadline -- the default for standalone
#: components
NULL_POLICIES = ResiliencePolicies()
