"""``repro.resilience``: fault injection, retry/backoff, graceful degradation.

Three pieces, usable separately or through the
:class:`ResiliencePolicies` facade the retrieval system threads through
its layers (mirroring how ``repro.obs`` is wired):

- :mod:`repro.resilience.policy` -- :class:`Retry` (exponential backoff
  with deterministic seeded jitter) and :class:`CircuitBreaker`
  (closed/open/half-open over a failure-rate window);
- :mod:`repro.resilience.deadline` -- contextvars-propagated per-request
  time budgets checked at stage boundaries;
- :mod:`repro.resilience.faults` -- a registry of named fault points that
  ``REPRO_FAULTS`` / ``SystemConfig(fault_spec)`` arm with seeded
  probability / every-Nth / once triggers, so chaos runs reproduce
  byte-for-byte.

See ``docs/resilience.md`` for the fault-point catalog, policy knobs, and
degradation semantics.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterator, Optional

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
    RetryExhausted,
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
from repro.resilience.policy import BREAKER_STATES, Backoff, CircuitBreaker, Retry

__all__ = [
    "ResilienceError",
    "DeadlineExceeded",
    "CircuitOpenError",
    "RetryExhausted",
    "FaultInjected",
    "Backoff",
    "Retry",
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

    Holds the armed :class:`FaultRegistry`, the shared :class:`Retry`
    policy (db statement execution and video decode), the ANN and
    worker-pool circuit breakers, and the request-deadline knob.  A
    disabled instance (``enabled=False``, or the shared
    :data:`NULL_POLICIES`) turns every hook into an early-out so the
    happy path allocates nothing.
    """

    def __init__(
        self,
        enabled: bool = True,
        fault_spec: Optional[str] = None,
        retry_attempts: int = 3,
        retry_base_delay: float = 0.01,
        retry_cap: float = 1.0,
        retry_jitter: float = 0.5,
        retry_max_elapsed: Optional[float] = None,
        retry_seed: int = 2012,
        breaker_window: int = 16,
        breaker_failure_threshold: float = 0.5,
        breaker_min_calls: int = 4,
        breaker_cooldown: float = 0.1,
        request_deadline: Optional[float] = None,
        obs: Obs = NULL_OBS,
        clock: Callable[[], float] = time.monotonic,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        self.enabled = bool(enabled)
        self.request_deadline = request_deadline
        obs = obs if self.enabled else NULL_OBS
        self.faults = FaultRegistry(fault_spec if self.enabled else None, obs=obs)
        retry_kwargs = dict(
            attempts=retry_attempts,
            backoff=Backoff(
                base=retry_base_delay,
                cap=retry_cap,
                jitter=retry_jitter,
                seed=retry_seed,
            ),
            max_elapsed=retry_max_elapsed,
            retry_on=(FaultInjected,),
            clock=clock,
            obs=obs,
        )
        if sleep is not None:
            retry_kwargs["sleep"] = sleep
        self.retry = Retry(**retry_kwargs)
        self._breaker_kwargs = dict(
            window=breaker_window,
            failure_threshold=breaker_failure_threshold,
            min_calls=breaker_min_calls,
            cooldown=breaker_cooldown,
            clock=clock,
            obs=obs,
        )
        self.ann_breaker = self.make_breaker("ann")
        self.pool_breaker = self.make_breaker("pool")
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
        """Build from a :class:`~repro.core.config.SystemConfig`.

        ``fault_spec=None`` falls back to the ``REPRO_FAULTS`` environment
        variable, so ``REPRO_FAULTS="extractor.gabor:every=1" repro search``
        arms faults without code changes.
        """
        spec = config.fault_spec
        if spec is None:
            spec = spec_from_env()
        return cls(
            enabled=config.resilience,
            fault_spec=spec,
            breaker_window=config.breaker_window,
            breaker_cooldown=config.breaker_cooldown,
            request_deadline=config.request_deadline,
            obs=obs,
        )

    def make_breaker(self, name: str) -> CircuitBreaker:
        """A new breaker sharing this policy bundle's window/cooldown knobs.

        The sharded coordinator builds one per shard, so a single sick
        partition trips open without affecting its siblings (or the
        fixed :attr:`ann_breaker` / :attr:`pool_breaker`).
        """
        return CircuitBreaker(name, **self._breaker_kwargs)

    # -- hooks called from the pipeline ---------------------------------------

    def fire(self, point: str) -> None:
        """Fault-point hook (no-op unless the registry armed ``point``)."""
        if self.enabled:
            self.faults.fire(point)

    def run(self, point: str, fn: Callable[[], object]) -> object:
        """Fire ``point`` then run ``fn`` under the shared retry policy.

        Only injected faults are retried (``retry_on=(FaultInjected,)``):
        semantic failures -- malformed SQL, a genuinely corrupt blob --
        are deterministic and propagate immediately.
        """
        if not self.enabled:
            return fn()

        def attempt() -> object:
            self.faults.fire(point)
            return fn()

        return self.retry.call(point, attempt)

    def check_stage(self, stage: str) -> None:
        """Deadline check at one ingest/search stage boundary."""
        if not self.enabled:
            return
        remaining = check_deadline(stage)
        if remaining is not None:
            self._m_remaining.observe(remaining)

    def new_deadline(self) -> Optional[Deadline]:
        """A fresh configured request budget, or None when there is
        nothing to mint: policies off, no ``request_deadline``, or an
        ambient deadline already armed (which keeps winning)."""
        if (
            not self.enabled
            or self.request_deadline is None
            or current_deadline() is not None
        ):
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

    def stats(self) -> dict:
        """Snapshot for ``repro stats`` / tests (breakers + fault points)."""
        return {
            "enabled": self.enabled,
            "faults": self.faults.stats(),
            "breakers": {
                "ann": self.ann_breaker.stats(),
                "pool": self.pool_breaker.stats(),
            },
            "request_deadline": self.request_deadline,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResiliencePolicies(enabled={self.enabled}, "
            f"armed={self.faults.armed_points()})"
        )


#: shared disabled instance -- the default for standalone components
NULL_POLICIES = ResiliencePolicies(enabled=False)
