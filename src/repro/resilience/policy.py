"""The circuit breaker each shard of a scatter-gather engine sits behind.

:class:`CircuitBreaker` is a plain closed/open/half-open state machine
over a sliding outcome window; given the same outcome sequence it makes
the same transitions (the clock only gates the open -> half-open probe).
"""

from __future__ import annotations

import time
from typing import Callable, List

from repro.obs import NULL_OBS, Obs
from repro.resilience.errors import CircuitOpenError

__all__ = ["CircuitBreaker", "BREAKER_STATES"]


#: state gauge encoding (repro_resilience_breaker_state)
BREAKER_STATES = {"closed": 0, "half_open": 1, "open": 2}


class CircuitBreaker:
    """Closed / open / half-open breaker over a failure-rate window.

    The breaker trips open when the sliding window of the last
    ``window`` outcomes holds at least ``min_calls`` samples and the
    failure fraction reaches ``failure_threshold``.  While open, calls
    raise :class:`CircuitOpenError` until ``cooldown`` seconds pass;
    then one half-open probe is let through -- success closes the
    breaker and clears the window, failure re-opens it.
    """

    def __init__(
        self,
        name: str,
        window: int = 16,
        failure_threshold: float = 0.5,
        min_calls: int = 4,
        cooldown: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
        obs: Obs = NULL_OBS,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must lie in (0, 1]")
        if min_calls < 1:
            raise ValueError("min_calls must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self.name = name
        self.window = int(window)
        self.failure_threshold = float(failure_threshold)
        self.min_calls = int(min_calls)
        self.cooldown = float(cooldown)
        self._clock = clock
        self._state = "closed"
        self._outcomes: List[bool] = []  # True = failure
        self._opened_at = 0.0
        self._trips = 0
        self._m_trips = obs.counter(
            "repro_resilience_breaker_trips_total",
            "Closed/half-open to open transitions, by breaker.",
            labelnames=("breaker",),
        )
        self._m_state = obs.gauge(
            "repro_resilience_breaker_state",
            "Breaker state (0 closed, 1 half-open, 2 open).",
            labelnames=("breaker",),
        )
        self._m_state.labels(breaker=name).set(BREAKER_STATES["closed"])

    # -- state machine --------------------------------------------------------

    @property
    def state(self) -> str:
        self._maybe_half_open()
        return self._state

    @property
    def trip_count(self) -> int:
        return self._trips

    def _set_state(self, state: str) -> None:
        self._state = state
        self._m_state.labels(breaker=self.name).set(BREAKER_STATES[state])

    def _maybe_half_open(self) -> None:
        if self._state == "open" and self._clock() - self._opened_at >= self.cooldown:
            self._set_state("half_open")

    def retry_after(self) -> float:
        """Seconds until an open breaker admits its half-open probe."""
        if self._state != "open":
            return 0.0
        return max(0.0, self.cooldown - (self._clock() - self._opened_at))

    def guard(self) -> None:
        """Raise :class:`CircuitOpenError` unless a call may proceed."""
        self._maybe_half_open()
        if self._state == "open":
            raise CircuitOpenError(self.name, self.retry_after())

    def record_success(self) -> None:
        if self._state == "half_open":
            self._outcomes.clear()
            self._set_state("closed")
            return
        self._push(False)

    def record_failure(self) -> None:
        if self._state == "half_open":
            self._trip()
            return
        self._push(True)
        if len(self._outcomes) >= self.min_calls:
            rate = sum(self._outcomes) / len(self._outcomes)
            if rate >= self.failure_threshold:
                self._trip()

    def _push(self, failed: bool) -> None:
        self._outcomes.append(failed)
        if len(self._outcomes) > self.window:
            del self._outcomes[0]

    def _trip(self) -> None:
        self._outcomes.clear()
        self._opened_at = self._clock()
        self._trips += 1
        self._m_trips.labels(breaker=self.name).inc()
        self._set_state("open")

    # -- call wrapper ---------------------------------------------------------

    def call(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` through the breaker, recording the outcome."""
        self.guard()
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    def stats(self) -> dict:
        """State snapshot for tests and the stats surface."""
        return {
            "state": self.state,
            "trips": self._trips,
            "window_failures": sum(self._outcomes),
            "window_size": len(self._outcomes),
        }
