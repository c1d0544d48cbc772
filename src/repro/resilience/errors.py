"""Exception hierarchy of the resilience layer.

Every failure the policy layer can *originate* derives from
:class:`ResilienceError`, so callers can catch the whole family with one
clause.  :class:`FaultInjected` is what an armed fault point raises -- it
deliberately does **not** subclass the domain errors (``DatabaseError``
etc.), so a chaos run exercises the same generic handling paths a real
infrastructure failure would take.
"""

from __future__ import annotations

__all__ = [
    "ResilienceError",
    "DeadlineExceeded",
    "CircuitOpenError",
    "FaultInjected",
]


class ResilienceError(Exception):
    """Base class for failures originated by the resilience layer."""


class DeadlineExceeded(ResilienceError):
    """The per-request time budget ran out at a stage boundary."""

    def __init__(self, stage: str, budget: float, elapsed: float):
        super().__init__(
            f"deadline exceeded at stage {stage!r}: "
            f"{elapsed:.3f}s elapsed of a {budget:.3f}s budget"
        )
        self.stage = stage
        self.budget = budget
        self.elapsed = elapsed


class CircuitOpenError(ResilienceError):
    """A call was refused because its circuit breaker is open.

    ``retry_after`` is the breaker's remaining cool-down in seconds (the
    web layer surfaces it as an HTTP ``Retry-After`` header).
    """

    def __init__(self, breaker: str, retry_after: float):
        super().__init__(
            f"circuit breaker {breaker!r} is open; retry in {retry_after:.3f}s"
        )
        self.breaker = breaker
        self.retry_after = retry_after


class FaultInjected(ResilienceError):
    """The deterministic failure an armed fault point raises."""

    def __init__(self, point: str, fire_count: int):
        super().__init__(f"injected fault at {point!r} (firing #{fire_count})")
        self.point = point
        self.fire_count = fire_count
