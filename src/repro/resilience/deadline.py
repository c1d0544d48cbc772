"""Per-request time budgets, propagated through ``contextvars``.

A caller arms a budget once at the request boundary::

    with deadline_scope(0.5):
        system.search(image)

and every stage boundary inside ingest and search calls
:func:`check_deadline`, which raises :class:`DeadlineExceeded` as soon as
the budget is spent.  The context variable propagates through nested
calls (and into threads started with ``contextvars.copy_context``), so no
plumbing argument is threaded through the pipeline.  When no deadline is
armed, the check is a single context-variable read.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from typing import Callable, Iterator, Optional

from repro.resilience.errors import DeadlineExceeded

__all__ = [
    "Deadline",
    "armed_deadline",
    "deadline_scope",
    "current_deadline",
    "check_deadline",
]


class Deadline:
    """One armed time budget (monotonic-clock based)."""

    __slots__ = ("budget", "_t0", "_clock")

    def __init__(self, budget: float, clock: Callable[[], float] = time.monotonic):
        if budget <= 0:
            raise ValueError("deadline budget must be positive")
        self.budget = float(budget)
        self._clock = clock
        self._t0 = clock()

    def elapsed(self) -> float:
        return self._clock() - self._t0

    def remaining(self) -> float:
        return self.budget - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        elapsed = self.elapsed()
        if elapsed >= self.budget:
            raise DeadlineExceeded(stage, self.budget, elapsed)


_CURRENT: contextvars.ContextVar[Optional[Deadline]] = contextvars.ContextVar(
    "repro_resilience_deadline", default=None
)


def current_deadline() -> Optional[Deadline]:
    """The innermost armed deadline, or None."""
    return _CURRENT.get()


@contextlib.contextmanager
def deadline_scope(
    budget: Optional[float], clock: Callable[[], float] = time.monotonic
) -> Iterator[Optional[Deadline]]:
    """Arm a deadline for the duration of the ``with`` block.

    ``budget=None`` is a no-op scope (so callers can pass an optional
    config knob straight through).  Nested scopes shadow outer ones; the
    outer deadline is restored on exit.
    """
    if budget is None:
        yield _CURRENT.get()
        return
    token = _CURRENT.set(Deadline(budget, clock=clock))
    try:
        yield _CURRENT.get()
    finally:
        _CURRENT.reset(token)


@contextlib.contextmanager
def armed_deadline(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Install an *existing* :class:`Deadline` for the ``with`` block.

    Unlike :func:`deadline_scope`, the budget's clock started when the
    object was built -- the HTTP server creates the deadline at
    admission time, so the queue wait counts against the request's
    budget, not just the scoring work.
    ``deadline=None`` is a no-op scope.
    """
    if deadline is None:
        yield _CURRENT.get()
        return
    token = _CURRENT.set(deadline)
    try:
        yield deadline
    finally:
        _CURRENT.reset(token)


def check_deadline(stage: str) -> Optional[float]:
    """Stage-boundary check against the armed deadline (if any).

    Returns the remaining budget in seconds (None when no deadline is
    armed) so instrumented callers can histogram it; raises
    :class:`DeadlineExceeded` when the budget is spent.
    """
    deadline = _CURRENT.get()
    if deadline is None:
        return None
    deadline.check(stage)
    return deadline.remaining()
