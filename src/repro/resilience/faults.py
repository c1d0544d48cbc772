"""Deterministic fault injection: named fault points + armed triggers.

The pipeline declares a fault point only where a fallback stands behind
it, or where a failure must leave nothing behind::

    db.execute          one SQL statement execution (-> the transaction rolls back)
    ann.probe           one IVF candidate-index probe (-> exact brute force)
    shard.query         one scatter-gather shard dispatch (-> partial result)
    extractor.<name>    one query frame's or clip key frame's extraction (-> degraded)

Tests and chaos runs *arm* points with a spec string (the ``REPRO_FAULTS``
environment variable, or ``ResiliencePolicies(fault_spec=...)`` in unit
tests)::

    extractor.gabor:every=1            fail every gabor extraction
    db.execute:once                    fail only the first statement
    ann.probe:every=3;db.execute:once  several points, ';'-separated

Both triggers count calls, so two identical runs inject the identical
fault sequence.  A point that is not armed costs one dict lookup; a
registry with no armed spec costs one attribute check.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs import NULL_OBS, Obs
from repro.resilience.errors import FaultInjected

__all__ = [
    "FAULTS_ENV_VAR",
    "KNOWN_POINTS",
    "FaultSpec",
    "FaultRegistry",
    "NULL_FAULTS",
    "parse_fault_spec",
    "spec_from_env",
]

#: the environment variable a system reads its armed fault points from
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: exact fault-point names (plus the ``extractor.<name>`` family)
KNOWN_POINTS = frozenset(
    {
        "db.execute",
        "ann.probe",
        "shard.query",
    }
)

_EXTRACTOR_POINT = re.compile(r"extractor\.[a-z_][a-z0-9_]*$")


def _valid_point(point: str) -> bool:
    return point in KNOWN_POINTS or bool(_EXTRACTOR_POINT.fullmatch(point))


@dataclass(frozen=True)
class FaultSpec:
    """One armed trigger: fire ``point`` per ``mode``.

    ``mode`` is ``"every"`` (fire when the call count is a multiple of
    ``n``) or ``"once"`` (first call only).
    """

    point: str
    mode: str
    n: int = 1

    def __post_init__(self) -> None:
        if not _valid_point(self.point):
            raise ValueError(
                f"unknown fault point {self.point!r}; known: "
                f"{sorted(KNOWN_POINTS)} or extractor.<name>"
            )
        if self.mode not in ("every", "once"):
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if self.mode == "every" and self.n < 1:
            raise ValueError("every=N requires N >= 1")


def parse_fault_spec(text: str) -> List[FaultSpec]:
    """Parse a ``point:trigger[;point:trigger...]`` spec string."""
    specs: List[FaultSpec] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if ":" not in clause:
            raise ValueError(
                f"malformed fault clause {clause!r} (expected point:trigger)"
            )
        point, trigger = clause.split(":", 1)
        point = point.strip()
        mode: Optional[str] = None
        n = 1
        for part in trigger.split(","):
            part = part.strip()
            if not part:
                continue
            if part == "once":
                mode = "once"
            elif part.startswith("every="):
                mode = "every"
                n = int(part.split("=", 1)[1])
            else:
                raise ValueError(f"unknown fault trigger option {part!r}")
        if mode is None:
            raise ValueError(f"fault clause {clause!r} names no trigger")
        specs.append(FaultSpec(point=point, mode=mode, n=n))
    return specs


def spec_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[str]:
    """The ``REPRO_FAULTS`` value, or None when unset/empty."""
    env = os.environ if environ is None else environ
    value = env.get(FAULTS_ENV_VAR, "").strip()
    return value or None


class _ArmedPoint:
    """Per-point trigger state (a call counter)."""

    __slots__ = ("spec", "calls", "fired")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.calls = 0
        self.fired = 0

    def should_fire(self) -> bool:
        self.calls += 1
        if self.spec.mode == "once":
            return self.calls == 1
        return self.calls % self.spec.n == 0


class FaultRegistry:
    """Holds the armed fault points and fires them deterministically.

    ``fire(point)`` raises :class:`FaultInjected` when the point's
    trigger says so, and is a near-no-op otherwise.  An un-armed registry
    (``spec=None``) short-circuits on one boolean.
    """

    def __init__(self, spec: Optional[str] = None, obs: Obs = NULL_OBS):
        self._armed: Dict[str, _ArmedPoint] = {}
        self._m_injected = obs.counter(
            "repro_resilience_faults_injected_total",
            "Faults injected by armed fault points.",
            labelnames=("point",),
        )
        if spec:
            for fault in parse_fault_spec(spec):
                self._armed[fault.point] = _ArmedPoint(fault)

    @property
    def armed(self) -> bool:
        return bool(self._armed)

    def armed_points(self) -> List[str]:
        return sorted(self._armed)

    def fire(self, point: str) -> None:
        """Raise :class:`FaultInjected` if ``point`` is armed and triggers."""
        if not self._armed:
            return
        state = self._armed.get(point)
        if state is None or not state.should_fire():
            return
        state.fired += 1
        self._m_injected.labels(point=point).inc()
        raise FaultInjected(point, state.fired)

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-point call/fire counters (for tests and ``repro stats``)."""
        return {
            point: {"calls": s.calls, "fired": s.fired}
            for point, s in sorted(self._armed.items())
        }


#: shared un-armed registry -- the default for standalone components
NULL_FAULTS = FaultRegistry()
