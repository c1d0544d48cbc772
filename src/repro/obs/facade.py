"""The :class:`Obs` facade: one object bundling metrics + tracing.

Every instrumented layer takes an optional ``obs`` argument.  A live
``Obs`` carries a :class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.tracing.Tracer`; a disabled one (``Obs(enabled=False)``
or the shared :data:`NULL_OBS`) carries the shared null twins, so call
sites never branch::

    obs = Obs()                                # per-system, own registry
    queries = obs.counter("repro_search_queries_total", "Queries.")
    with obs.span("search.query_frame", top_k=20):
        queries.inc()

Overhead of the disabled path is structural, not statistical: metric
handles *are* the shared ``NULL_METRIC`` and every ``span()`` returns the
one shared ``NULL_SPAN``, so a disabled system pays a no-op method call
per instrumentation point and allocates nothing (see
``tests/obs/test_facade.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.slowlog import NULL_SLOW_LOG, NullSlowQueryLog, SlowQueryLog
from repro.obs.tracing import NULL_TRACER, NullSpan, NullTracer, Span, Tracer

__all__ = ["Obs", "NULL_OBS"]


class Obs:
    """Metrics registry + tracer + slow-query log behind one gate."""

    def __init__(
        self,
        enabled: bool = True,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        trace_buffer: int = 64,
        slow_query_ms: float = 0.0,
        slow_log_size: int = 64,
    ):
        self.enabled = bool(enabled)
        if self.enabled:
            self.registry: Union[MetricsRegistry, NullRegistry] = (
                registry if registry is not None else MetricsRegistry()
            )
            self.tracer: Union[Tracer, NullTracer] = (
                tracer if tracer is not None else Tracer(capacity=trace_buffer)
            )
            self.slow_log: Union[SlowQueryLog, NullSlowQueryLog] = (
                SlowQueryLog(capacity=slow_log_size, threshold_ms=slow_query_ms)
                if slow_query_ms > 0
                else NULL_SLOW_LOG
            )
        else:
            self.registry = NULL_REGISTRY
            self.tracer = NULL_TRACER
            self.slow_log = NULL_SLOW_LOG

    # -- metrics --------------------------------------------------------------

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        return self.registry.counter(name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        return self.registry.gauge(name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        return self.registry.histogram(name, help, labelnames, buckets=buckets)

    # -- tracing --------------------------------------------------------------

    def span(self, name: str, /, **attrs: object) -> Union[Span, NullSpan]:
        return self.tracer.span(name, **attrs)

    def recent_traces(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        return self.tracer.recent(limit)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Obs(enabled={self.enabled})"


#: shared disabled instance -- the default for standalone components
NULL_OBS = Obs(enabled=False)
