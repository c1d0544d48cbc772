"""Obs facade tests: the enabled/disabled gate and its structural cost."""

from repro.obs import (
    NULL_METRIC,
    NULL_OBS,
    NULL_REGISTRY,
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    Obs,
)


class TestEnabled:
    def test_owns_registry_and_tracer(self):
        a, b = Obs(), Obs()
        assert a.registry is not b.registry
        assert a.tracer is not b.tracer
        a.counter("x_total").inc()
        assert "x_total" in a.registry.render_text()
        assert "x_total" not in b.registry.render_text()

    def test_injected_registry_is_used(self):
        registry = MetricsRegistry()
        obs = Obs(registry=registry)
        obs.gauge("g").set(1)
        assert registry.get("g") is not None

    def test_spans_reach_recent_traces(self):
        obs = Obs(trace_buffer=2)
        with obs.span("one"):
            pass
        with obs.span("two"):
            pass
        with obs.span("three"):
            pass
        assert [t["name"] for t in obs.recent_traces()] == ["three", "two"]


class TestDisabledIsStructurallyFree:
    """Disabled obs hands out shared singletons: no allocation, no state.

    This is the ``obs_enabled=false`` fast path the benchmark gate
    (``scripts/check_obs_overhead.py``) quantifies; here we pin the
    *mechanism* -- every handle is one shared no-op object, so the cost
    per instrumentation point is a single no-op method call.
    """

    def test_disabled_obs_uses_shared_null_twins(self):
        obs = Obs(enabled=False)
        assert obs.registry is NULL_REGISTRY
        assert obs.tracer is NULL_TRACER
        assert obs.counter("a_total") is NULL_METRIC
        assert obs.gauge("b") is NULL_METRIC
        assert obs.histogram("c_seconds") is NULL_METRIC

    def test_every_disabled_span_is_the_same_object(self):
        assert NULL_OBS.span("x") is NULL_OBS.span("y")
        assert NULL_OBS.span("x") is NULL_SPAN

    def test_disabled_surfaces_are_empty(self):
        assert NULL_OBS.recent_traces() == []
        assert NULL_OBS.registry.render_text() == ""
        assert NULL_OBS.registry.render_json() == {}

    def test_null_obs_is_shared_and_disabled(self):
        assert NULL_OBS.enabled is False
