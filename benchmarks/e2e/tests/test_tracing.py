"""Span bookkeeping: nesting, request ids, self-time arithmetic."""

import pytest

from tracing import Tracer, _covered


def _span(tracer, name, start, end, parent=None, request_id=None):
    record = {"id": len(tracer.spans), "name": name, "parent": parent,
              "request_id": request_id, "start": start, "end": end}
    tracer.spans.append(record)
    return record["id"]


def test_self_time_is_duration_minus_covered_children():
    tracer = Tracer()
    root = _span(tracer, "query", 0.0, 0.100)
    _span(tracer, "extract", 0.010, 0.040, parent=root)
    _span(tracer, "distance", 0.030, 0.060, parent=root)  # overlaps extract
    _span(tracer, "fuse", 0.080, 0.090, parent=root)
    self_ms = tracer.self_times_ms()
    # children cover [10, 60] and [80, 90] ms: 60 of the root's 100 ms
    assert self_ms["query"] == [pytest.approx(40.0)]
    assert self_ms["extract"] == [pytest.approx(30.0)]  # leaves keep everything


def test_covered_clips_to_the_parent_interval():
    assert _covered(0.0, 1.0, [(-1.0, 0.25), (0.75, 2.0)]) == pytest.approx(0.5)
    assert _covered(0.0, 1.0, []) == 0.0


def test_spans_nest_and_inherit_the_request_id():
    tracer = Tracer()
    with tracer.span("query", request_id=42):
        with tracer.span("stage"):
            pass
    with tracer.span("other"):
        pass
    query, stage, other = tracer.spans
    assert stage["parent"] == query["id"] and stage["request_id"] == 42
    assert other["parent"] is None and other["request_id"] is None
    assert query["start"] <= stage["start"] <= stage["end"] <= query["end"]
    assert tracer.median_ms("missing") == 0.0
