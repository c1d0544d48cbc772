"""Observability endpoints: /metrics, /traces/recent, request metrics."""

import json

import pytest

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.web.api import PROMETHEUS_CONTENT_TYPE, CbvrApi

PASSWORD = "pw"

METRIC_FAMILIES = (
    "repro_ingest_videos_total",
    "repro_search_queries_total",
    "repro_ann_probes_total",
    "repro_cache_requests_total",
    "repro_db_statements_total",
    "repro_web_requests_total",
)


@pytest.fixture()
def api(small_corpus):
    system = VideoRetrievalSystem.in_memory(SystemConfig(admin_password=PASSWORD))
    system.login_admin(PASSWORD).add_video(small_corpus[0])
    yield CbvrApi(system)
    system.close()


def _json(response):
    status, ctype, body = response
    assert ctype == "application/json"
    return status, json.loads(body)


class TestMetricsEndpoint:
    def test_prometheus_text_covers_all_families(self, api, small_corpus):
        api.handle("POST", "/search",
                   body=small_corpus[0].frames[0].encode("ppm"))
        status, ctype, body = api.handle("GET", "/metrics")
        assert status == 200
        assert ctype == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        for family in METRIC_FAMILIES:
            assert f"# TYPE {family} counter" in text
        assert 'repro_search_queries_total{kind="frame"} 1' in text

    def test_json_format(self, api):
        status, payload = _json(api.handle("GET", "/metrics",
                                           query={"format": "json"}))
        assert status == 200
        assert payload["repro_ingest_videos_total"]["samples"][0]["value"] == 1.0

    def test_unknown_format_is_400(self, api):
        status, payload = _json(api.handle("GET", "/metrics",
                                           query={"format": "xml"}))
        assert status == 400
        assert "unsupported" in payload["error"]

    def test_disabled_obs_serves_empty_scrape(self, small_corpus):
        system = VideoRetrievalSystem.in_memory(
            SystemConfig(admin_password=PASSWORD, obs_enabled=False)
        )
        system.login_admin(PASSWORD).add_video(small_corpus[0])
        api = CbvrApi(system)
        status, ctype, body = api.handle("GET", "/metrics")
        assert status == 200
        assert body == b""
        system.close()


class TestTracesEndpoint:
    def test_recent_traces_newest_first(self, api, small_corpus):
        api.handle("POST", "/search",
                   body=small_corpus[0].frames[0].encode("ppm"))
        status, payload = _json(api.handle("GET", "/traces/recent"))
        assert status == 200
        names = [t["name"] for t in payload["traces"]]
        assert names[0] == "search.query_frame"
        assert "ingest.add_video" in names

    def test_limit_param(self, api, small_corpus):
        for _ in range(3):
            api.handle("POST", "/search",
                       body=small_corpus[0].frames[0].encode("ppm"))
        status, payload = _json(api.handle("GET", "/traces/recent",
                                           query={"limit": "2"}))
        assert status == 200
        assert len(payload["traces"]) == 2

    def test_bad_limit_is_400(self, api):
        for bad in ("0", "-3", "many"):
            status, _ = _json(api.handle("GET", "/traces/recent",
                                         query={"limit": bad}))
            assert status == 400


class TestRequestMetrics:
    def _web_samples(self, api):
        registry = api.system.obs.registry.render_json()
        return {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in registry["repro_web_requests_total"]["samples"]
        }

    def test_requests_labelled_by_route_and_status(self, api):
        api.handle("GET", "/videos")
        api.handle("GET", "/videos/1")
        api.handle("GET", "/videos/999")
        samples = self._web_samples(api)
        key = lambda route, status: (  # noqa: E731
            ("method", "GET"), ("route", route), ("status", str(status)))
        assert samples[key("/videos", 200)] == 1.0
        assert samples[key("/videos/{id}", 200)] == 1.0
        assert samples[key("/videos/{id}", 404)] == 1.0

    def test_unknown_paths_collapse_to_unmatched(self, api):
        api.handle("GET", "/nope")
        api.handle("GET", "/also/not/a/route")
        samples = self._web_samples(api)
        key = (("method", "GET"), ("route", "unmatched"), ("status", "404"))
        assert samples[key] == 2.0

    def test_latency_histogram_records(self, api):
        api.handle("GET", "/")
        registry = api.system.obs.registry.render_json()
        samples = registry["repro_web_request_seconds"]["samples"]
        root = [s for s in samples if s["labels"] == {"route": "/"}]
        assert root and root[0]["count"] == 1


class TestExplainParam:
    def test_search_explain_opt_in(self, api, small_corpus):
        body = small_corpus[0].frames[0].encode("ppm")
        status, payload = _json(api.handle("POST", "/search", body=body,
                                           query={"explain": "1"}))
        assert status == 200
        explain = payload["explain"]
        assert explain["kind"] == "frame"
        assert explain["cache"] in ("miss", "off")
        assert explain["total_ms"] >= 0
        assert "timings_ms" in explain

    def test_search_without_flag_omits_explain(self, api, small_corpus):
        body = small_corpus[0].frames[0].encode("ppm")
        status, payload = _json(api.handle("POST", "/search", body=body))
        assert status == 200
        assert "explain" not in payload


class TestSlowQueryEndpoint:
    @pytest.fixture()
    def slow_api(self, small_corpus):
        from repro.core.system import VideoRetrievalSystem

        config = SystemConfig(obs_slow_query_ms=0.0001)
        system = VideoRetrievalSystem.in_memory(config)
        system.admin.add_video(small_corpus[0])
        yield CbvrApi(system)
        system.close()

    def test_slow_queries_surface(self, slow_api, small_corpus):
        body = small_corpus[0].frames[0].encode("ppm")
        slow_api.handle("POST", "/search", body=body)
        status, payload = _json(slow_api.handle("GET", "/debug/slow"))
        assert status == 200
        assert payload["slow_log"]["threshold_ms"] == 0.0001
        (entry,) = [q for q in payload["queries"] if q["kind"] == "frame"]
        assert entry["ms"] >= 0
        assert entry["explain"]["kind"] == "frame"

    def test_limit_param(self, slow_api, small_corpus):
        body = small_corpus[0].frames[0].encode("ppm")
        for top_k in ("3", "4", "5"):
            slow_api.handle("POST", "/search", body=body,
                            query={"top_k": top_k})
        status, payload = _json(slow_api.handle("GET", "/debug/slow",
                                                query={"limit": "2"}))
        assert status == 200
        assert len(payload["queries"]) == 2

    def test_bad_limit_is_400(self, slow_api):
        status, _ = _json(slow_api.handle("GET", "/debug/slow",
                                          query={"limit": "0"}))
        assert status == 400

    def test_disabled_log_serves_empty(self, api):
        """The default fixture threshold (500ms) never trips on tests."""
        status, payload = _json(api.handle("GET", "/debug/slow"))
        assert status == 200
        assert payload["queries"] == []
