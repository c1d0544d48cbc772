"""HTTP shell tests over a real socket."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.system import VideoRetrievalSystem


@pytest.fixture()
def server_url(small_corpus, served):
    system = VideoRetrievalSystem.in_memory()
    system.admin.add_video(small_corpus[0])
    yield served(system), small_corpus[0]
    system.close()


class TestHttp:
    def test_get_videos(self, server_url):
        base, _video = server_url
        with urllib.request.urlopen(f"{base}/videos") as resp:
            assert resp.status == 200
            payload = json.loads(resp.read())
        assert len(payload["videos"]) == 1

    def test_search_roundtrip(self, server_url):
        base, video = server_url
        body = video.frames[0].encode("ppm")
        req = urllib.request.Request(f"{base}/search?top_k=2", data=body, method="POST")
        with urllib.request.urlopen(req) as resp:
            payload = json.loads(resp.read())
        assert payload["results"]
        assert payload["results"][0]["video"] == video.name

    def test_404_status_propagated(self, server_url):
        base, _video = server_url
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{base}/videos/999")
        assert exc.value.code == 404


class TestConcurrency:
    def test_concurrent_searches_all_succeed(self, server_url):
        # 8 simultaneous POST /search round trips: the server must answer
        # every one correctly with no serialization errors
        base, video = server_url
        body = video.frames[0].encode("ppm")
        results = [None] * 8
        errors = []

        def fetch(i):
            try:
                req = urllib.request.Request(
                    f"{base}/search?top_k=2", data=body, method="POST"
                )
                with urllib.request.urlopen(req, timeout=30) as resp:
                    results[i] = json.loads(resp.read())
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=fetch, args=(i,)) for i in range(len(results))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert all(r is not None for r in results)
        first = results[0]["results"]
        assert first[0]["video"] == video.name
        assert all(r["results"] == first for r in results)
