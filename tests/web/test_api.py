"""API layer tests (no sockets; requests dispatched directly)."""

import json

import pytest

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.video.codec import encode_rvf_bytes
from repro.video.generator import VideoSpec, generate_video
from repro.web.api import CbvrApi

PASSWORD = "pw"


@pytest.fixture()
def api(small_corpus):
    system = VideoRetrievalSystem.in_memory(SystemConfig(admin_password=PASSWORD))
    admin = system.login_admin(PASSWORD)
    admin.add_video(small_corpus[0])
    admin.add_video(small_corpus[2])
    return CbvrApi(system)


def _json(response):
    status, ctype, body = response
    assert ctype == "application/json"
    return status, json.loads(body)


class TestUserRoutes:
    def test_root_status(self, api):
        status, payload = _json(api.handle("GET", "/"))
        assert status == 200
        assert payload["videos"] == 2

    def test_list_videos(self, api):
        status, payload = _json(api.handle("GET", "/videos"))
        assert status == 200
        assert len(payload["videos"]) == 2
        assert {"v_id", "name", "category", "stored"} <= set(payload["videos"][0])

    def test_get_video(self, api):
        status, payload = _json(api.handle("GET", "/videos/1"))
        assert status == 200
        assert payload["key_frames"]

    def test_get_video_404(self, api):
        status, _ = _json(api.handle("GET", "/videos/77"))
        assert status == 404

    def test_get_frame_returns_ppm(self, api):
        status, ctype, body = api.handle("GET", "/frames/1")
        assert status == 200
        assert ctype == "image/x-portable-pixmap"
        assert body[:2] == b"P6"

    def test_get_frame_404(self, api):
        status, _ = _json(api.handle("GET", "/frames/999"))
        assert status == 404

    def test_search(self, api, small_corpus):
        body = small_corpus[0].frames[0].encode("ppm")
        status, payload = _json(api.handle("POST", "/search", body=body,
                                           query={"top_k": "3"}))
        assert status == 200
        assert len(payload["results"]) <= 3
        assert payload["results"][0]["rank"] == 1

    def test_search_with_feature_selection(self, api, small_corpus):
        body = small_corpus[0].frames[0].encode("ppm")
        status, payload = _json(
            api.handle("POST", "/search", body=body, query={"features": "sch,gabor"})
        )
        assert status == 200

    def test_search_requires_body(self, api):
        status, payload = _json(api.handle("POST", "/search"))
        assert status == 400

    def test_search_bad_image(self, api):
        status, _ = _json(api.handle("POST", "/search", body=b"not an image"))
        assert status == 400

    def test_unknown_route(self, api):
        status, _ = _json(api.handle("GET", "/nope"))
        assert status == 404


class TestAdminRoutes:
    def _clip_bytes(self):
        clip = generate_video(VideoSpec(category="news", seed=77, n_shots=1, frames_per_shot=3))
        return encode_rvf_bytes(clip.frames)

    def test_upload_requires_password(self, api):
        status, _ = _json(api.handle("POST", "/admin/videos", body=self._clip_bytes(),
                                     query={"name": "x"}))
        assert status == 401
        status, _ = _json(api.handle(
            "POST", "/admin/videos", body=self._clip_bytes(),
            headers={"X-Admin-Password": "wrong"}, query={"name": "x"},
        ))
        assert status == 401

    def test_upload_and_delete(self, api):
        headers = {"X-Admin-Password": PASSWORD}
        status, payload = _json(api.handle(
            "POST", "/admin/videos", body=self._clip_bytes(),
            headers=headers, query={"name": "uploaded", "category": "news"},
        ))
        assert status == 201
        v_id = payload["v_id"]
        assert payload["key_frames"]

        status, listing = _json(api.handle("GET", "/videos"))
        assert any(v["name"] == "uploaded" for v in listing["videos"])

        status, payload = _json(api.handle(
            "DELETE", f"/admin/videos/{v_id}", headers=headers,
        ))
        assert status == 200
        assert payload["removed_frames"] >= 1

    def test_upload_with_a_name_its_column_refuses(self, api):
        status, payload = _json(api.handle(
            "POST", "/admin/videos", body=self._clip_bytes(),
            headers={"X-Admin-Password": PASSWORD}, query={"name": "n" * 61},
        ))
        assert status == 400 and payload["error_type"] == "bad_request"
        assert "V_NAME" in payload["error"]
        assert len(_json(api.handle("GET", "/videos"))[1]["videos"]) == 2

    def test_upload_requires_name(self, api):
        status, _ = _json(api.handle(
            "POST", "/admin/videos", body=self._clip_bytes(),
            headers={"X-Admin-Password": PASSWORD},
        ))
        assert status == 400

    def test_upload_requires_body(self, api):
        status, _ = _json(api.handle(
            "POST", "/admin/videos", headers={"X-Admin-Password": PASSWORD},
            query={"name": "x"},
        ))
        assert status == 400

    def test_upload_bad_rvf(self, api):
        status, _ = _json(api.handle(
            "POST", "/admin/videos", body=b"garbage",
            headers={"X-Admin-Password": PASSWORD}, query={"name": "x"},
        ))
        assert status == 400

    def test_delete_unknown(self, api):
        status, _ = _json(api.handle(
            "DELETE", "/admin/videos/999", headers={"X-Admin-Password": PASSWORD},
        ))
        assert status == 404
