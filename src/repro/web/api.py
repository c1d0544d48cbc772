"""Transport-independent API layer.

:class:`CbvrApi` maps (method, path, body, headers) requests onto the
:class:`~repro.core.system.VideoRetrievalSystem`, returning status + JSON
(or image bytes).  The HTTP server is a thin shell around it, and the tests
drive this layer directly -- no sockets needed.
"""

from __future__ import annotations

import json
import math
import re
import time
from typing import Dict, Optional, Tuple

from repro.core.system import AuthenticationError, VideoRetrievalSystem
from repro.db.errors import DatabaseError
from repro.imaging.image import ImageFormatError, decode_image
from repro.obs import log
from repro.resilience import CircuitOpenError, DeadlineExceeded
from repro.video.codec import RvfError, RvfReader

__all__ = [
    "CbvrApi",
    "ApiError",
    "error_response_for",
    "parse_search_request",
    "search_payload",
]

_log = log.get_logger(__name__)

#: Prometheus text exposition content type
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: exact paths + parameterized patterns for metric label normalization
#: (labels must have bounded cardinality: ids are collapsed to {id})
_EXACT_ROUTES = frozenset(
    {
        "/", "/videos", "/ui", "/search", "/admin/videos", "/metrics",
        "/snapshot", "/traces/recent", "/debug/slow",
    }
)
_PATTERN_ROUTES = (
    ("/videos/{id}", re.compile(r"/videos/\d+")),
    ("/frames/{id}", re.compile(r"/frames/\d+")),
    ("/admin/videos/{id}", re.compile(r"/admin/videos/\d+")),
)


def _normalize_route(path: str) -> str:
    """Collapse a request path to its route template for metric labels."""
    if path in _EXACT_ROUTES:
        return path
    for label, pattern in _PATTERN_ROUTES:
        if pattern.fullmatch(path):
            return label
    return "unmatched"


class ApiError(Exception):
    """An error with an HTTP status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


Response = Tuple[int, str, bytes]  # (status, content_type, body)
#: like Response plus extra headers (e.g. Retry-After on a 503)
FullResponse = Tuple[int, str, bytes, Dict[str, str]]


def _json_response(status: int, payload) -> Response:
    return status, "application/json", json.dumps(payload).encode("utf-8")


def _error_response(status: int, message: str, error_type: str, **extra) -> Response:
    """The JSON error envelope every failure path shares.

    ``error`` stays a plain message string (the documented/tested shape);
    ``error_type`` is a machine-matchable discriminator.
    """
    payload = {"error": message, "error_type": error_type}
    payload.update(extra)
    return _json_response(status, payload)


def error_response_for(exc: Exception, route: str) -> Tuple[Response, Dict[str, str]]:
    """Map an exception onto ``(response, extra_headers)``.

    The one error ladder both dispatch loops share (:class:`CbvrApi`'s
    and the ``POST /search`` fast path in :mod:`repro.serving`), so a
    deadline overrun is a 504 and an open breaker a 503 + Retry-After
    whichever loop the request went through.  Anything unrecognised is
    logged with ``route`` and answered with a 500 envelope that carries
    no exception text.
    """
    if isinstance(exc, ApiError):
        return _error_response(exc.status, exc.message, "api_error"), {}
    if isinstance(exc, AuthenticationError):
        return _error_response(401, str(exc), "authentication"), {}
    if isinstance(exc, DeadlineExceeded):
        return _error_response(504, str(exc), "deadline_exceeded"), {}
    if isinstance(exc, CircuitOpenError):
        retry_after = max(1, math.ceil(exc.retry_after))
        response = _error_response(
            503, str(exc), "circuit_open", retry_after=retry_after
        )
        return response, {"Retry-After": str(retry_after)}
    if isinstance(exc, (DatabaseError, RvfError, ImageFormatError, ValueError, KeyError)):
        return _error_response(400, str(exc), "bad_request"), {}
    _log.error("web.unhandled", route=route, error=f"{type(exc).__name__}: {exc}")
    return _error_response(500, "internal server error", "internal"), {}


def parse_search_request(body: bytes, query: Dict[str, str]):
    """Decode a ``POST /search`` request's image + knobs.

    Returns ``(image, feature_list, top_k, explain)``; raises
    :class:`ApiError` / :class:`ImageFormatError` / :class:`ValueError`
    for the 400 ladder.  Shared by ``CbvrApi`` and the serving fast
    path so both parse identically.
    """
    if not body:
        raise ApiError(400, "search requires an image body (PPM/PGM/BMP)")
    image = decode_image(body)
    top_k = int(query.get("top_k", "20"))
    features = query.get("features")
    feature_list = features.split(",") if features else None
    explain = query.get("explain") in ("1", "true", "yes")
    return image, feature_list, top_k, explain


# pure formatting shared by two instrumented dispatch loops, not an entry point
def search_payload(results, explain: bool) -> Dict[str, object]:  # reprolint: disable=R17
    """The ``POST /search`` response body for one ``SearchResults``."""
    payload: Dict[str, object] = {
        "n_candidates": results.n_candidates,
        "degraded": results.degraded,
        "degraded_features": results.degraded_features,
        "degraded_shards": results.degraded_shards,
        "results": results.to_rows(),
    }
    if explain:
        payload["explain"] = results.explain
    return payload


class CbvrApi:
    """Routes requests onto a retrieval system."""

    def __init__(self, system: VideoRetrievalSystem):
        self.system = system
        self._m_requests = system.obs.counter(
            "repro_web_requests_total",
            "HTTP requests by route template, method, and status.",
            labelnames=("route", "method", "status"),
        )
        self._m_request_seconds = system.obs.histogram(
            "repro_web_request_seconds",
            "Request handling wall time by route template.",
            labelnames=("route",),
        )

    # -- entry point -----------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
        query: Optional[Dict[str, str]] = None,
    ) -> Response:
        """:meth:`handle_full` without the extra headers (test-friendly)."""
        status, content_type, payload, _headers = self.handle_full(
            method, path, body=body, headers=headers, query=query
        )
        return status, content_type, payload

    def handle_full(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
        query: Optional[Dict[str, str]] = None,
    ) -> FullResponse:
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        query = query or {}
        method = method.upper()
        path = path.rstrip("/") or "/"
        t0 = time.perf_counter()
        extra_headers: Dict[str, str] = {}
        try:
            with self.system.resilience.request_scope():
                response = self._route(method, path, body, headers, query)
        except Exception as exc:  # noqa: BLE001 -- last-resort envelope, never a bare 500
            response, extra_headers = error_response_for(exc, path)
        elapsed = time.perf_counter() - t0
        route = _normalize_route(path)
        self._m_requests.labels(
            route=route, method=method, status=str(response[0])
        ).inc()
        self._m_request_seconds.labels(route=route).observe(elapsed)
        _log.debug(
            "web.request",
            method=method,
            route=route,
            status=response[0],
            ms=round(elapsed * 1000.0, 2),
        )
        return response + (extra_headers,)

    def _route(self, method, path, body, headers, query) -> Response:
        if method == "GET" and path == "/":
            return _json_response(
                200,
                {
                    "service": "cbvr",
                    "videos": self.system.n_videos(),
                    "key_frames": self.system.n_key_frames(),
                },
            )
        if method == "GET" and path == "/videos":
            return self._list_videos()
        m = re.fullmatch(r"/videos/(\d+)", path)
        if method == "GET" and m:
            return self._get_video(int(m.group(1)))
        m = re.fullmatch(r"/frames/(\d+)", path)
        if method == "GET" and m:
            return self._get_frame(int(m.group(1)), query.get("format", "ppm"))
        if method == "GET" and path == "/ui":
            return self._browse_page()
        if method == "GET" and path == "/metrics":
            return self._metrics(query.get("format", "prometheus"))
        if method == "GET" and path == "/snapshot":
            return _json_response(
                200, {"snapshot": self.system.snapshots.stats()}
            )
        if method == "GET" and path == "/traces/recent":
            return self._recent_traces(query.get("limit"))
        if method == "GET" and path == "/debug/slow":
            return self._slow_queries(query.get("limit"))
        if method == "POST" and path == "/search":
            return self._search(body, query)
        if method == "POST" and path == "/admin/videos":
            return self._admin_add(body, headers, query)
        m = re.fullmatch(r"/admin/videos/(\d+)", path)
        if method == "DELETE" and m:
            return self._admin_delete(int(m.group(1)), headers)
        raise ApiError(404, f"no route for {method} {path}")

    # -- user endpoints ------------------------------------------------------------

    def _list_videos(self) -> Response:
        rows = self.system.list_videos()
        videos = [
            {
                "v_id": r["V_ID"],
                "name": r["V_NAME"],
                "category": r["CATEGORY"],
                "stored": str(r["DOSTORE"]) if r["DOSTORE"] else None,
            }
            for r in rows
        ]
        return _json_response(200, {"videos": videos})

    def _get_video(self, video_id: int) -> Response:
        records = self.system.key_frames_of(video_id)
        if not records:
            raise ApiError(404, f"no video {video_id}")
        return _json_response(
            200,
            {
                "v_id": video_id,
                "name": records[0].video_name,
                "category": records[0].category,
                "key_frames": [r.frame_id for r in records],
            },
        )

    def _get_frame(self, frame_id: int, fmt: str = "ppm") -> Response:
        try:
            image = self.system.get_key_frame(frame_id)
        except KeyError:
            raise ApiError(404, f"no key frame {frame_id}") from None
        fmt = fmt.lower()
        if fmt == "bmp":  # browser-renderable; used by the /ui browse page
            return 200, "image/bmp", image.encode("bmp")
        if fmt in ("ppm", "pgm"):
            return 200, "image/x-portable-pixmap", image.encode(fmt)
        raise ApiError(400, f"unsupported image format {fmt!r}")

    def _browse_page(self) -> Response:
        """A minimal HTML browse page (the paper's Fig. 9 result screen)."""
        import html

        parts = [
            "<!DOCTYPE html><html><head><title>CBVR library</title>",
            "<style>body{font-family:sans-serif;margin:2em}"
            ".video{margin-bottom:1.5em}.thumbs img{margin-right:6px;"
            "border:1px solid #999}</style></head><body>",
            f"<h1>CBVR library</h1><p>{self.system.n_videos()} videos, "
            f"{self.system.n_key_frames()} key frames. POST an image to "
            "<code>/search</code> to query.</p>",
        ]
        for row in self.system.list_videos():
            v_id = row["V_ID"]
            name = html.escape(str(row["V_NAME"]))
            category = html.escape(str(row["CATEGORY"]))
            thumbs = "".join(
                f'<img src="/frames/{r.frame_id}?format=bmp" '
                f'alt="frame {r.frame_id}" height="72">'
                for r in self.system.key_frames_of(v_id)
            )
            parts.append(
                f'<div class="video"><h3>#{v_id} {name} '
                f"<small>[{category}]</small></h3>"
                f'<div class="thumbs">{thumbs}</div></div>'
            )
        parts.append("</body></html>")
        return 200, "text/html; charset=utf-8", "".join(parts).encode("utf-8")

    def _metrics(self, fmt: str) -> Response:
        """The system's metrics registry: Prometheus text or JSON."""
        registry = self.system.obs.registry
        fmt = fmt.lower()
        if fmt == "json":
            return _json_response(200, registry.render_json())
        if fmt == "prometheus":
            return 200, PROMETHEUS_CONTENT_TYPE, registry.render_text().encode("utf-8")
        raise ApiError(400, f"unsupported metrics format {fmt!r}")

    def _recent_traces(self, limit: Optional[str]) -> Response:
        """The most recent root traces, newest first."""
        n = None
        if limit is not None:
            n = int(limit)
            if n < 1:
                raise ApiError(400, "limit must be >= 1")
        return _json_response(200, {"traces": self.system.recent_traces(n)})

    def _slow_queries(self, limit: Optional[str]) -> Response:
        """The slow-query ring buffer, newest first, plus its thresholds."""
        n = None
        if limit is not None:
            n = int(limit)
            if n < 1:
                raise ApiError(400, "limit must be >= 1")
        return _json_response(
            200,
            {
                "slow_log": self.system.obs.slow_log.stats(),
                "queries": self.system.slow_queries(n),
            },
        )

    def _search(self, body: bytes, query: Dict[str, str]) -> Response:
        image, feature_list, top_k, explain = parse_search_request(body, query)
        results = self.system.search(image, features=feature_list, top_k=top_k)
        return _json_response(200, search_payload(results, explain))

    # -- admin endpoints --------------------------------------------------------------

    def _admin(self, headers: Dict[str, str]):
        return self.system.login_admin(headers.get("x-admin-password"))

    def _admin_add(self, body: bytes, headers, query) -> Response:
        admin = self._admin(headers)
        if not body:
            raise ApiError(400, "upload requires an RVF video body")
        name = query.get("name")
        if not name:
            raise ApiError(400, "upload requires a ?name= parameter")
        frames = list(RvfReader(body))
        report = admin.add_video(frames, name=name, category=query.get("category"))
        return _json_response(
            201,
            {
                "v_id": report.video_id,
                "name": report.video_name,
                "n_frames": report.n_frames,
                "key_frames": report.keyframe_ids,
            },
        )

    def _admin_delete(self, video_id: int, headers) -> Response:
        admin = self._admin(headers)
        try:
            removed = admin.delete_video(video_id)
        except DatabaseError:
            raise ApiError(404, f"no video {video_id}") from None
        return _json_response(200, {"v_id": video_id, "removed_frames": removed})
