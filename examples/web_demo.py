"""Drive the HTTP facade end to end: upload, browse, search, delete.

Starts the server on a free port, then exercises every route with
urllib -- the scripted version of the paper's Figures 9/10 interaction
(submit a query frame, get ranked matches back, fetch a key frame).

Run:  python examples/web_demo.py
"""

import json
import urllib.request

from repro import VideoRetrievalSystem, make_corpus
from repro.core.config import SystemConfig
from repro.serving import AsyncCbvrServer
from repro.video.codec import encode_rvf_bytes
from repro.video.generator import VideoSpec, generate_video

PASSWORD = "s3cret"


def request(method: str, url: str, body: bytes = b"", headers=None):
    req = urllib.request.Request(url, data=body or None, method=method, headers=headers or {})
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def main() -> None:
    config = SystemConfig(admin_password=PASSWORD)
    system = VideoRetrievalSystem.in_memory(config)
    admin = system.login_admin(PASSWORD)
    for video in make_corpus(videos_per_category=2, seed=11, n_shots=2, frames_per_shot=5):
        admin.add_video(video)

    server = AsyncCbvrServer(system)
    base = server.start_in_thread()
    print(f"server on {base}: "
          f"{system.n_videos()} videos / {system.n_key_frames()} key frames\n")

    status, body = request("GET", f"{base}/videos")
    videos = json.loads(body)["videos"]
    print(f"GET /videos -> {status}, {len(videos)} videos; first:", videos[0])

    # upload a new cartoon video over HTTP (admin-authenticated)
    new_clip = generate_video(VideoSpec(category="cartoon", seed=999, n_shots=2, frames_per_shot=5))
    rvf = encode_rvf_bytes(new_clip.frames)
    status, body = request(
        "POST",
        f"{base}/admin/videos?name=uploaded_cartoon&category=cartoon",
        body=rvf,
        headers={"X-Admin-Password": PASSWORD},
    )
    upload = json.loads(body)
    print(f"POST /admin/videos -> {status}:", upload)

    # a wrong password must be rejected
    status, _ = request("POST", f"{base}/admin/videos?name=x", body=rvf,
                        headers={"X-Admin-Password": "wrong"})
    print(f"POST with wrong password -> {status} (expected 401)")

    # search with a frame of the uploaded clip
    query_ppm = new_clip.frames[0].encode("ppm")
    status, body = request("POST", f"{base}/search?top_k=5", body=query_ppm)
    hits = json.loads(body)["results"]
    print(f"\nPOST /search -> {status}; top hits:")
    for h in hits:
        print(f"  #{h['rank']}: {h['video']} [{h['category']}] d={h['distance']}")

    # fetch the best hit's key frame image
    status, body = request("GET", f"{base}/frames/{hits[0]['frame_id']}")
    print(f"\nGET /frames/{hits[0]['frame_id']} -> {status}, "
          f"{len(body)} bytes, magic={body[:2]!r}")

    # delete the uploaded video again
    status, body = request("DELETE", f"{base}/admin/videos/{upload['v_id']}",
                           headers={"X-Admin-Password": PASSWORD})
    print(f"DELETE /admin/videos/{upload['v_id']} -> {status}:", json.loads(body))

    server.stop()


if __name__ == "__main__":
    main()
