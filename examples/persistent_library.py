"""Durability demo: a video library that survives restarts.

Ingests a corpus into an on-disk library (database file + write-ahead log
+ the store's mmap image), "restarts" by reopening the files, and verifies that search works over the
reloaded state -- the paper's "Video Storage and Retrieval System, stores
and manages a large number of video data" claim, minus Oracle.

Run:  python examples/persistent_library.py
"""

import os
import tempfile
import time

from repro import VideoRetrievalSystem, make_corpus


def main() -> None:
    path = os.path.join(tempfile.mkdtemp(prefix="cbvr_"), "library.rdb")

    # session 1: ingest
    t0 = time.time()
    system = VideoRetrievalSystem.open(path)
    admin = system.login_admin()
    for video in make_corpus(videos_per_category=2, seed=5, n_shots=2, frames_per_shot=5):
        admin.add_video(video)
    n_videos, n_frames = system.n_videos(), system.n_key_frames()
    admin.checkpoint()  # write the image, then fold the WAL into the database file
    system.close()
    print(f"session 1: ingested {n_videos} videos / {n_frames} key frames "
          f"in {time.time() - t0:.1f}s")
    print(f"  database: {os.path.getsize(path):,} bytes; "
          f"wal: {os.path.getsize(path + '.wal'):,} bytes; "
          f"image: {os.path.getsize(path + '.snap'):,} bytes")

    # session 2: reopen and search
    t0 = time.time()
    reopened = VideoRetrievalSystem.open(path)
    assert reopened.n_videos() == n_videos
    assert reopened.n_key_frames() == n_frames
    print(f"session 2: reopened in {time.time() - t0:.1f}s from "
          f"{reopened.snapshots.served_from} -- "
          f"{reopened.n_videos()} videos / {reopened.n_key_frames()} key frames")

    query = reopened.any_key_frame()
    results = reopened.search(query, top_k=3)
    print("  search over reloaded store:")
    for row in results.to_rows():
        print(f"    #{row['rank']}: {row['video']} [{row['category']}] d={row['distance']}")

    # session 3: delete a video inside a crash-safe transaction, reopen
    admin = reopened.login_admin()
    removed = admin.delete_video(1)
    reopened.close()
    final = VideoRetrievalSystem.open(path)  # the image + the delete from the WAL
    print(f"session 3: deleted video 1 ({removed} key frames); "
          f"after reopen from {final.snapshots.served_from}: {final.n_videos()} videos remain")
    final.close()


if __name__ == "__main__":
    main()
