#!/usr/bin/env python3
"""Build the benchmark's corpora and pin them in ``manifest.json``.

Two corpora, both fixed by ``plan.CORPUS_SEED`` and rebuilt on every run
(no cache between invocations: set-up cost is a metric):

``real_1k``
    generator videos really ingested into a durable library through
    ``VideoRetrievalSystem.open`` (default config) and checkpointed.
``feat_10k``
    a small real library expanded **in feature space**: every synthetic
    ``FrameRecord`` is a multiplicative-Gaussian copy (sigma 5 %, clipped
    at 0, ``regions`` untouched) of a real record of its video's category,
    bucket inherited, 50 frames per synthetic video; written once with
    ``build_snapshot_payload`` + ``write_snapshot`` and served as the
    documented read replica.  10 000 records in ~1 s instead of minutes
    of ingest.

``run.py`` calls ``corpus.py build`` in a child process, so the memory of
building never counts as the memory of serving.  By hand::

    python3 benchmarks/e2e/corpus.py manifest            # rebuild + verify
    python3 benchmarks/e2e/corpus.py manifest --write    # re-pin (say why)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

import env

env.require_repro()

import numpy as np  # noqa: E402

import plan  # noqa: E402
from repro.core.snapshots import build_snapshot_payload, open_snapshot_store  # noqa: E402
from repro.core.store import FeatureStore, FrameRecord  # noqa: E402
from repro.core.system import VideoRetrievalSystem  # noqa: E402
from repro.features.base import FeatureVector  # noqa: E402
from repro.sharding import split_store  # noqa: E402
from repro.snapshot import write_snapshot  # noqa: E402
from repro.video.generator import CATEGORIES, SyntheticVideo  # noqa: E402

MANIFEST_PATH = os.path.join(env.BENCH_DIR, "manifest.json")
LIBRARY_NAME = "library.rdb"
FEAT_SNAPSHOT_NAME = "feat.snap"
SHARD_DIR_NAME = "shards"
INFO_NAME = "info.json"

FRAMES_PER_SYNTHETIC_VIDEO = 50
NOISE_SIGMA = 0.05

class CorpusMismatch(RuntimeError):
    """A rebuilt corpus does not hold the pinned number of key frames."""


# -- describing a corpus ---------------------------------------------------------


def describe(store: FeatureStore) -> Dict[str, object]:
    """Key-frame count, bucket histogram and a rounded-feature digest.

    Features are rounded to 5 decimals before hashing, so the digest
    survives last-bit float noise between platforms but not a change to
    an extractor, the key-frame rule or the generator.
    """
    digest = hashlib.sha256()
    histogram: Dict[str, int] = {}
    ids = store.frame_ids()
    for fid in ids:
        record = store.get(fid)
        key = f"{record.bucket.min}-{record.bucket.max}"
        histogram[key] = histogram.get(key, 0) + 1
        digest.update(str(fid).encode())
        for name in sorted(record.features):
            rounded = np.round(record.features[name].values, 5) + 0.0  # no -0.0
            digest.update(name.encode())
            digest.update(rounded.astype("<f8").tobytes())
    return {
        "keyframes": len(ids),
        "videos": len(store.video_ids()),
        "bucket_histogram": dict(sorted(histogram.items())),
        "feature_digest": digest.hexdigest(),
    }


def manifest_key(corpus: str, scale_name: str, keyframes: Optional[int] = None) -> str:
    key = f"{corpus}@{scale_name}"
    return f"{key}/{keyframes}" if keyframes else key


def load_manifest() -> Dict[str, object]:
    with open(MANIFEST_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def verify(key: str, description: Dict[str, object]) -> Dict[str, object]:
    """Check a rebuilt corpus against its pin.

    A count mismatch raises: the run would measure another corpus.  A
    digest mismatch is printed and recorded (``corpus_digest_ok=false``),
    so a feature-changing PR can still run but cannot do so silently.  A
    size nobody pinned (a hand-run ``--keyframes``) is recorded as such.
    """
    pinned = load_manifest()["corpora"].get(key)
    if pinned is None:
        print(f"corpus {key}: not pinned in manifest.json", file=sys.stderr)
        return {"corpus_pinned": False, "corpus_digest_ok": True}
    if pinned["keyframes"] != description["keyframes"]:
        raise CorpusMismatch(
            f"corpus {key}: {description['keyframes']} key frames, "
            f"manifest pins {pinned['keyframes']}"
        )
    digest_ok = pinned["feature_digest"] == description["feature_digest"]
    if not digest_ok:
        print(
            f"corpus {key}: feature digest {description['feature_digest'][:16]}... "
            f"differs from the pinned {pinned['feature_digest'][:16]}... -- the "
            "features changed; numbers are not comparable with earlier runs",
            file=sys.stderr,
        )
    return {"corpus_pinned": True, "corpus_digest_ok": digest_ok}


# -- real ingest ------------------------------------------------------------------


def ingest(system: VideoRetrievalSystem, videos: Sequence[SyntheticVideo]) -> Dict[str, object]:
    """``add_video`` each video, timed."""
    add_ms: List[float] = []
    for video in videos:
        t0 = time.perf_counter()
        system.admin.add_video(video)
        add_ms.append((time.perf_counter() - t0) * 1000.0)
    return {"add_video_ms": add_ms}


def _build_library(out_dir: str, corpus: str, scale: plan.Scale) -> Dict[str, object]:
    """Generator videos really ingested into a durable library (default
    config) and checkpointed; returns what it measured and holds."""
    path = os.path.join(out_dir, LIBRARY_NAME)
    system = VideoRetrievalSystem.open(path)
    try:
        info = ingest(system, plan.corpus_videos(corpus, scale))
        t0 = time.perf_counter()
        system.admin.checkpoint()
        info["checkpoint_s"] = time.perf_counter() - t0
        store = system.feature_store
        info["records"] = [store.get(fid) for fid in store.frame_ids()]
        info.update(describe(store))
    finally:
        system.close()
    info["library"] = path
    return info


def build_real(out_dir: str, scale: plan.Scale) -> Dict[str, object]:
    """``real_1k``: durable library, default config, checkpointed."""
    info = _build_library(out_dir, "real_1k", scale)
    del info["records"]
    info["snapshot_bytes"] = os.path.getsize(info["library"] + ".snap")
    return info


# -- feature-space expansion ---------------------------------------------------------


def expand(
    real: Sequence[FrameRecord], n_keyframes: int, rng: np.random.Generator
) -> FeatureStore:
    """``n_keyframes`` noisy copies of ``real`` records, as a fresh store."""
    by_category = {c: [r for r in real if r.category == c] for c in CATEGORIES}
    empty = [c for c, pool in by_category.items() if not pool]
    if empty:
        raise ValueError(f"seed library has no key frames of {empty}")
    sources: List[FrameRecord] = []
    video_of: List[int] = []
    for start in range(0, n_keyframes, FRAMES_PER_SYNTHETIC_VIDEO):
        video_id = 1 + start // FRAMES_PER_SYNTHETIC_VIDEO
        pool = by_category[CATEGORIES[(video_id - 1) % len(CATEGORIES)]]
        count = min(FRAMES_PER_SYNTHETIC_VIDEO, n_keyframes - start)
        sources.extend(pool[i] for i in rng.integers(0, len(pool), size=count))
        video_of.extend([video_id] * count)
    noisy: Dict[str, np.ndarray] = {}
    for name in real[0].features:
        base = np.stack([r.features[name].values for r in sources])
        if name == "regions":  # small integer counts: noise would unmake them
            noisy[name] = base
        else:
            factor = 1.0 + NOISE_SIGMA * rng.standard_normal(base.shape)
            noisy[name] = np.maximum(base * factor, 0.0)
    store = FeatureStore()
    for i, (source, video_id) in enumerate(zip(sources, video_of)):
        name = f"syn_{video_id:05d}"
        store.add(
            FrameRecord(
                frame_id=i + 1,
                video_id=video_id,
                video_name=name,
                frame_name=f"{name}_f{i % FRAMES_PER_SYNTHETIC_VIDEO:04d}",
                category=source.category,
                bucket=source.bucket,
                features={
                    fname: FeatureVector(
                        kind=fname, values=noisy[fname][i], tag=vector.tag
                    )
                    for fname, vector in source.features.items()
                },
            )
        )
    return store


def build_feat(
    out_dir: str,
    scale: plan.Scale,
    keyframes: Optional[int] = None,
    shards: int = 0,
) -> Dict[str, object]:
    """``feat_10k``: seed library (kept: the workload's write probe works
    on copies of it), expansion, one snapshot (and its shards)."""
    n_keyframes = keyframes or scale.feat_keyframes
    info = _build_library(out_dir, "feat_10k", scale)
    real = info.pop("records")
    info["seed_keyframes"] = len(real)
    big = expand(real, n_keyframes, np.random.default_rng([plan.CORPUS_SEED, n_keyframes]))
    path = os.path.join(out_dir, FEAT_SNAPSHOT_NAME)
    t0 = time.perf_counter()
    arrays, meta = build_snapshot_payload(big)
    write_snapshot(path, arrays, meta)
    info["snapshot_write_s"] = time.perf_counter() - t0
    info["snapshot"] = path
    info["snapshot_bytes"] = os.path.getsize(path)
    if shards:
        shard_dir = os.path.join(out_dir, SHARD_DIR_NAME)
        t0 = time.perf_counter()
        split_store(big, shard_dir, shards)
        info["split_s"] = time.perf_counter() - t0
        info["shard_dir"] = shard_dir
    info.update(describe(big))
    return info


# -- commands ----------------------------------------------------------------------------


def _cmd_build(args: argparse.Namespace) -> int:
    scale = plan.SCALES[args.scale]
    os.makedirs(args.out, exist_ok=True)
    if args.kind == "real":
        info = build_real(args.out, scale)
        key = manifest_key("real_1k", args.scale)
    else:
        info = build_feat(args.out, scale, args.keyframes, args.shards)
        key = manifest_key("feat_10k", args.scale, args.keyframes)
    info.update(verify(key, info))
    with open(os.path.join(args.out, INFO_NAME), "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    return 0


def _generator_facts(key: str, scale: plan.Scale) -> Dict[str, object]:
    name = key.split("@")[0]
    facts = plan.recipe(name, scale)
    if name == "feat_10k":
        facts["expansion"] = {
            "keyframes": scale.feat_keyframes,
            "sigma": NOISE_SIGMA,
            "frames_per_video": FRAMES_PER_SYNTHETIC_VIDEO,
        }
    return facts


def _cmd_manifest(args: argparse.Namespace) -> int:
    manifest = load_manifest() if os.path.exists(MANIFEST_PATH) else {
        "schema": "cbvr-bench-manifest/1", "corpora": {},
    }
    os.makedirs(env.OUT_DIR, exist_ok=True)
    status = 0
    for scale_name in args.scale or sorted(plan.SCALES):
        scale = plan.SCALES[scale_name]
        with tempfile.TemporaryDirectory(dir=env.OUT_DIR) as real_dir, \
                tempfile.TemporaryDirectory(dir=env.OUT_DIR) as feat_dir:
            built = {
                manifest_key("real_1k", scale_name): build_real(real_dir, scale),
                manifest_key("feat_10k", scale_name): build_feat(feat_dir, scale),
                manifest_key("churn_bulk", scale_name): build_churn_bulk(scale),
            }
        for key, info in built.items():
            entry = {
                k: info[k]
                for k in ("keyframes", "videos", "bucket_histogram", "feature_digest")
            }
            entry["generator"] = _generator_facts(key, scale)
            if args.write:
                manifest["corpora"][key] = entry
                print(f"pinned   {key}: {entry['keyframes']} key frames")
                continue
            try:
                outcome = verify(key, info)
            except CorpusMismatch as exc:
                print(f"MISMATCH {exc}")
                status = 1
                continue
            ok = outcome["corpus_pinned"] and outcome["corpus_digest_ok"]
            print(f"{'ok      ' if ok else 'DIFFERS '} {key}: {entry['keyframes']} key frames")
            status = status or (0 if ok else 1)
    if args.write:
        with open(MANIFEST_PATH, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


def build_churn_bulk(scale: plan.Scale) -> Dict[str, object]:
    """The library ``library_churn`` holds after its bulk phase (manifest only)."""
    system = VideoRetrievalSystem.in_memory()
    try:
        ingest(system, plan.corpus_videos("churn_bulk", scale))
        return describe(system.feature_store)
    finally:
        system.close()


def open_records(snapshot_path: str) -> List[FrameRecord]:
    """Every record of a snapshot, with its features read out of the mmap
    (the oracle keeps them after the file is closed)."""
    snapshot, store = open_snapshot_store(snapshot_path)
    try:
        return [
            FrameRecord(
                frame_id=r.frame_id,
                video_id=r.video_id,
                video_name=r.video_name,
                frame_name=r.frame_name,
                category=r.category,
                bucket=r.bucket,
                features=dict(r.features.items()),
            )
            for r in (store.get(fid) for fid in store.frame_ids())
        ]
    finally:
        snapshot.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    build = sub.add_parser("build", help="build one corpus into --out (run.py's child)")
    build.add_argument("--kind", choices=("real", "feat"), required=True)
    build.add_argument("--scale", choices=sorted(plan.SCALES), default="bench")
    build.add_argument("--keyframes", type=int, default=None,
                       help="feat corpus size, overriding the scale's")
    build.add_argument("--shards", type=int, default=0,
                       help="also split the feat corpus into this many shards")
    build.add_argument("--out", required=True)
    build.set_defaults(run=_cmd_build)
    manifest = sub.add_parser("manifest", help="rebuild every corpus and verify its pin")
    manifest.add_argument("--scale", action="append", choices=sorted(plan.SCALES))
    manifest.add_argument("--write", action="store_true", help="re-pin instead of verify")
    manifest.set_defaults(run=_cmd_manifest)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
