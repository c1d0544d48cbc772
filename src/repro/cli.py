"""Command-line interface: ``python -m repro <command>``.

Wraps the library's main entry points so the system is usable without
writing Python:

- ``demo-corpus``  -- render a synthetic corpus into ``.rvf`` video files
- ``ingest``       -- add ``.rvf`` videos to a durable library
- ``list``         -- show the library's videos
- ``search``       -- query the library with an image file (PPM/PGM/BMP)
- ``delete``       -- remove a video
- ``export-frame`` -- write a stored key frame to an image file
- ``serve``        -- start the HTTP facade on a library
- ``snapshot``     -- manage a library's mmap snapshot (write/info/verify)
- ``shard``        -- split a library into scatter-gather shard snapshots
- ``table1``       -- run the paper's Table 1 experiment
- ``lint``         -- run the reprolint static analyzer over source paths

Every command prints plain text and exits non-zero on errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import VideoRetrievalSystem

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Content-based video retrieval (Patel & Meshram, IJMA 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo-corpus", help="render synthetic .rvf videos")
    p.add_argument("out_dir", help="directory to write .rvf files into")
    p.add_argument("--per-category", type=int, default=2)
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--shots", type=int, default=3)
    p.add_argument("--frames-per-shot", type=int, default=6)

    p = sub.add_parser("ingest", help="add .rvf videos to a library")
    p.add_argument("library", help="library database path (.rdb)")
    p.add_argument("videos", nargs="+", help=".rvf files to ingest")
    p.add_argument("--category", default=None,
                   help="category label (default: inferred from file name)")

    p = sub.add_parser("list", help="list the library's videos")
    p.add_argument("library")

    p = sub.add_parser("search", help="query by image file")
    p.add_argument("library")
    p.add_argument("image", help="query image (PPM/PGM/BMP)")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--features", default=None,
                   help="comma-separated feature names (default: combined)")
    p.add_argument("--no-index", action="store_true",
                   help="full scan instead of range-finder pruning")
    p.add_argument("--ann", action="store_true",
                   help="sublinear retrieval: probe the IVF inverted-file "
                        "candidate index and re-rank exactly")
    p.add_argument("--ann-cells", type=int, default=16,
                   help="k-means cells of the IVF coarse quantizer")
    p.add_argument("--ann-nprobe", type=int, default=3,
                   help="cells probed per query (= cells: exact ranking)")
    p.add_argument("--shards", default=None, metavar="DIR",
                   help="serve the query from the shard set in DIR "
                        "(written by 'repro shard split'); the merged "
                        "ranking is identical to the unsharded one")
    p.add_argument("--explain", action="store_true",
                   help="print the query's explain payload as JSON "
                        "(candidate counts, pruning ratio, per-stage and "
                        "per-shard timings, cache/ANN decisions)")

    p = sub.add_parser("delete", help="delete a video by id")
    p.add_argument("library")
    p.add_argument("video_id", type=int)

    p = sub.add_parser("export-frame", help="write a stored key frame to a file")
    p.add_argument("library")
    p.add_argument("frame_id", type=int)
    p.add_argument("out", help="output image path (.ppm/.pgm/.bmp)")

    p = sub.add_parser("serve", help="serve the HTTP facade")
    p.add_argument("library")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--admin-password", default=None)
    p.add_argument("--shards", default=None, metavar="DIR",
                   help="serve queries scatter-gather from the shard set "
                        "in DIR (written by 'repro shard split')")
    # accepted and ignored: benchmarks/e2e/loadgen.py, which this repo may
    # not edit, still passes it; there is one server (docs/serving.md)
    p.add_argument("--async", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser(
        "shard",
        help="split a library into scatter-gather shards (see docs/sharding.md)",
    )
    hsub = p.add_subparsers(dest="shard_command", required=True)
    hp = hsub.add_parser(
        "split", help="partition the corpus into per-shard snapshots"
    )
    hp.add_argument("library", help="library database path (.rdb)")
    hp.add_argument("out_dir", help="directory for the shard snapshots")
    hp.add_argument("--shards", type=int, default=4, dest="n_shards",
                    help="number of partitions (default 4)")
    hp = hsub.add_parser("info", help="summarize a shard directory")
    hp.add_argument("shard_dir", help="directory holding shards.json")
    hp.add_argument("--json", action="store_true",
                    help="emit the summary as JSON")

    p = sub.add_parser(
        "snapshot", help="manage a library's mmap snapshot (see docs/snapshot.md)"
    )
    ssub = p.add_subparsers(dest="snapshot_command", required=True)
    sp = ssub.add_parser(
        "write", help="rewrite the library's snapshot at its last commit now"
    )
    sp.add_argument("library", help="library database path (.rdb)")
    sp.add_argument("--path", default=None,
                    help="snapshot file (default: LIBRARY.snap)")
    sp = ssub.add_parser("info", help="print a snapshot file's header summary")
    sp.add_argument("snapshot", help="snapshot file path (.snap)")
    sp.add_argument("--json", action="store_true",
                    help="emit the summary as JSON")
    sp = ssub.add_parser(
        "verify", help="recompute every section checksum (reads the whole file)"
    )
    sp.add_argument("snapshot", help="snapshot file path (.snap)")

    p = sub.add_parser("stats", help="show library counters and live metrics")
    p.add_argument("library", nargs="?", default=None,
                   help="library database path (.rdb)")
    p.add_argument("--dump", default=None,
                   help="read a saved metrics JSON dump instead of a library "
                        "(as written by 'repro stats LIB --json')")
    p.add_argument("--search-image", default=None,
                   help="run one query with this image first, so search "
                        "metrics carry samples")
    p.add_argument("--json", action="store_true",
                   help="emit the raw snapshot as JSON instead of a table")
    p.add_argument("--slow", action="store_true",
                   help="also print the slow-query log (newest first); "
                        "works live and from --dump files")

    p = sub.add_parser(
        "lint",
        help="run the reprolint static analyzer (see 'repro lint --help')",
        add_help=False,
    )
    p.add_argument("lint_args", nargs=argparse.REMAINDER)

    p = sub.add_parser("table1", help="run the paper's Table 1 experiment")
    p.add_argument("--videos-per-category", type=int, default=8)
    p.add_argument("--queries-per-category", type=int, default=6)
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--no-index", action="store_true")

    return parser


def _open_system(
    path: str, admin_password: Optional[str] = None
) -> "VideoRetrievalSystem":
    from repro.core.config import SystemConfig
    from repro.core.system import VideoRetrievalSystem

    config = SystemConfig(admin_password=admin_password) if admin_password else None
    return VideoRetrievalSystem.open(path, config)


def _cmd_demo_corpus(args: argparse.Namespace) -> int:
    from repro.video.codec import write_rvf
    from repro.video.generator import make_corpus

    os.makedirs(args.out_dir, exist_ok=True)
    corpus = make_corpus(
        videos_per_category=args.per_category,
        seed=args.seed,
        n_shots=args.shots,
        frames_per_shot=args.frames_per_shot,
    )
    for video in corpus:
        path = os.path.join(args.out_dir, f"{video.name}.rvf")
        write_rvf(video.frames, path)
        print(f"wrote {path} ({video.n_frames} frames, {video.category})")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.video.codec import RvfReader

    system = _open_system(args.library)
    admin = system.login_admin()
    for path in args.videos:
        name = os.path.splitext(os.path.basename(path))[0]
        category = args.category or name.rsplit("_", 1)[0]
        frames = list(RvfReader.open(path))
        report = admin.add_video(frames, name=name, category=category)
        print(f"ingested {name}: video {report.video_id}, "
              f"{report.n_frames} frames -> {report.n_keyframes} key frames")
    admin.checkpoint()
    system.close()
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    system = _open_system(args.library)
    videos = system.list_videos()
    if not videos:
        print("(library is empty)")
    for v in videos:
        frames = system.key_frames_of(v["V_ID"])
        print(f"{v['V_ID']:4d}  {v['V_NAME']:<24} {str(v['CATEGORY']):<12} "
              f"{len(frames)} key frames")
    system.close()
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.imaging.image import read_image

    if args.ann:
        from repro.core.config import SystemConfig
        from repro.core.system import VideoRetrievalSystem

        config = SystemConfig(
            ann=True, ann_cells=args.ann_cells, ann_nprobe=args.ann_nprobe
        )
        system = VideoRetrievalSystem.open(args.library, config)
    else:
        system = _open_system(args.library)
    if args.shards:
        if args.ann:
            print("error: --ann cannot be combined with --shards",
                  file=sys.stderr)
            system.close()
            return 2
        from repro.sharding import attach_sharded_engine, read_manifest

        _, shard_paths = read_manifest(args.shards)
        attach_sharded_engine(system, shard_paths)
    query = read_image(args.image)
    features = args.features.split(",") if args.features else None
    results = system.search(
        query,
        features=features,
        top_k=args.top_k,
        use_index=not args.no_index,
    )
    print(f"{len(results)} hits "
          f"(pruned {results.pruning_fraction:.0%} of {results.n_total} frames)")
    if results.degraded_features:
        skipped = ", ".join(results.degraded_features)
        print(f"DEGRADED: skipped {skipped}; ranking uses the surviving "
              f"features with renormalized fusion weights")
    if results.degraded_shards:
        shards = ", ".join(str(s) for s in results.degraded_shards)
        print(f"DEGRADED: shards {shards} unavailable; partial ranking over "
              f"the surviving partitions")
    for row in results.to_rows():
        print(f"  #{row['rank']:2d}  {row['video']:<24} "
              f"[{row['category']}]  frame {row['frame_id']}  d={row['distance']}")
    if args.explain:
        import json

        print("explain:")
        print(json.dumps(results.explain, indent=2, sort_keys=True, default=str))
    system.close()
    return 0


def _cmd_delete(args: argparse.Namespace) -> int:
    system = _open_system(args.library)
    removed = system.login_admin().delete_video(args.video_id)
    print(f"deleted video {args.video_id} ({removed} key frames)")
    system.close()
    return 0


def _cmd_export_frame(args: argparse.Namespace) -> int:
    system = _open_system(args.library)
    image = system.get_key_frame(args.frame_id)
    image.save(args.out)
    print(f"wrote {args.out} ({image.width}x{image.height})")
    system.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:  # pragma: no cover - blocking loop
    from repro.serving import AsyncCbvrServer

    if args.shards:
        from repro.core.config import SystemConfig
        from repro.core.system import VideoRetrievalSystem
        from repro.sharding import sharded_config

        config = sharded_config(
            args.shards, SystemConfig(admin_password=args.admin_password)
        )
        system = VideoRetrievalSystem.open(args.library, config)
    else:
        system = _open_system(args.library, admin_password=args.admin_password)
    sharded = f", {system.config.shards} shards" if args.shards else ""
    try:
        server = AsyncCbvrServer(system, port=args.port)
        print(f"serving {args.library} on http://127.0.0.1:{args.port} "
              f"({system.n_videos()} videos{sharded})")
        server.serve_blocking()
    except KeyboardInterrupt:
        pass
    finally:
        system.close()
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.eval.table1 import PAPER_TABLE1, run_table1

    result = run_table1(
        videos_per_category=args.videos_per_category,
        queries_per_category=args.queries_per_category,
        seed=args.seed,
        use_index=not args.no_index,
    )
    print(result.to_text(paper=PAPER_TABLE1))
    print("combined wins at:", result.combined_wins())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs import format_stats

    if (args.library is None) == (args.dump is None):
        print("error: stats needs a library path or --dump FILE (not both)",
              file=sys.stderr)
        return 2
    if args.dump is not None:
        with open(args.dump, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
    else:
        system = _open_system(args.library)
        if args.search_image is not None:
            from repro.imaging.image import read_image

            system.search(read_image(args.search_image), top_k=10)
        snapshot = system.metrics()
        system.close()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True, default=str))
    else:
        print(format_stats(snapshot))
    if args.slow:
        _print_slow_log(snapshot.get("slow_log"))
    return 0


def _print_slow_log(slow) -> None:
    """Render the slow-query section of a metrics snapshot as text."""
    if not slow:
        print("slow queries: (log disabled)")
        return
    print(f"slow queries: {slow.get('recorded_total', 0)} recorded "
          f"(threshold {slow.get('threshold_ms')} ms, "
          f"buffered {slow.get('buffered', 0)}/{slow.get('capacity')})")
    for entry in slow.get("recent") or []:
        trace = entry.get("trace_id") or "-"
        print(f"  {entry.get('ms'):>10} ms  kind={entry.get('kind')}  "
              f"trace={trace}  candidates={entry.get('candidates')}  "
              f"degraded={entry.get('degraded')}")


def _cmd_snapshot(args: argparse.Namespace) -> int:
    import json

    from repro.snapshot import CorruptSnapshotError, Snapshot

    if args.snapshot_command == "write":
        from repro.core.config import SystemConfig
        from repro.core.system import VideoRetrievalSystem

        config = SystemConfig(snapshot="auto", snapshot_path=args.path)
        system = VideoRetrievalSystem.open(args.library, config)
        try:
            path = system.write_snapshot()
        finally:
            system.close()
        print(f"wrote {path} ({os.path.getsize(path)} bytes, "
              f"{system.n_key_frames()} key frames)")
        return 0

    snap = Snapshot.open(args.snapshot)
    try:
        if args.snapshot_command == "info":
            from repro.core.snapshots import named_log

            summary = snap.info()
            meta = summary["meta"]
            summary["commit_seq"] = meta.get("commit_seq")
            log = named_log(snap)
            if log is not None and log.token == meta.get("token"):
                summary["commits_behind"] = log.last - int(meta["commit_seq"])
            if args.json:
                print(json.dumps(summary, indent=2, sort_keys=True))
            else:
                print(f"{summary['path']}: v{summary['version']}, "
                      f"{summary['file_size']} bytes, "
                      f"generation {meta.get('generation')}, "
                      f"commit_seq {summary['commit_seq']}, "
                      f"commits_behind {summary.get('commits_behind')}")
                for s in summary["sections"]:
                    shape = "x".join(str(d) for d in s["shape"])
                    print(f"  {s['name']:<24} {s['dtype']:<8} {shape:>12} "
                          f"{s['nbytes']} bytes")
            return 0
        failures = snap.verify()
        if failures:
            raise CorruptSnapshotError(
                f"{args.snapshot}: checksum mismatch in "
                + ", ".join(failures)
            )
        print(f"{args.snapshot}: OK ({len(snap.section_names())} sections)")
        return 0
    finally:
        snap.close()


def _cmd_shard(args: argparse.Namespace) -> int:
    import json

    if args.shard_command == "split":
        from repro.sharding import split_library

        manifest = split_library(args.library, args.out_dir, args.n_shards)
        print(f"wrote {manifest.n_shards} shards to {args.out_dir}")
        for name in manifest.snapshots:
            path = os.path.join(args.out_dir, name)
            print(f"  {name}  {os.path.getsize(path)} bytes")
        return 0

    from repro.sharding import read_manifest
    from repro.snapshot import Snapshot

    manifest, paths = read_manifest(args.shard_dir)
    shards = []
    for index, path in enumerate(paths):
        snap = Snapshot.open(path)
        try:
            meta = snap.meta
            shards.append({
                "index": index,
                "snapshot": manifest.snapshots[index],
                "frames": int(meta.get("n_frames", 0)),
                "videos": len(meta.get("videos", {})),
                "bytes": os.path.getsize(path),
            })
        finally:
            snap.close()
    summary = {"n_shards": manifest.n_shards, "shards": shards}
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"{args.shard_dir}: {manifest.n_shards} shards, "
              f"{sum(s['frames'] for s in shards)} key frames")
        for s in shards:
            print(f"  shard {s['index']}: {s['snapshot']}  "
                  f"{s['videos']} videos, {s['frames']} frames, "
                  f"{s['bytes']} bytes")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.runner import main as lint_main

    return lint_main(args.lint_args)


_COMMANDS = {
    "demo-corpus": _cmd_demo_corpus,
    "lint": _cmd_lint,
    "ingest": _cmd_ingest,
    "list": _cmd_list,
    "search": _cmd_search,
    "delete": _cmd_delete,
    "export-frame": _cmd_export_frame,
    "stats": _cmd_stats,
    "snapshot": _cmd_snapshot,
    "shard": _cmd_shard,
    "serve": _cmd_serve,
    "table1": _cmd_table1,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        # dispatch before argparse: REMAINDER would refuse leading --flags
        return _cmd_lint(argparse.Namespace(lint_args=argv[1:]))
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # database / format / resilience errors carry messages
        from repro.db.errors import DatabaseError
        from repro.imaging.image import ImageFormatError
        from repro.resilience import ResilienceError
        from repro.snapshot import SnapshotError
        from repro.video.codec import RvfError

        if isinstance(
            exc,
            (DatabaseError, RvfError, ImageFormatError, ResilienceError, SnapshotError),
        ):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
