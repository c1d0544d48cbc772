"""CLI tests (driving repro.cli.main directly)."""

import os

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def corpus_dir(tmp_path):
    out = str(tmp_path / "corpus")
    rc = main(["demo-corpus", out, "--per-category", "1",
               "--shots", "2", "--frames-per-shot", "4", "--seed", "3"])
    assert rc == 0
    return out


@pytest.fixture()
def library(tmp_path, corpus_dir, capsys):
    lib = str(tmp_path / "lib.rdb")
    videos = sorted(
        os.path.join(corpus_dir, f) for f in os.listdir(corpus_dir)
    )
    rc = main(["ingest", lib] + videos)
    assert rc == 0
    capsys.readouterr()
    return lib


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestDemoCorpus:
    def test_writes_rvf_files(self, corpus_dir):
        files = sorted(os.listdir(corpus_dir))
        assert len(files) == 5  # one per category
        assert all(f.endswith(".rvf") for f in files)

    def test_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["demo-corpus", a, "--per-category", "1", "--shots", "1",
              "--frames-per-shot", "2", "--seed", "9"])
        main(["demo-corpus", b, "--per-category", "1", "--shots", "1",
              "--frames-per-shot", "2", "--seed", "9"])
        for f in os.listdir(a):
            with open(os.path.join(a, f), "rb") as fa, open(os.path.join(b, f), "rb") as fb:
                assert fa.read() == fb.read()


class TestIngestAndList:
    def test_list_shows_videos(self, library, capsys):
        rc = main(["list", library])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cartoon_000" in out and "key frames" in out

    def test_category_inferred_from_name(self, library, capsys):
        main(["list", library])
        out = capsys.readouterr().out
        assert "sports" in out

    def test_ingest_missing_file(self, tmp_path, capsys):
        rc = main(["ingest", str(tmp_path / "x.rdb"), str(tmp_path / "nope.rvf")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_empty_library_list(self, tmp_path, capsys):
        rc = main(["list", str(tmp_path / "fresh.rdb")])
        assert rc == 0
        assert "empty" in capsys.readouterr().out


class TestSearch:
    def test_search_with_exported_frame(self, library, tmp_path, capsys):
        frame_path = str(tmp_path / "query.ppm")
        rc = main(["export-frame", library, "1", frame_path])
        assert rc == 0
        capsys.readouterr()

        rc = main(["search", library, frame_path, "--top-k", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# 1" in out and "d=0.0" in out

    def test_search_single_feature_no_index(self, library, tmp_path, capsys):
        frame_path = str(tmp_path / "q.ppm")
        main(["export-frame", library, "1", frame_path])
        capsys.readouterr()
        rc = main(["search", library, frame_path, "--features", "sch", "--no-index"])
        assert rc == 0
        assert "pruned 0%" in capsys.readouterr().out

    def test_search_bad_image(self, library, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"garbage")
        rc = main(["search", library, str(bad)])
        assert rc == 1

    def test_unknown_feature(self, library, tmp_path, capsys):
        frame_path = str(tmp_path / "q.ppm")
        main(["export-frame", library, "1", frame_path])
        rc = main(["search", library, frame_path, "--features", "sift"])
        assert rc == 1


class TestDeleteAndExport:
    def test_delete(self, library, capsys):
        rc = main(["delete", library, "1"])
        assert rc == 0
        capsys.readouterr()
        main(["list", library])
        out = capsys.readouterr().out
        assert "   1  " not in out

    def test_delete_unknown(self, library, capsys):
        rc = main(["delete", library, "99"])
        assert rc == 1

    def test_export_unknown_frame(self, library, tmp_path):
        rc = main(["export-frame", library, "999", str(tmp_path / "o.ppm")])
        assert rc == 1

    def test_export_roundtrip(self, library, tmp_path):
        from repro.imaging.image import read_image

        out = str(tmp_path / "frame.bmp")
        rc = main(["export-frame", library, "1", out])
        assert rc == 0
        img = read_image(out)
        assert img.width > 0


class TestStats:
    def test_live_library_table(self, library, capsys):
        rc = main(["stats", library])
        assert rc == 0
        out = capsys.readouterr().out
        assert "store    videos=5" in out
        assert "ann      (disabled)" in out
        assert "repro_ingest_videos_total" not in out  # fresh open: no ingest

    def test_search_image_populates_query_metrics(self, library, tmp_path,
                                                  capsys):
        frame = str(tmp_path / "q.ppm")
        main(["export-frame", library, "1", frame])
        capsys.readouterr()
        rc = main(["stats", library, "--search-image", frame])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro_search_queries_total" in out

    def test_json_dump_roundtrip(self, library, tmp_path, capsys):
        import json

        rc = main(["stats", library, "--json"])
        assert rc == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["store"]["videos"] == 5

        dump = tmp_path / "metrics.json"
        dump.write_text(json.dumps(snapshot), encoding="utf-8")
        rc = main(["stats", "--dump", str(dump)])
        assert rc == 0
        out = capsys.readouterr().out
        # --json sorts keys, so field order differs from the live table
        assert "videos=5" in out and out.startswith("store")

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        assert main(["stats"]) == 2
        assert "not both" in capsys.readouterr().err
        dump = tmp_path / "d.json"
        dump.write_text("{}", encoding="utf-8")
        assert main(["stats", "lib.rdb", "--dump", str(dump)]) == 2


class TestSnapshot:
    def test_write_info_verify(self, library, capsys):
        rc = main(["snapshot", "write", library])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        snap = library + ".snap"
        assert os.path.exists(snap)

        rc = main(["snapshot", "info", snap])
        assert rc == 0
        out = capsys.readouterr().out
        assert "generation" in out and "feat:" in out

        rc = main(["snapshot", "verify", snap])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_info_json(self, library, capsys):
        import json

        main(["snapshot", "write", library])
        capsys.readouterr()
        rc = main(["snapshot", "info", library + ".snap", "--json"])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["version"] == 1
        assert info["commit_seq"] == info["meta"]["commit_seq"] > 0
        assert info["commits_behind"] == 0
        assert any(s["name"].startswith("feat:") for s in info["sections"])

    def test_verify_rejects_corruption(self, library, capsys):
        from repro.snapshot import Snapshot

        main(["snapshot", "write", library])
        snap = library + ".snap"
        handle = Snapshot.open(snap)
        offset = int(handle._table[handle.section_names()[0]]["offset"])
        handle.close()
        with open(snap, "r+b") as fh:
            fh.seek(offset + 3)
            byte = fh.read(1)
            fh.seek(offset + 3)
            fh.write(bytes([byte[0] ^ 0xFF]))
        capsys.readouterr()
        rc = main(["snapshot", "verify", snap])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_snapshot_file(self, tmp_path, capsys):
        rc = main(["snapshot", "info", str(tmp_path / "nope.snap")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestServe:
    @pytest.mark.parametrize("flags", [[], ["--async"]], ids=["plain", "async-flag"])
    def test_one_server_whatever_the_flags(self, library, capsys, monkeypatch, flags):
        """``--async`` is accepted for old callers and selects nothing."""
        started = []
        monkeypatch.setattr(
            "repro.serving.AsyncCbvrServer.serve_blocking",
            lambda server: started.append(server),
        )
        assert main(["serve", library, "--port", "0", *flags]) == 0
        (server,) = started
        assert server.port == 0
        assert f"serving {library} on http://127.0.0.1:0" in capsys.readouterr().out


class TestShard:
    def test_split_info_and_identical_sharded_search(self, library, tmp_path,
                                                     capsys):
        shards = str(tmp_path / "shards")
        rc = main(["shard", "split", library, shards, "--shards", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote 3 shards" in out
        assert "shard-000.snap" in out

        rc = main(["shard", "info", shards])
        assert rc == 0
        assert "3 shards" in capsys.readouterr().out

        frame = str(tmp_path / "q.ppm")
        main(["export-frame", library, "1", frame])
        capsys.readouterr()
        rc = main(["search", library, frame, "--top-k", "3"])
        assert rc == 0
        plain = capsys.readouterr().out
        rc = main(["search", library, frame, "--top-k", "3", "--shards", shards])
        assert rc == 0
        # scatter-gather output is byte-identical to the unsharded ranking
        assert capsys.readouterr().out == plain

    def test_info_json(self, library, tmp_path, capsys):
        import json

        shards = str(tmp_path / "s")
        main(["shard", "split", library, shards, "--shards", "2"])
        capsys.readouterr()
        rc = main(["shard", "info", shards, "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_shards"] == 2
        assert sum(s["frames"] for s in summary["shards"]) > 0

    def test_search_rejects_ann_with_shards(self, library, tmp_path, capsys):
        shards = str(tmp_path / "s")
        main(["shard", "split", library, shards, "--shards", "2"])
        frame = str(tmp_path / "q.ppm")
        main(["export-frame", library, "1", frame])
        capsys.readouterr()
        rc = main(["search", library, frame, "--ann", "--shards", shards])
        assert rc == 2
        assert "--ann" in capsys.readouterr().err


class TestExplainFlag:
    def test_search_explain_prints_payload(self, library, tmp_path, capsys):
        import json

        frame = str(tmp_path / "q.ppm")
        main(["export-frame", library, "1", frame])
        capsys.readouterr()
        rc = main(["search", library, frame, "--top-k", "3", "--explain"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "explain:" in out
        explain = json.loads(out.split("explain:", 1)[1])
        assert explain["kind"] == "frame"
        assert explain["total_ms"] >= 0
        assert explain["index"]["used"] is True

    def test_search_without_flag_stays_terse(self, library, tmp_path, capsys):
        frame = str(tmp_path / "q.ppm")
        main(["export-frame", library, "1", frame])
        capsys.readouterr()
        rc = main(["search", library, frame, "--top-k", "3"])
        assert rc == 0
        assert "explain" not in capsys.readouterr().out


class TestSlowFlag:
    def test_live_default_threshold_records_nothing(self, library, capsys):
        rc = main(["stats", library, "--slow"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "slow queries: 0 recorded" in out

    def test_dump_mode_prints_entries(self, tmp_path, capsys):
        import json

        dump = tmp_path / "metrics.json"
        dump.write_text(json.dumps({
            "store": {"videos": 1, "key_frames": 3, "generation": 1},
            "slow_log": {
                "threshold_ms": 5.0, "capacity": 8,
                "recorded_total": 2, "buffered": 1,
                "recent": [{
                    "ts": 0.0, "ms": 12.5, "kind": "frame",
                    "trace_id": "ab" * 16, "candidates": 9,
                    "degraded": False,
                }],
            },
        }), encoding="utf-8")
        rc = main(["stats", "--dump", str(dump), "--slow"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "slow queries: 2 recorded" in out
        assert "kind=frame" in out
        assert "ab" * 16 in out

    def test_dump_mode_disabled_log(self, tmp_path, capsys):
        import json

        dump = tmp_path / "metrics.json"
        dump.write_text(json.dumps({
            "store": {"videos": 0, "key_frames": 0, "generation": 0},
            "slow_log": None,
        }), encoding="utf-8")
        rc = main(["stats", "--dump", str(dump), "--slow"])
        assert rc == 0
        assert "(log disabled)" in capsys.readouterr().out
