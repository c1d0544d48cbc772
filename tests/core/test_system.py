"""VideoRetrievalSystem facade tests (ingest, roles, content access)."""

import datetime

import pytest

from repro.core.config import SystemConfig
from repro.core.ingest import _INSERT_VIDEO
from repro.core.system import AuthenticationError, VideoRetrievalSystem
from repro.db.errors import ConstraintError, DatabaseError, TypeMismatchError
from repro.imaging.image import Image


@pytest.fixture()
def system(small_corpus):
    """A fresh mutable system with two videos ingested."""
    s = VideoRetrievalSystem.in_memory()
    admin = s.login_admin()
    admin.add_video(small_corpus[0])
    admin.add_video(small_corpus[2])  # a sports video
    return s


class TestIngest:
    def test_report_contents(self, small_corpus):
        s = VideoRetrievalSystem.in_memory()
        report = s.admin.add_video(small_corpus[0])
        assert report.video_id == 1
        assert report.video_name == small_corpus[0].name
        assert report.n_frames == small_corpus[0].n_frames
        assert report.n_keyframes >= 1

    def test_db_rows_written(self, system):
        assert system.n_videos() == 2
        vids = system.list_videos()
        assert [v["V_ID"] for v in vids] == [1, 2]
        n_kf = system.db.execute("SELECT I_ID FROM KEY_FRAMES").rowcount
        assert n_kf == system.n_key_frames() > 0

    def test_feature_strings_stored(self, system):
        row = system.db.execute("SELECT * FROM KEY_FRAMES WHERE I_ID = 1").rows[0]
        for column in ("SCH", "GLCM", "GABOR", "TAMURA", "ACC", "REGIONS"):
            assert row[column], f"column {column} empty"
        assert row["MIN"] is not None and row["MAX"] is not None
        assert row["MAJORREGIONS"] >= 0

    def test_raw_frames_require_name(self):
        s = VideoRetrievalSystem.in_memory()
        frames = [Image.blank(32, 24, (100, 0, 0))]
        with pytest.raises(ValueError):
            s.admin.add_video(frames)
        report = s.admin.add_video(frames, name="manual", category="misc")
        assert report.video_name == "manual"

    def test_empty_video_rejected(self):
        s = VideoRetrievalSystem.in_memory()
        with pytest.raises(ValueError):
            s.admin.add_video([], name="empty")

    def test_ingest_failure_rolls_back(self, small_corpus, monkeypatch):
        """If a feature extractor blows up mid-video, no partial rows survive."""
        s = VideoRetrievalSystem.in_memory()
        s.admin.add_video(small_corpus[0])
        n_before = s.db.execute("SELECT I_ID FROM KEY_FRAMES").rowcount

        calls = {"n": 0}
        ingestor = s._ingestor
        real = ingestor.extractors["sch"].extract

        def flaky(image):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("extractor crash")
            return real(image)

        monkeypatch.setattr(ingestor.extractors["sch"], "extract", flaky)
        with pytest.raises(RuntimeError):
            s.admin.add_video(small_corpus[1])
        assert s.n_videos() == 1
        assert s.db.execute("SELECT I_ID FROM KEY_FRAMES").rowcount == n_before
        assert s.n_key_frames() == n_before


class TestDelete:
    def test_delete_removes_everything(self, system):
        n_frames_before = system.n_key_frames()
        removed = system.admin.delete_video(1)
        assert removed >= 1
        assert system.n_videos() == 1
        assert system.n_key_frames() == n_frames_before - removed
        assert system.db.execute(
            "SELECT I_ID FROM KEY_FRAMES WHERE V_ID = 1"
        ).rowcount == 0

    def test_delete_unknown_video(self, system):
        with pytest.raises(DatabaseError):
            system.admin.delete_video(999)


class TestRename:
    def test_rename_unknown(self, system):
        with pytest.raises(DatabaseError):
            system.admin.rename_video(999, "x")


class TestAuth:
    def test_open_access_by_default(self):
        s = VideoRetrievalSystem.in_memory()
        assert s.login_admin() is not None

    def test_password_enforced(self):
        s = VideoRetrievalSystem.in_memory(SystemConfig(admin_password="pw"))
        with pytest.raises(AuthenticationError):
            s.login_admin("wrong")
        with pytest.raises(AuthenticationError):
            s.login_admin(None)
        assert s.login_admin("pw") is not None


class TestContentAccess:
    def test_get_video_frames_roundtrip(self, system, small_corpus):
        frames = system.get_video_frames(1)
        assert frames == list(small_corpus[0].frames)

    def test_get_key_frame(self, system):
        img = system.get_key_frame(1)
        assert img.is_rgb

    def test_unknown_ids(self, system):
        with pytest.raises(KeyError):
            system.get_video_frames(99)
        with pytest.raises(KeyError):
            system.get_key_frame(999)

    def test_key_frames_of(self, system):
        records = system.key_frames_of(1)
        assert records and all(r.video_id == 1 for r in records)
        assert [r.frame_id for r in records] == sorted(r.frame_id for r in records)

    def test_any_key_frame(self, system):
        assert system.any_key_frame().is_rgb

    def test_any_key_frame_empty_system(self):
        with pytest.raises(KeyError):
            VideoRetrievalSystem.in_memory().any_key_frame()


class TestPersistence:
    def test_checkpoint_through_admin(self, tmp_path, small_corpus):
        path = str(tmp_path / "lib2.rdb")
        s = VideoRetrievalSystem.open(path)
        admin = s.login_admin()
        admin.add_video(small_corpus[0])
        admin.checkpoint()
        import os

        assert os.path.getsize(path) > 0
        s.close()


class TestDatabaseContract:
    """What the system relies on from its database, seen through the system."""

    def test_search_by_name_is_case_sensitive(self, system, small_corpus):
        name = small_corpus[0].name
        assert [r["V_NAME"] for r in system.search_by_name(name[:4] + "%")] == [name]
        assert system.search_by_name(name[:4].upper() + "%") == []

    def test_a_name_over_60_characters_is_refused(self, system, small_corpus):
        with pytest.raises(TypeMismatchError):  # a DatabaseError subclass
            system.admin.add_video(small_corpus[1], name="v" * 61)
        with pytest.raises(TypeMismatchError):
            system.admin.rename_video(1, "w" * 61)
        assert [v["V_NAME"] for v in system.list_videos()] == [
            small_corpus[0].name, small_corpus[2].name]
        system.admin.add_video(small_corpus[1], name="v" * 60)

    def test_dostore_round_trips_as_a_date(self, tmp_path, small_corpus):
        path = str(tmp_path / "lib.rdb")
        system = VideoRetrievalSystem.open(path)
        system.admin.add_video(small_corpus[0], stored_on=datetime.date(2011, 3, 4))
        system.close()
        reopened = VideoRetrievalSystem.open(path)
        (video,) = reopened.list_videos()
        assert video["DOSTORE"] == datetime.date(2011, 3, 4)
        assert type(video["DOSTORE"]) is datetime.date
        reopened.close()

    def test_duplicate_v_id_is_a_constraint_error(self, system):
        with pytest.raises(ConstraintError):
            system.db.execute(_INSERT_VIDEO, (1, "again", None, None, None, None))
        assert system.n_videos() == 2
