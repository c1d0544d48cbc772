"""Schema bootstrap tests."""

import datetime

import pytest

from repro.core.catalog import FEATURE_COLUMNS, bootstrap, is_bootstrapped
from repro.core.ingest import _INSERT_VIDEO, _VIDEO_COLUMNS
from repro.db import ConstraintError, Database, TypeMismatchError, build_insert, build_select


class TestBootstrap:
    def test_creates_both_tables(self):
        db = Database()
        assert not is_bootstrapped(db)
        bootstrap(db)
        assert is_bootstrapped(db)
        assert set(db.table_names()) == {"KEY_FRAMES", "VIDEO_STORE"}

    def test_idempotent(self):
        db = Database()
        bootstrap(db)
        bootstrap(db)  # must not raise
        assert is_bootstrapped(db)

    def test_video_store_schema_matches_paper(self):
        db = Database()
        bootstrap(db)
        row = (1, "v" * 60, "news", b"rvf", None, datetime.date(2012, 10, 1))
        db.execute(_INSERT_VIDEO, row)
        assert db.execute(
            "SELECT V_ID, V_NAME, VIDEO, STREAM, DOSTORE FROM VIDEO_STORE"
        ).rows == [{"V_ID": 1, "V_NAME": "v" * 60, "VIDEO": b"rvf", "STREAM": None,
                    "DOSTORE": datetime.date(2012, 10, 1)}]
        with pytest.raises(ConstraintError):  # V_ID is the primary key
            db.execute(_INSERT_VIDEO, row)
        for column, value in [("V_ID", "1"), ("V_NAME", "v" * 61), ("VIDEO", "text"),
                              ("DOSTORE", "October")]:
            bad = dict(zip(_VIDEO_COLUMNS, (2,) + row[1:]), **{column: value})
            with pytest.raises(TypeMismatchError, match=column):
                db.execute(_INSERT_VIDEO, tuple(bad.values()))
        with pytest.raises(TypeMismatchError, match="STREAM BLOB"):
            db.execute("INSERT INTO VIDEO_STORE (V_ID, STREAM) VALUES (3, 'text')")

    def test_key_frames_schema(self):
        db = Database()
        bootstrap(db)
        columns = ["I_ID", "I_NAME", "IMAGE", "MIN", "MAX", "MAJORREGIONS", "V_ID"]
        columns += FEATURE_COLUMNS.values()
        insert = build_insert("KEY_FRAMES", columns)
        row = [1, "f", b"P6", 0, 3, 2, 1] + ["1.0"] * len(FEATURE_COLUMNS)
        db.execute(insert, row)
        with pytest.raises(ConstraintError):  # I_ID is the primary key
            db.execute(insert, row)
        with pytest.raises(TypeMismatchError, match="IMAGE ORD_IMAGE"):
            db.execute(insert, [2, "f", "P6"] + row[3:])
        assert db.execute(build_select("KEY_FRAMES", columns)).rows == [dict(zip(columns, row))]

    def test_v_id_secondary_index_built(self):
        db = Database()
        bootstrap(db)
        indexes = db._conn.execute("PRAGMA index_list(KEY_FRAMES)").fetchall()
        (name,) = [row[1] for row in indexes if row[1].startswith("IX_")]
        assert db._conn.execute("PRAGMA index_info(" + name + ")").fetchall()[0][2] == "V_ID"
