"""Fuzz tests: malformed inputs must fail with the *typed* error, never
an unexpected exception.  Every parser/codec boundary in the system gets a
hypothesis-driven hostile-input pass.
"""

import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.snapshots import open_snapshot_store
from repro.core.store import FeatureStore
from repro.core.system import VideoRetrievalSystem
from repro.db import Database
from repro.db.errors import DatabaseError
from repro.db.storage import Storage, read_log
from repro.imaging.image import Image, ImageFormatError, decode_image
from repro.video.codec import RvfError, RvfReader, encode_rvf_bytes
from tests.integration.test_stateful import assert_same_store


def _valid_rvf():
    gen = np.random.default_rng(5)
    frames = [
        Image(gen.integers(0, 256, (8, 10, 3), dtype=np.uint8)) for _ in range(3)
    ]
    return frames, encode_rvf_bytes(frames)


class TestRvfFuzz:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncation_is_typed_error_or_decodes(self, data):
        frames, blob = _valid_rvf()
        cut = data.draw(st.integers(0, len(blob)))
        try:
            reader = RvfReader(blob[:cut])
            decoded = list(reader)
        except RvfError:
            return
        assert decoded == frames  # only the full file can fully decode

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bitflip_never_raises_unexpected(self, data):
        _frames, blob = _valid_rvf()
        pos = data.draw(st.integers(0, len(blob) - 1))
        bit = data.draw(st.integers(0, 7))
        corrupted = bytearray(blob)
        corrupted[pos] ^= 1 << bit
        try:
            list(RvfReader(bytes(corrupted)))
        except RvfError:
            pass  # typed failure is fine; silent wrong pixels are possible
                  # (the format carries no CRC) but must not crash

    @settings(max_examples=60, deadline=None)
    @given(blob=st.binary(min_size=0, max_size=200))
    def test_random_bytes(self, blob):
        try:
            list(RvfReader(blob))
        except RvfError:
            pass


class TestImageCodecFuzz:
    @settings(max_examples=80, deadline=None)
    @given(blob=st.binary(min_size=0, max_size=300))
    def test_random_bytes(self, blob):
        try:
            decode_image(blob)
        except ImageFormatError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_valid_images(self, data):
        img = Image(np.arange(48, dtype=np.uint8).reshape(4, 4, 3))
        fmt = data.draw(st.sampled_from(["ppm", "pgm", "bmp"]))
        blob = img.encode(fmt)
        cut = data.draw(st.integers(0, len(blob)))
        try:
            decoded = decode_image(blob[:cut])
            # a prefix that decodes must be the complete file
            assert cut == len(blob)
            if fmt == "pgm":
                assert decoded == img.to_gray()
            else:
                assert decoded == img
        except ImageFormatError:
            pass


class TestSqlFuzz:
    _TOKENS = [
        "SELECT", "FROM", "WHERE", "INSERT", "INTO", "VALUES", "UPDATE",
        "SET", "DELETE", "CREATE", "TABLE", "DROP", "AND", "OR", "NOT",
        "NULL", "PRIMARY", "KEY", "GROUP", "BY", "ORDER", "LIMIT",
        "COUNT", "T", "X", "NUMBER", "VARCHAR2", "(", ")", ",", "*", "=",
        "<", ">", "<=", "?", "'abc'", "42", "3.5", ";",
    ]

    @settings(max_examples=150, deadline=None)
    @given(tokens=st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=14))
    def test_token_soup_parses_or_typed_error(self, tokens):
        from repro.db.errors import SqlSyntaxError
        from repro.db.sql import parse

        text = " ".join(tokens)
        try:
            parse(text)
        except SqlSyntaxError:
            pass

    @settings(max_examples=80, deadline=None)
    @given(text=st.text(max_size=60))
    def test_arbitrary_text(self, text):
        from repro.db.errors import SqlSyntaxError
        from repro.db.sql import parse

        try:
            parse(text)
        except SqlSyntaxError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(tokens=st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=10))
    def test_execute_token_soup(self, tokens):
        db = Database()
        db.execute("CREATE TABLE T (X NUMBER)")
        try:
            db.execute(" ".join(tokens))
        except DatabaseError:
            pass


class TestStorageFuzz:
    def _make_files(self, tmp_path):
        path = str(tmp_path / "fuzz.rdb")
        db = Database.open(path)
        db.execute("CREATE TABLE T (ID NUMBER PRIMARY KEY, NAME VARCHAR2(10))")
        db.execute("INSERT INTO T (ID, NAME) VALUES (1, 'a')")
        db.checkpoint()
        db.execute("INSERT INTO T (ID, NAME) VALUES (2, 'b')")
        db.close()
        return path

    @pytest.mark.parametrize("which", ["snapshot", "wal"])
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.7, 0.95])
    def test_truncations(self, tmp_path, which, fraction):
        path = self._make_files(tmp_path)
        target = path if which == "snapshot" else path + ".wal"
        with open(target, "rb") as fh:
            data = fh.read()
        with open(target, "wb") as fh:
            fh.write(data[: int(len(data) * fraction)])
        try:
            db = Database.open(path)
            # if it opens, the surviving state must still be queryable
            if "T" in db.table_names():
                db.execute("SELECT COUNT(*) FROM T")
            db.close()
        except DatabaseError:
            # StorageError (corrupt file) or a replay error after losing
            # the snapshot (WAL statements referencing a vanished table)
            pass

    def test_random_bytes_in_snapshot(self, tmp_path):
        from repro.db.errors import StorageError

        path = self._make_files(tmp_path)
        gen = np.random.default_rng(0)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        # corrupt 5 random bytes beyond the magic
        for pos in gen.integers(4, len(data), size=5):
            data[pos] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        try:
            Database.open(path).close()
        except (StorageError, DatabaseError):
            pass


class TestCommitRecordFuzz:
    """Log records whose CRC holds but whose contents are hostile: the
    store now reads them too.  A durable library either refuses to open
    with a typed error or opens with its store equal to the SQL rebuild;
    a reader without the database gets a typed error or the store it
    would have had."""

    _CONFIG = SystemConfig(features=("sch", "naive"), keyframe_base_size=60)
    _STORE_RENAME = "UPDATE VIDEO_STORE SET V_NAME = ? WHERE V_ID = ?"

    @pytest.fixture(scope="class")
    def template(self, tmp_path_factory):
        """A library whose image misses one real add commit; returns the
        library path and that commit."""
        lib = str(tmp_path_factory.mktemp("commit-fuzz") / "lib.rdb")
        system = VideoRetrievalSystem.open(lib, self._CONFIG)
        gen = np.random.default_rng(3)
        for name in ("a", "b"):
            clip = [Image(gen.integers(0, 256, (20, 24, 3), dtype=np.uint8)) for _ in range(2)]
            system.admin.add_video(clip, name=name, category="misc")
            if name == "a":
                system.admin.checkpoint()
        system.close()
        return lib, read_log(lib + ".wal").commits[-1]

    def _library_with(self, template, tmp_path, statements=None, header=None):
        lib, _commit = template
        copy = str(tmp_path / "lib.rdb")
        for suffix in ("", ".wal", ".snap"):
            shutil.copy(lib + suffix, copy + suffix)
        if statements is not None:
            storage = Storage(copy)
            storage.load_into(Database())
            storage.log_transaction(statements)
            storage.close()
        if header is not None:
            offset, field = header
            with open(copy + ".wal", "r+b") as fh:
                fh.seek(offset)
                fh.write(field)
        return copy

    def _check(self, lib):
        """No untyped error escapes, and no store disagrees with SQL."""
        try:
            system = VideoRetrievalSystem.open(lib, self._CONFIG)
        except DatabaseError:
            system = None
        if system is not None:
            rebuilt = FeatureStore()
            rebuilt.rebuild_from_db(system.db, list(self._CONFIG.features))
            extractors = system.engine.extractors
            assert_same_store(system._store, rebuilt, extractors)
            system.close()
        try:
            snap, store = open_snapshot_store(lib + ".snap")
        except DatabaseError:
            return
        snap.close()
        if system is not None:
            assert_same_store(store, rebuilt, extractors)

    def _hostile_add(self, template, mutate):
        """The real add commit as a new video 3 (so SQL takes it), one
        value of it replaced."""
        statements = [(text, list(params)) for text, params in template[1]]
        statements[0][1][0] = 3
        for _text, params in statements[1:]:
            params[0] += 100  # I_ID
            params[6] = 3  # V_ID
        mutate(statements)
        return [(text, tuple(params)) for text, params in statements]

    @pytest.mark.parametrize(
        "case",
        [
            "unknown_table", "wrong_param_count", "non_numeric_vid", "fractional_vid",
            "non_numeric_vid_delete", "key_frames_bypass", "malformed_feature",
            "foreign_frame", "bad_header_sequence", "bad_header_token",
        ],
    )
    def test_named_cases(self, template, tmp_path, case):
        def set_param(statement, index, value):
            return lambda s: s[statement][1].__setitem__(index, value)

        records = {
            "unknown_table": [("INSERT INTO NOPE (A) VALUES (?)", (1,))],
            "wrong_param_count": [(self._STORE_RENAME, ("x",))],
            "non_numeric_vid": [(self._STORE_RENAME, ("x", "abc"))],
            "fractional_vid": [(self._STORE_RENAME, ("x", 1.5))],
            "non_numeric_vid_delete": [
                ("DELETE FROM KEY_FRAMES WHERE V_ID = ?", ("abc",)),
                ("DELETE FROM VIDEO_STORE WHERE V_ID = ?", ("abc",)),
            ],
            "key_frames_bypass": [("UPDATE KEY_FRAMES SET MIN = ? WHERE I_ID = ?", (0, 1))],
            "malformed_feature": self._hostile_add(
                template, set_param(1, -1, "NAIVE 3 1.0 oops")
            ),
            "foreign_frame": self._hostile_add(template, set_param(1, 6, 99)),
        }
        headers = {
            "bad_header_sequence": (4, struct.pack("<Q", 7)),
            "bad_header_token": (12, bytes(16)),
        }
        self._check(
            self._library_with(
                template, tmp_path, records.get(case), headers.get(case)
            )
        )

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_value_of_an_add(self, template, tmp_path_factory, data):
        statements = template[1]
        at = data.draw(st.integers(0, len(statements) - 1))
        index = data.draw(st.integers(0, len(statements[at][1]) - 1))
        value = data.draw(
            st.one_of(
                st.none(), st.integers(-3, 10**6), st.floats(allow_nan=True),
                st.text(max_size=12), st.binary(max_size=4),
            )
        )
        hostile = self._hostile_add(
            template, lambda s: s[at][1].__setitem__(index, value)
        )
        self._check(
            self._library_with(template, tmp_path_factory.mktemp("case"), hostile)
        )
