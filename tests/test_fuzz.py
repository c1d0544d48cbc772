"""Fuzz tests: malformed inputs must fail with the *typed* error, never
an unexpected exception.  Every parser/codec boundary in the system gets a
hypothesis-driven hostile-input pass.
"""

import contextlib
import datetime
import os
import re
import shutil
import sqlite3
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.snapshots import SnapshotRequiredError, open_snapshot_store
from repro.core.store import FeatureStore
from repro.core.system import VideoRetrievalSystem
from repro.db import Database
from repro.db.errors import DatabaseError, StorageError, TypeMismatchError
from repro.core.snapshots import read_log
from repro.db.types import decode_commit, encode_commit
from repro.imaging.image import Image, ImageFormatError, decode_image
from repro.snapshot import Snapshot, SnapshotError, write_snapshot
from repro.video.codec import RvfError, RvfReader, encode_rvf_bytes
from tests.integration.test_stateful import assert_same_store
from tests.snapshot.test_format import rewrite_header


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

    @staticmethod
    def _database():
        db = Database()
        db.execute("CREATE TABLE T (X NUMBER)")
        return db

    @settings(max_examples=150, deadline=None)
    @given(tokens=st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=14))
    def test_token_soup_parses_or_typed_error(self, tokens):
        try:
            self._database().execute(" ".join(tokens))
        except DatabaseError:
            pass

    @settings(max_examples=80, deadline=None)
    @given(text=st.text(max_size=60))
    def test_arbitrary_text(self, text):
        try:
            self._database().execute(text)
        except DatabaseError:
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
    """A library file is SQLite's.  Whatever its bytes, the facade either
    raises a typed error or reads what SQLite itself reads from them."""

    def _make_files(self, tmp_path):
        """A library with one commit in the file and one only in its
        -wal; returns its path (the copy's), still open underneath."""
        path = str(tmp_path / "fuzz.rdb")
        db = Database.open(path)
        db.execute("CREATE TABLE T (ID NUMBER PRIMARY KEY, NAME VARCHAR2(10))")
        db.execute("INSERT INTO T (ID, NAME) VALUES (1, 'a')")
        db.checkpoint()
        db.execute("INSERT INTO T (ID, NAME) VALUES (2, 'b')")
        copy = str(tmp_path / "copy.rdb")
        shutil.copyfile(path, copy)
        shutil.copyfile(path + "-wal", copy + "-wal")
        db.close()
        return copy

    @pytest.mark.parametrize("which", ["snapshot", "wal"])
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.7, 0.95])
    def test_truncations(self, tmp_path, which, fraction):
        path = self._make_files(tmp_path)
        target = path if which == "snapshot" else path + "-wal"
        with open(target, "rb") as fh:
            data = fh.read()
        with open(target, "wb") as fh:
            fh.write(data[: int(len(data) * fraction)])
        try:
            db = Database.open(path)
            # if it opens, the surviving state must still be queryable
            if "T" in db.table_names():
                assert len(db.execute("SELECT * FROM T").rows) <= 2
            db.close()
        except DatabaseError:
            pass

    def test_random_bytes_in_snapshot(self, tmp_path):
        path = self._make_files(tmp_path)
        gen = np.random.default_rng(0)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        # corrupt 5 random bytes beyond SQLite's 100-byte header
        for pos in gen.integers(100, len(data), size=5):
            data[pos] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        try:
            db = Database.open(path)
            try:
                db.execute("SELECT * FROM T")  # a page-level error surfaces here
            finally:
                db.close()
        except DatabaseError:
            pass

    # -- a file with every column type ---------------------------------------

    _MEDIA_DDL = (
        "CREATE TABLE MEDIA (ID NUMBER PRIMARY KEY, SCORE NUMBER, NAME VARCHAR2(6) NOT NULL,"
        " DAY DATE, DATA BLOB, CLIP ORD_VIDEO, FRAME ORD_IMAGE)"
    )
    _MEDIA_ROWS = [
        (1, 2.5, "one", datetime.date(2012, 10, 1), b"\x00\x01\x02", b"RVF" * 9, b"P6 img"),
        (2, None, "déux", None, None, b"", None),
        (3, -7, "three", datetime.date(1999, 12, 31), bytes(range(40)) * 150, None, b"P5 x"),
    ]
    _MEDIA_COLUMNS = ("ID", "SCORE", "NAME", "DAY", "DATA", "CLIP", "FRAME")

    @pytest.fixture(scope="class")
    def media(self, tmp_path_factory):
        """A checkpointed, closed library holding NUMBER (int, float),
        VARCHAR2, DATE, BLOB (one over a page), ORD_VIDEO, ORD_IMAGE and
        NULLs; returns a scratch dir and its bytes."""
        root = tmp_path_factory.mktemp("media")
        path = str(root / "media.rdb")
        db = Database.open(path)
        db.execute(self._MEDIA_DDL)
        db.execute("CREATE TABLE TAGS (ID NUMBER PRIMARY KEY, LABEL VARCHAR2(8))")
        for row in self._MEDIA_ROWS:
            db.execute(
                "INSERT INTO MEDIA (ID, SCORE, NAME, DAY, DATA, CLIP, FRAME)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                row,
            )
        db.execute("INSERT INTO TAGS (ID, LABEL) VALUES (1, 'sport')")
        db.close()
        with open(path, "rb") as fh:
            return root, fh.read()

    @staticmethod
    def _reference(root, data: bytes):
        """How SQLite itself reads the bytes, through a plain read-only
        connection, DATE cells parsed: ``{table: rows}``, or None where
        that refuses the file."""
        path = os.path.join(str(root), "reference.rdb")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        except sqlite3.Error:
            return None
        try:
            tables = [
                name.upper()
                for (name,) in conn.execute(
                    "SELECT CAST(name AS TEXT) FROM sqlite_master WHERE type = 'table'"
                )
                if name.upper() not in ("COMMITS", "LIBRARY")
            ]
            out = {}
            for table in sorted(tables):
                info = conn.execute(
                    "SELECT name FROM pragma_table_info(?) WHERE type = 'DATE'", (table,)
                )
                dates = {name.upper() for (name,) in info}
                cursor = conn.execute(f'SELECT * FROM "{table}"')
                names = [d[0].upper() for d in cursor.description]
                rows = [dict(zip(names, row)) for row in cursor]
                for row in rows:
                    for name in dates & set(row):
                        if row[name] is not None:
                            row[name] = datetime.date.fromisoformat(row[name])
                out[table] = rows
            return out
        except (sqlite3.Error, ValueError, TypeError):
            return None
        finally:
            conn.close()
            for suffix in ("-wal", "-shm"):
                if os.path.exists(path + suffix):
                    os.remove(path + suffix)

    def _opens_as_reference(self, root, data: bytes) -> None:
        """``data`` opens, and its tables read, with a typed error or as
        SQLite reads them."""
        reference = self._reference(root, data)
        path = str(root / "case.rdb")
        for suffix in ("-wal", "-shm"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            db = Database.open(path)
        except DatabaseError:
            return
        try:
            got = {t: db.execute(f"SELECT * FROM {t}").rows for t in db.table_names()}
        except DatabaseError:  # a page-level error: at the first read of its table
            return
        finally:
            db.close()
        assert got == reference

    def test_media_file_reads_as_reference(self, media):
        root, data = media
        assert self._reference(root, data)["MEDIA"] == [
            dict(zip(self._MEDIA_COLUMNS, row)) for row in self._MEDIA_ROWS
        ]
        self._opens_as_reference(root, data)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_media_truncations(self, media, data):
        root, full = media
        self._opens_as_reference(root, full[: data.draw(st.integers(0, len(full) - 1))])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_media_byte_flips(self, media, data):
        root, full = media
        flipped = bytearray(full)
        pos = data.draw(st.integers(0, len(full) - 1))
        flipped[pos] ^= data.draw(st.integers(1, 255))
        self._opens_as_reference(root, bytes(flipped))

    # -- named hostile files ----------------------------------------------------

    _T = "CREATE TABLE T (ID NUMBER PRIMARY KEY, DATA BLOB)"

    @staticmethod
    def _hostile(tmp_path, *statements, schema=None, ddl=(), name="hostile") -> str:
        """A library with T holding row (1, b'abc') and the tables ``ddl``
        creates, then ``statements`` run by a plain connection with CHECK
        constraints off (what another writer could leave), then T's
        stored DDL replaced by ``schema``."""
        path = str(tmp_path / f"{name}.rdb")
        db = Database.open(path)
        for text in (TestStorageFuzz._T,) + tuple(ddl):
            db.execute(text)
        db.execute("INSERT INTO T (ID, DATA) VALUES (1, ?)", (b"abc",))
        db.close()
        raw = sqlite3.connect(path)
        raw.execute("PRAGMA ignore_check_constraints = ON")
        for text in statements:
            raw.execute(text)
        if schema is not None:
            raw.execute("PRAGMA writable_schema = ON")
            raw.execute("UPDATE sqlite_master SET sql = ? WHERE name = 'T'", (schema,))
        raw.commit()
        raw.close()
        return path

    def _reads_as_reference(self, path) -> Database:
        """The file opens, and reads as SQLite reads it; returns it open."""
        with open(path, "rb") as fh:
            data = fh.read()
        reference = self._reference(os.path.dirname(path), data)
        db = Database.open(path)
        assert {t: db.execute(f"SELECT * FROM {t}").rows for t in db.table_names()} == reference
        return db

    def _refused(self, path, match: str) -> None:
        """A header or schema error: the open fails."""
        with pytest.raises(StorageError, match=match):
            Database.open(path)

    def _refused_at_first_read(self, path, match: str) -> None:
        """A page-level error: the open, or else the first statement that
        reads the table, fails -- as does every later one."""
        try:
            db = Database.open(path)
        except StorageError as exc:
            assert re.search(match, str(exc))
            return
        try:
            for text in ("SELECT * FROM T", "SELECT MAX(ID) FROM T"):
                with pytest.raises(StorageError, match=match):
                    db.execute(text)
        finally:
            db.close()

    def test_well_formed_file_opens(self, tmp_path):
        db = Database.open(self._hostile(tmp_path))
        assert db.execute("SELECT * FROM T").rows == [{"ID": 1, "DATA": b"abc"}]
        db.close()

    def test_blob_length_past_end_of_file(self, tmp_path):
        """A BLOB whose overflow pages the file no longer holds."""
        path = self._hostile(tmp_path, "INSERT INTO T (ID, DATA) VALUES (2, zeroblob(20000))")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 8192)
        self._refused_at_first_read(path, "malformed")

    def test_tag_of_the_wrong_type_for_its_column(self, tmp_path):
        """A str in a NUMBER column reads as it is held; the facade's
        CHECK refuses writing it back."""
        db = self._reads_as_reference(
            self._hostile(tmp_path, "INSERT INTO T (ID, DATA) VALUES ('1', x'00')")
        )
        with pytest.raises(TypeMismatchError, match="ID NUMBER"):
            db.execute("UPDATE T SET ID = ? WHERE ID = '1'", ("1",))
        db.close()

    def test_duplicate_primary_key(self, tmp_path):
        """A table another writer made without the key holds the same id
        twice: it reads as SQLite holds it."""
        path = self._hostile(
            tmp_path, "CREATE TABLE K (ID, DATA)", "INSERT INTO K VALUES (1, 'a')",
            "INSERT INTO K VALUES (1, 'b')",
        )
        db = self._reads_as_reference(path)
        assert len(db.execute("SELECT * FROM K WHERE ID = 1").rows) == 2
        db.close()

    def test_value_its_column_refuses(self, tmp_path):
        """A VARCHAR2(2) cell holding three characters reads as held; the
        facade refuses writing another such value."""
        path = self._hostile(tmp_path, "INSERT INTO N VALUES (1, 'abc')",
                             ddl=["CREATE TABLE N (ID NUMBER, NAME VARCHAR2(2))"])
        db = self._reads_as_reference(path)
        with pytest.raises(TypeMismatchError, match=r"NAME VARCHAR2\(2\)"):
            db.execute("INSERT INTO N (ID, NAME) VALUES (2, 'abc')")
        db.close()

    def test_null_in_a_not_null_column(self, tmp_path):
        """A NULL primary key, left by a writer whose DDL had no NOT NULL."""
        path = self._hostile(tmp_path, schema='CREATE TABLE "T" ("ID" PRIMARY KEY, "DATA")')
        raw = sqlite3.connect(path)
        (ddl,) = raw.execute("SELECT sql FROM sqlite_master WHERE name = 'LIBRARY'").fetchone()
        raw.execute("INSERT INTO T VALUES (NULL, x'01')")
        raw.execute("PRAGMA writable_schema = ON")
        raw.execute("UPDATE sqlite_master SET sql = ? WHERE name = 'T'",
                    ('CREATE TABLE "T" ("ID" PRIMARY KEY NOT NULL, "DATA")',))
        raw.commit()
        raw.close()
        db = self._reads_as_reference(path)
        assert db.execute("SELECT DATA FROM T WHERE ID = 1").rows == [{"DATA": b"abc"}]
        db.close()

    def test_nan_in_a_number_column(self, tmp_path):
        """SQLite keeps no NaN (it binds as NULL), so the facade refuses one."""
        db = Database.open(self._hostile(tmp_path))
        with pytest.raises(TypeMismatchError, match="NaN"):
            db.execute("INSERT INTO T (ID) VALUES (?)", (float("nan"),))
        assert db.execute("SELECT ID FROM T").rows == [{"ID": 1}]
        db.close()

    def test_date_column_refuses_a_string_that_is_no_date(self, tmp_path):
        dated = ["CREATE TABLE D (ID NUMBER, D DATE)"]
        path = self._hostile(tmp_path, "INSERT INTO D VALUES (1, '2012-10-01')", ddl=dated)
        db = Database.open(path)
        assert db.execute("SELECT D FROM D").rows == [{"D": datetime.date(2012, 10, 1)}]
        db.close()
        path = self._hostile(tmp_path, "INSERT INTO D VALUES (2, 'someday')", ddl=dated,
                             name="someday")
        db = Database.open(path)
        for _ in range(2):
            with pytest.raises(StorageError, match="no ISO date"):
                db.execute("SELECT D FROM D")
        db.close()

    _SECTIONS = {
        "DELETE FROM T": "malformed database schema",
        "INSERT INTO T (ID) VALUES (2)": "malformed database schema",
        "UPDATE T SET ID = 2": "malformed database schema",
        "DROP TABLE T": "malformed database schema",
    }

    @pytest.mark.parametrize("section", list(_SECTIONS))
    def test_table_section_holding_another_statement(self, tmp_path, section):
        """T's stored DDL replaced by another statement."""
        self._refused(self._hostile(tmp_path, schema=section), self._SECTIONS[section])

    def test_bytes_after_the_last_table(self, tmp_path):
        path = self._hostile(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        self._reads_as_reference(path).close()

    def test_rdb2_magic(self, tmp_path):
        """A library in the engine's own layouts (RDB2, RDB3) is refused."""
        for magic in (b"RDB2", b"RDB3"):
            path = str(tmp_path / "old.rdb")
            with open(path, "wb") as fh:
                fh.write(magic + bytes(60))
            self._refused(path, "not a database")

    def _with_page_count(self, tmp_path, delta):
        """The header's page count (offset 28) moved by ``delta``."""
        path = self._hostile(tmp_path, "INSERT INTO T (ID, DATA) VALUES (2, zeroblob(9000))")
        with open(path, "r+b") as fh:
            fh.seek(28)
            count = int.from_bytes(fh.read(4), "big")
            fh.seek(28)
            fh.write((count + delta).to_bytes(4, "big"))
        return path

    def _typed_or_reference(self, path) -> None:
        try:
            self._reads_as_reference(path).close()
        except DatabaseError:
            pass

    def test_section_length_past_end_of_file(self, tmp_path):
        self._typed_or_reference(self._with_page_count(tmp_path, 5))

    def test_section_length_shorter_than_its_rows(self, tmp_path):
        self._typed_or_reference(self._with_page_count(tmp_path, -2))

    def test_section_length_longer_than_its_rows(self, tmp_path):
        self._typed_or_reference(self._with_page_count(tmp_path, 1))


class TestCommitBodyFuzz:
    """``COMMITS`` bodies: a hostile, truncated or CRC-valid-but-wrong body
    is a :class:`StorageError` from the decoder, and a library whose log
    holds one serves the SQL rebuild."""

    _BODY = encode_commit([
        ("INSERT INTO T (ID, NAME, DATA, D) VALUES (?, ?, ?, ?)",
         (1, "né", b"\x00\xff", datetime.date(2012, 10, 1))),
        ("DELETE FROM T WHERE ID = ?", (2.5,)),
    ])

    @staticmethod
    def _crc_valid(rest: bytes) -> bytes:
        return zlib.crc32(rest).to_bytes(4, "little") + rest

    def _decodes_or_typed(self, body: bytes):
        try:
            statements = decode_commit(body)
        except StorageError:
            return None
        assert all(isinstance(text, str) and isinstance(params, tuple)
                   for text, params in statements)
        return statements

    def test_round_trip(self):
        assert decode_commit(self._BODY)[0][1][3] == datetime.date(2012, 10, 1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_truncations(self, data):
        cut = data.draw(st.integers(0, len(self._BODY) - 1))
        with pytest.raises(StorageError):
            decode_commit(self._BODY[:cut])
        # a truncation whose CRC is made to hold again
        rest = self._BODY[4:cut] if cut > 4 else b""
        self._decodes_or_typed(self._crc_valid(rest))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_byte_flips(self, data):
        body = bytearray(self._BODY)
        body[data.draw(st.integers(0, len(body) - 1))] ^= data.draw(st.integers(1, 255))
        with pytest.raises(StorageError):
            decode_commit(bytes(body))
        self._decodes_or_typed(self._crc_valid(bytes(body[4:])))

    @settings(max_examples=200, deadline=None)
    @given(rest=st.binary(max_size=64))
    def test_crc_valid_random_bodies(self, rest):
        self._decodes_or_typed(self._crc_valid(rest))

    def test_hostile_body_in_a_library_rebuilds(self, tmp_path):
        config = SystemConfig(features=("sch",), keyframe_base_size=60)
        lib = str(tmp_path / "lib.rdb")
        system = VideoRetrievalSystem.open(lib, config)
        gen = np.random.default_rng(7)
        clip = [Image(gen.integers(0, 256, (20, 24, 3), dtype=np.uint8)) for _ in range(2)]
        system.admin.checkpoint()
        system.admin.add_video(clip, name="a", category="misc")
        seq = system.db.commit_seq
        system.close()
        raw = sqlite3.connect(lib)
        raw.execute("UPDATE COMMITS SET BODY = ? WHERE SEQ = ?",
                    (self._crc_valid(b"\xff\xff\xff\x7f"), seq))
        raw.commit()
        raw.close()
        reopened = VideoRetrievalSystem.open(lib, config)
        assert reopened.snapshots.served_from == "rebuild"
        assert reopened.n_key_frames() == len(reopened.key_frames_of(1)) > 0
        reopened.close()
        with pytest.raises(StorageError):
            open_snapshot_store(lib + ".snap")


class TestCommitRecordFuzz:
    """Logged commits whose contents are hostile: the store replays them
    too.  A durable library either refuses to open
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
        return lib, read_log(lib).commits[-1]

    def _library_with(self, template, tmp_path, statements=None, header=None):
        """A copy of the library with one more commit: ``statements`` run
        through SQL, which logs them in the same transaction (a commit SQL
        refuses is not logged either); ``header`` rewrites a column of its
        ``LIBRARY`` row.  Bodies that disagree with SQL are
        :class:`TestCommitBodyFuzz`'s."""
        lib, _commit = template
        copy = str(tmp_path / "lib.rdb")
        for suffix in ("", ".snap"):
            shutil.copy(lib + suffix, copy + suffix)
        if statements is not None:
            db = Database.open(copy)
            with contextlib.suppress(DatabaseError):
                with db.transaction():
                    for text, params in statements:
                        db.execute(text, params)
            db.close()
        if header is not None:
            raw = sqlite3.connect(copy)
            raw.execute("UPDATE LIBRARY SET " + header[0] + " = ?", (header[1],))
            raw.commit()
            raw.close()
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
            "fractional_frame_id", "infinite_frame_id", "frame_id_past_int64",
            "infinite_bucket", "empty_feature", "column_in_set", "column_in_values",
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
            # values SQL stores but the store's int64 columns cannot hold
            # exactly: int(1.5) is an existing frame id, inf / 2**63 overflow
            "fractional_frame_id": self._hostile_add(template, set_param(1, 0, 1.5)),
            "infinite_frame_id": self._hostile_add(template, set_param(1, 0, float("inf"))),
            "frame_id_past_int64": self._hostile_add(template, set_param(1, 0, 2.0**63)),
            "infinite_bucket": self._hostile_add(template, set_param(1, 3, float("-inf"))),
            # a well-formed feature string of another width than the store's
            "empty_feature": self._hostile_add(template, set_param(1, -1, "NAIVE 0")),
            # a column where a value belongs: SQL has nothing to read it against
            "column_in_set": [("UPDATE VIDEO_STORE SET CATEGORY = V_NAME", ())],
            "column_in_values": [
                ("INSERT INTO VIDEO_STORE (V_ID, V_NAME) VALUES (V_ID, 'x')", ())
            ],
        }
        headers = {
            "bad_header_sequence": ("BASE", 7),
            "bad_header_token": ("TOKEN", "0" * 32),
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


@pytest.mark.filterwarnings("ignore::ResourceWarning")
class TestSnapshotHeaderFuzz:
    """RSNAP1 headers whose CRC holds but whose stamp or section table is
    hostile.  The replica opener raises only typed errors; a library opened
    ``auto`` serves a store equal to its SQL rebuild, and ``require``
    refuses whatever ``auto`` had to rebuild."""

    _CONFIG = SystemConfig(features=("sch", "naive"), keyframe_base_size=60)

    @pytest.fixture(scope="class")
    def template(self, tmp_path_factory):
        """A checkpointed library (image at the database's last commit),
        its image rewritten with slack in the header for longer values."""
        lib = str(tmp_path_factory.mktemp("header-fuzz") / "lib.rdb")
        system = VideoRetrievalSystem.open(lib, self._CONFIG)
        gen = np.random.default_rng(5)
        for name in ("a", "b"):
            clip = [Image(gen.integers(0, 256, (20, 24, 3), dtype=np.uint8)) for _ in range(2)]
            system.admin.add_video(clip, name=name, category="misc")
        system.admin.checkpoint()
        system.close()
        snap = Snapshot.open(lib + ".snap")
        arrays = {name: np.array(snap.section(name)) for name in snap.section_names()}
        write_snapshot(lib + ".snap", arrays, dict(snap.meta, pad=" " * 512))
        snap.close()
        return lib

    def _library_with(self, template, directory, mutate):
        copy = str(directory / "lib.rdb")
        for suffix in ("", ".snap"):
            shutil.copy(template + suffix, copy + suffix)

        def without_pad(header):
            del header["meta"]["pad"]
            mutate(header)

        rewrite_header(copy + ".snap", without_pad)
        return copy

    def _check(self, lib):
        try:
            snap, store = open_snapshot_store(lib + ".snap")
        except (SnapshotError, DatabaseError):
            store = None
        else:
            snap.close()
        system = VideoRetrievalSystem.open(lib, self._CONFIG)
        rebuilt = FeatureStore()
        rebuilt.rebuild_from_db(system.db, list(self._CONFIG.features))
        extractors = system.engine.extractors
        assert_same_store(system._store, rebuilt, extractors)
        served = system.snapshots.served_from
        system.close()
        if store is not None:
            assert_same_store(store, rebuilt, extractors)
        replica = VideoRetrievalSystem.in_memory(
            self._CONFIG.with_(snapshot_path=lib + ".snap")
        )
        from_image = replica.snapshots.served_from == "mmap"
        assert replica.n_key_frames() == (len(rebuilt) if from_image else 0)  # its SQL is empty
        replica.close()
        if served == "rebuild":
            with pytest.raises(SnapshotRequiredError):
                VideoRetrievalSystem.open(lib, self._CONFIG.with_(snapshot="require"))
        return served

    @staticmethod
    def _set_meta(key, value):
        return lambda header: header["meta"].__setitem__(key, value)

    @staticmethod
    def _set_section(name, key, value):
        def mutate(header):
            (entry,) = [s for s in header["sections"] if s["name"] == name]
            entry[key] = value(entry[key]) if callable(value) else value

        return mutate

    @pytest.mark.parametrize(
        "case,served",
        [
            ("token_foreign", "rebuild"), ("token_null", "rebuild"), ("token_number", "rebuild"),
            ("commit_seq_behind", "rebuild"), ("commit_seq_ahead", "rebuild"),
            ("commit_seq_string", "rebuild"), ("commit_seq_fraction", "rebuild"),
            ("commit_seq_negative", "rebuild"), ("commit_seq_null", "rebuild"),
            ("log_directory", "mmap"), ("log_empty", "mmap"), ("log_missing", "mmap"),
            ("log_database_file", "mmap"), ("log_nul", "mmap"), ("log_list", "mmap"),
            ("generation_string", "rebuild"), ("generation_null", "rebuild"),
            ("generation_other", "mmap"), ("generation_infinite", "rebuild"),
            ("structure_generation_list", "rebuild"),
            ("offset_next_row", "rebuild"), ("offset_negative", "rebuild"),
            ("offset_string", "rebuild"), ("nbytes_short", "rebuild"),
            ("shape_transposed", "rebuild"), ("shape_flat", "rebuild"),
            ("shape_negative", "rebuild"), ("dtype_object", "rebuild"),
            ("dtype_big_endian", "rebuild"), ("dtype_void", "rebuild"),
            ("dtype_unsigned_ids", "rebuild"), ("dtype_float_ids", "rebuild"),
            ("dtype_garbage", "rebuild"),
        ],
    )
    def test_named_cases(self, template, tmp_path, case, served):
        meta, section = self._set_meta, self._set_section
        mutations = {
            "token_foreign": meta("token", "0" * 32),
            "token_null": meta("token", None),
            "token_number": meta("token", 7),
            "commit_seq_behind": meta("commit_seq", 1),
            "commit_seq_ahead": meta("commit_seq", 10**20),
            "commit_seq_string": meta("commit_seq", "3"),
            "commit_seq_fraction": meta("commit_seq", 2.5),
            "commit_seq_negative": meta("commit_seq", -1),
            "commit_seq_null": meta("commit_seq", None),
            # the replica reads a log it can find; the durable library its own
            "log_directory": meta("log", "."),
            "log_empty": meta("log", ""),
            "log_missing": meta("log", "nope.wal"),
            "log_database_file": meta("log", "lib.rdb"),
            "log_nul": meta("log", "lib\x00.wal"),
            "log_list": meta("log", ["lib.rdb.wal"]),
            "generation_string": meta("generation", "x"),
            "generation_null": meta("generation", None),
            "generation_other": meta("generation", 10**6),
            "generation_infinite": meta("generation", float("inf")),
            "structure_generation_list": meta("structure_generation", [1]),
            "offset_next_row": section("feat:sch", "offset", lambda v: v + 8),
            "offset_negative": section("frame_ids", "offset", -64),
            "offset_string": section("frame_ids", "offset", "64"),
            "nbytes_short": section("frame_ids", "nbytes", lambda v: v - 8),
            "shape_transposed": section("feat:sch", "shape", lambda v: v[::-1]),
            "shape_flat": section("feat:sch", "shape", lambda v: [v[0] * v[1]]),
            "shape_negative": section("frame_ids", "shape", lambda v: [-v[0]]),
            "dtype_object": section("frame_ids", "dtype", "O"),
            "dtype_big_endian": section("feat:sch", "dtype", ">f8"),
            "dtype_void": section("feat:sch", "dtype", "|V8"),
            "dtype_unsigned_ids": section("frame_ids", "dtype", "<u8"),
            "dtype_float_ids": section("frame_ids", "dtype", "<f8"),
            "dtype_garbage": section("frame_ids", "dtype", "not a dtype"),
        }
        lib = self._library_with(template, tmp_path, mutations[case])
        assert self._check(lib) == served

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_value_of_a_stamp_or_section_field(self, template, tmp_path_factory, data):
        values = st.one_of(
            st.none(), st.booleans(), st.integers(-(2**63), 2**64), st.floats(allow_nan=False),
            st.text(max_size=12), st.lists(st.integers(-3, 100), max_size=3),
            st.sampled_from(["O", ">f8", "|V8", "<i8", "<f8", "<u8", "<f4", "|b1", ".", "lib.rdb"]),
        )
        if data.draw(st.booleans()):
            key = data.draw(st.sampled_from(
                ["token", "commit_seq", "log", "generation", "structure_generation"]
            ))
            mutate = self._set_meta(key, data.draw(values))
        else:
            snap = Snapshot.open(template + ".snap")
            names = snap.section_names()
            snap.close()
            name = data.draw(st.sampled_from(names))
            key = data.draw(st.sampled_from(["offset", "nbytes", "shape", "dtype"]))
            mutate = self._set_section(name, key, data.draw(values))
        self._check(self._library_with(template, tmp_path_factory.mktemp("case"), mutate))
