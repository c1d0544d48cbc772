"""Fuzz tests: malformed inputs must fail with the *typed* error, never
an unexpected exception.  Every parser/codec boundary in the system gets a
hypothesis-driven hostile-input pass.
"""

import datetime
import os
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.snapshots import SnapshotRequiredError, open_snapshot_store
from repro.core.store import FeatureStore
from repro.core.system import VideoRetrievalSystem
from repro.db import Database
from repro.db.errors import DatabaseError, StorageError
from repro.db.storage import Storage, read_log
from repro.db.types import encode_value
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
                assert len(db.execute("SELECT * FROM T").rows) <= 2
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
            db = Database.open(path)
            try:
                db.execute("SELECT * FROM T")  # a row-level error surfaces here
            finally:
                db.close()
        except (StorageError, DatabaseError):
            pass

    # -- a file with every column type ---------------------------------------

    _MEDIA_DDL = (
        "CREATE TABLE MEDIA (ID NUMBER PRIMARY KEY, SCORE NUMBER, NAME VARCHAR2(6) NOT NULL,"
        " DAY DATE, DATA BLOB, CLIP ORD_VIDEO, FRAME ORD_IMAGE)"
    )
    _MEDIA_ROWS = [
        (1, 2.5, "one", datetime.date(2012, 10, 1), b"\x00\x01\x02", b"RVF" * 9, b"P6 img"),
        (2, None, "d\u00e9ux", None, None, b"", None),
        (3, -7, "three", datetime.date(1999, 12, 31), bytes(range(40)), None, b"P5 x"),
    ]

    @pytest.fixture(scope="class")
    def media(self, tmp_path_factory):
        """A checkpointed file holding NUMBER (int, float), VARCHAR2, DATE,
        BLOB, ORD_VIDEO, ORD_IMAGE and NULLs; returns a scratch dir and it."""
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
        db.checkpoint()
        db.close()
        os.remove(path + ".wal")
        with open(path, "rb") as fh:
            return root, fh.read()

    @staticmethod
    def _reference(data: bytes):
        """How the file reads the long way round: each section's DDL
        executed, every cell decoded on its own, each row inserted through
        SQL.  ``{table: rows}``, or None where that refuses the file."""
        u32 = struct.Struct("<I")

        def value(section, off):
            tag, off = section[off], off + 1
            if tag == 0:
                return None, off
            if tag in (1, 2):
                raw = section[off : off + 8]
                if len(raw) != 8:
                    raise ValueError("truncated")
                return struct.unpack("<q" if tag == 1 else "<d", raw)[0], off + 8
            if tag not in (3, 4, 5):
                raise ValueError(f"tag {tag}")
            (n,) = u32.unpack_from(section, off)
            raw = section[off + 4 : off + 4 + n]
            if len(raw) != n:
                raise ValueError("truncated")
            if tag == 4:
                return raw, off + 4 + n
            text = raw.decode("utf-8")
            return (datetime.date.fromisoformat(text) if tag == 5 else text), off + 4 + n

        if not data:  # an empty file is a new database
            return {}
        db = Database()
        try:
            if data[:4] != b"RDB3" or len(data) < 28:
                return None
            (n_tables,) = u32.unpack_from(data, 28)
            off = 32
            for _ in range(n_tables):
                (n,) = u32.unpack_from(data, off)
                ddl = data[off + 4 : off + 4 + n].decode("utf-8")
                off += 4 + n
                before = set(db.table_names())
                db.execute(ddl)
                created = set(db.table_names()) - before
                if len(created) != 1:
                    return None
                table = created.pop()
                columns = db.schema_of(table).column_names
                n_rows, length = struct.unpack_from("<IQ", data, off)
                off += 12
                end = off + length
                if end > len(data):
                    return None
                section = data[:end]  # no value may run past its section
                for _ in range(n_rows):
                    row = []
                    for _ in columns:
                        cell, off = value(section, off)
                        row.append(cell)
                    db.execute(
                        f"INSERT INTO {table} ({', '.join(columns)})"
                        f" VALUES ({', '.join('?' * len(columns))})",
                        row,
                    )
                if off != end:
                    return None
            if off != len(data):
                return None
        except (DatabaseError, ValueError, IndexError, struct.error):
            return None
        return {t: db.execute(f"SELECT * FROM {t}").rows for t in db.table_names()}

    def _opens_as_reference(self, root, data: bytes) -> None:
        """``data`` opens, and its tables read, with a typed error or as
        the reference's rows."""
        path = str(root / "case.rdb")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            db = Database.open(path)
        except DatabaseError:
            return
        try:
            got = {t: db.execute(f"SELECT * FROM {t}").rows for t in db.table_names()}
        except DatabaseError:  # a row-level error: at the first read of its table
            return
        finally:
            db.close()
        assert got == self._reference(data)

    def test_media_file_reads_as_reference(self, media):
        root, data = media
        assert self._reference(data)["MEDIA"] == [
            dict(zip(("ID", "SCORE", "NAME", "DAY", "DATA", "CLIP", "FRAME"), row))
            for row in self._MEDIA_ROWS
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

    @staticmethod
    def _file(*sections, trailing: bytes = b"", magic: bytes = b"RDB3") -> bytes:
        """An RDB3 file of ``(ddl, [encoded rows][, section length])``
        sections; the length defaults to the rows' bytes."""
        out = [magic, struct.pack("<Q", 0), bytes(16), struct.pack("<I", len(sections))]
        for ddl, rows, *length in sections:
            raw = ddl.encode("utf-8")
            body = b"".join(rows)
            length = length[0] if length else len(body)
            out += [struct.pack("<I", len(raw)), raw, struct.pack("<IQ", len(rows), length), body]
        return b"".join(out) + trailing

    _T = "CREATE TABLE T (ID NUMBER PRIMARY KEY, DATA BLOB)"
    _ROW = encode_value(1) + encode_value(b"abc")

    @staticmethod
    def _write(tmp_path, data: bytes) -> str:
        path = str(tmp_path / "hostile.rdb")
        with open(path, "wb") as fh:
            fh.write(data)
        return path

    def _refused(self, tmp_path, data: bytes, match: str) -> None:
        """A header or section-structure error: the open fails."""
        with pytest.raises(StorageError, match=match):
            Database.open(self._write(tmp_path, data))

    def _refused_at_first_read(self, tmp_path, data: bytes, match: str) -> None:
        """A row-level error: the file opens, and the first statement that
        reads the table fails -- as does every later one."""
        db = Database.open(self._write(tmp_path, data))
        try:
            for text in ("SELECT * FROM T", "SELECT MAX(ID) FROM T"):
                with pytest.raises(StorageError, match=match):
                    db.execute(text)
        finally:
            db.close()

    def test_well_formed_file_opens(self, tmp_path):
        db = Database.open(self._write(tmp_path, self._file((self._T, [self._ROW]))))
        assert db.execute("SELECT * FROM T").rows == [{"ID": 1, "DATA": b"abc"}]
        db.close()

    def test_blob_length_past_end_of_file(self, tmp_path):
        row = encode_value(1) + bytes([4]) + struct.pack("<I", 1000) + b"abc"
        self._refused_at_first_read(tmp_path, self._file((self._T, [row])), "truncated")

    def test_tag_of_the_wrong_type_for_its_column(self, tmp_path):
        row = encode_value("1") + encode_value(b"abc")  # a str in a NUMBER column
        self._refused_at_first_read(tmp_path, self._file((self._T, [row])), "value tag 3")

    def test_duplicate_primary_key(self, tmp_path):
        data = self._file((self._T, [self._ROW, self._ROW]))
        self._refused_at_first_read(tmp_path, data, "duplicate")

    def test_value_its_column_refuses(self, tmp_path):
        ddl = "CREATE TABLE T (ID NUMBER PRIMARY KEY, NAME VARCHAR2(2))"
        row = encode_value(1) + encode_value("abc")
        self._refused_at_first_read(tmp_path, self._file((ddl, [row])), r"exceeds VARCHAR2\(2\)")

    def test_null_in_a_not_null_column(self, tmp_path):
        row = encode_value(None) + encode_value(b"abc")  # a NULL primary key
        self._refused_at_first_read(tmp_path, self._file((self._T, [row])), "NOT NULL")

    def test_nan_in_a_number_column(self, tmp_path):
        ddl = "CREATE TABLE T (ID NUMBER PRIMARY KEY, X NUMBER)"
        row = encode_value(1) + encode_value(float("nan"))
        self._refused_at_first_read(tmp_path, self._file((ddl, [row])), "NaN")

    def test_date_column_refuses_a_string_that_is_no_date(self, tmp_path):
        ddl = "CREATE TABLE T (ID NUMBER PRIMARY KEY, D DATE)"
        ok = encode_value(1) + encode_value("2012-10-01")  # an ISO string is coerced
        db = Database.open(self._write(tmp_path, self._file((ddl, [ok]))))
        assert db.execute("SELECT D FROM T").rows == [{"D": datetime.date(2012, 10, 1)}]
        db.close()
        row = encode_value(1) + encode_value("someday")
        self._refused_at_first_read(tmp_path, self._file((ddl, [row])), "ISO format")

    _SECTIONS = {
        "DELETE FROM T": "not CREATE TABLE",
        "INSERT INTO T (ID) VALUES (2)": "not CREATE TABLE",
        "UPDATE T SET ID = 2": "not CREATE TABLE",
        "DROP TABLE T": "unreadable table section",  # not in the dialect
    }

    @pytest.mark.parametrize("section", list(_SECTIONS))
    def test_table_section_holding_another_statement(self, tmp_path, section):
        data = self._file((self._T, [self._ROW]), (section, []))
        self._refused(tmp_path, data, self._SECTIONS[section])

    def test_bytes_after_the_last_table(self, tmp_path):
        data = self._file((self._T, [self._ROW]), trailing=b"\x00")
        self._refused(tmp_path, data, "1 bytes after the last table")

    def test_rdb2_magic(self, tmp_path):
        data = self._file((self._T, [self._ROW]), magic=b"RDB2")
        self._refused(tmp_path, data, "bad magic b'RDB2'")

    def test_section_length_past_end_of_file(self, tmp_path):
        data = self._file((self._T, [self._ROW], len(self._ROW) + 1))
        self._refused(tmp_path, data, "run past the end of the file")

    def test_section_length_shorter_than_its_rows(self, tmp_path):
        # the walk goes on from the stated end: the row's last byte is left over
        data = self._file((self._T, [self._ROW], len(self._ROW) - 1))
        self._refused(tmp_path, data, "1 bytes after the last table")
        # the section stops inside the row, and the next one starts there
        data = self._file((self._T, [self._ROW[:-1]]), ("CREATE TABLE U (X NUMBER)", []))
        self._refused_at_first_read(tmp_path, data, "ends inside a LOB")

    def test_section_length_longer_than_its_rows(self, tmp_path):
        data = self._file((self._T, [self._ROW + b"\x00"]))
        self._refused_at_first_read(tmp_path, data, "1 bytes after its 1 rows")


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
        for suffix in ("", ".wal", ".snap"):
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
            ("generation_other", "mmap"), ("structure_generation_list", "rebuild"),
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
