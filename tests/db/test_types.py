"""Column type and value-codec tests: each type is a CHECK constraint
of the facade's SQLite tables; the codec is a COMMITS body's."""

import datetime
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.errors import StorageError, TypeMismatchError
from repro.db.types import (
    BLOB,
    DATE,
    NUMBER,
    ORD_IMAGE,
    ORD_VIDEO,
    VARCHAR2,
    decode_commit,
    encode_commit,
    type_from_name,
)


def _stored(type_ddl, value):
    """``value`` written to, and read back from, a column of ``type_ddl``:
    the type is the column's CHECK constraint in the facade."""
    db = Database()
    db.execute(f"CREATE TABLE T (C {type_ddl})")
    db.execute("INSERT INTO T (C) VALUES (?)", (value,))
    return db.execute("SELECT C FROM T").scalar()


class TestNumber:
    def test_accepts_int_and_float(self):
        assert _stored("NUMBER", 5) == 5
        assert _stored("NUMBER", 2.5) == 2.5

    def test_rejects_bool_str_nan(self):
        with pytest.raises(TypeMismatchError):
            _stored("NUMBER", True)
        with pytest.raises(TypeMismatchError):
            _stored("NUMBER", "5")
        with pytest.raises(TypeMismatchError):
            _stored("NUMBER", float("nan"))


class TestVarchar:
    def test_length_enforced(self):
        assert _stored("VARCHAR2(3)", "abc") == "abc"
        with pytest.raises(TypeMismatchError, match=r"C VARCHAR2\(3\)"):
            _stored("VARCHAR2(3)", "abcd")

    def test_rejects_non_str(self):
        with pytest.raises(TypeMismatchError):
            _stored("VARCHAR2(10)", b"bytes")

    def test_render(self):
        assert VARCHAR2(60).render() == "VARCHAR2(60)"

    def test_bad_length(self):
        with pytest.raises(TypeMismatchError):
            VARCHAR2(0)


class TestDate:
    def test_accepts_date_datetime_iso(self):
        d = datetime.date(2012, 10, 5)
        assert _stored("DATE", d) == d
        assert _stored("DATE", datetime.datetime(2012, 10, 5, 12, 30)) == d
        assert _stored("DATE", "2012-10-05") == d

    def test_rejects_garbage(self):
        with pytest.raises(TypeMismatchError):
            _stored("DATE", "October 5")
        with pytest.raises(TypeMismatchError):
            _stored("DATE", 123)


class TestBlob:
    def test_accepts_bytes_and_bytearray(self):
        assert _stored("BLOB", b"\x00\x01") == b"\x00\x01"
        assert _stored("BLOB", bytearray(b"xy")) == b"xy"

    def test_rejects_str(self):
        with pytest.raises(TypeMismatchError):
            _stored("BLOB", "text")


class TestOrdTypes:
    def test_ord_video_decodes_rvf(self):
        from repro.imaging.image import Image
        from repro.video.codec import encode_rvf_bytes

        frames = [Image.blank(8, 6, 5)]
        data = ORD_VIDEO.decode(encode_rvf_bytes(frames))
        assert list(data) == frames

    def test_ord_image_decodes_ppm(self):
        from repro.imaging.image import Image

        img = Image.blank(4, 4, (1, 2, 3))
        assert ORD_IMAGE.decode(img.encode("ppm")) == img


class TestTypeFromName:
    def test_standard_names(self):
        assert isinstance(type_from_name("NUMBER"), NUMBER)
        assert isinstance(type_from_name("number"), NUMBER)
        assert isinstance(type_from_name("DATE"), DATE)
        assert isinstance(type_from_name("BLOB"), BLOB)

    def test_varchar_with_length(self):
        t = type_from_name("VARCHAR2", 40)
        assert isinstance(t, VARCHAR2) and t.max_length == 40

    def test_ord_spellings(self):
        for spelling in ("ORD_VIDEO", "ORDVideo", "ORD_ Video", "ord_video"):
            assert isinstance(type_from_name(spelling), ORD_VIDEO)
        assert isinstance(type_from_name("ORD_ Image"), ORD_IMAGE)

    def test_unknown_rejected(self):
        with pytest.raises(TypeMismatchError):
            type_from_name("CLOB")

    def test_length_on_lengthless_type_rejected(self):
        with pytest.raises(TypeMismatchError):
            type_from_name("NUMBER", 10)


def encode_value(value) -> bytes:
    """One value as a ``COMMITS`` body carries it: a parameter."""
    return encode_commit([("", (value,))])


def decode_value(body: bytes):
    ((_text, (value,)),) = decode_commit(body)
    return value


class TestValueCodec:
    """Each parameter type a ``COMMITS`` body carries, round-tripped."""

    CASES = [
        None,
        0,
        -(2**62),
        2**62,
        3.14159,
        -0.0,
        "",
        "héllo wörld",
        b"",
        b"\x00\xff" * 100,
        datetime.date(1999, 12, 31),
    ]

    @pytest.mark.parametrize("value", CASES, ids=repr)
    def test_roundtrip(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value and type(decoded) is type(value)

    def test_stream_of_values(self):
        body = encode_commit([("A", tuple(self.CASES)), ("B", tuple(reversed(self.CASES)))])
        assert decode_commit(body) == [("A", tuple(self.CASES)),
                                       ("B", tuple(reversed(self.CASES)))]

    def test_bool_rejected(self):
        with pytest.raises(TypeMismatchError):
            encode_value(True)

    def test_unencodable_rejected(self):
        with pytest.raises(TypeMismatchError):
            encode_value(object())

    def test_truncated_stream(self):
        body = encode_value("hello")
        for cut in range(len(body)):
            with pytest.raises(StorageError):
                decode_value(body[:cut])

    def test_unknown_tag(self):
        rest = b'[["", [{"x": "1"}]]]'
        with pytest.raises(StorageError, match="no encoded value"):
            decode_value(zlib.crc32(rest).to_bytes(4, "little") + rest)

    @settings(max_examples=50, deadline=None)
    @given(
        st.one_of(
            st.none(),
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            st.floats(allow_nan=False),
            st.text(max_size=50),
            st.binary(max_size=50),
            st.dates(),
        )
    )
    def test_roundtrip_property(self, value):
        assert decode_value(encode_value(value)) == value
