"""The binary snapshot layout: round trip, validation, rejection."""

import json
import struct
import zlib

import numpy as np
import pytest

from repro.snapshot import (
    MAGIC,
    CorruptSnapshotError,
    Snapshot,
    SnapshotError,
    SnapshotVersionError,
    write_snapshot,
)

_PREAMBLE = struct.Struct("<8sIIIQ")
_PREAMBLE_SIZE = _PREAMBLE.size


def rewrite_header(path: str, mutate) -> None:
    """Rewrite a snapshot's header JSON through ``mutate(header)`` (a
    return value other than None replaces the header) and recompute its
    CRC: hostile input the checksum does not catch.  The new JSON is
    space-padded to the old length, so every section stays where it was;
    it must not be longer."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, version, endian, _crc, length = _PREAMBLE.unpack_from(data)
    header = json.loads(data[_PREAMBLE_SIZE : _PREAMBLE_SIZE + length])
    replaced = mutate(header)
    text = json.dumps(header if replaced is None else replaced, separators=(",", ":"))
    text = text.encode("utf-8")
    assert len(text) <= length, "the mutated header outgrew the original"
    text = text.ljust(length, b" ")
    preamble = _PREAMBLE.pack(magic, version, endian, zlib.crc32(text), length)
    with open(path, "wb") as fh:
        fh.write(preamble + text + data[_PREAMBLE_SIZE + length :])


@pytest.fixture()
def arrays():
    rng = np.random.default_rng(7)
    return {
        "matrix": rng.normal(size=(5, 12)),
        "ids": np.arange(5, dtype=np.int64) * 3,
        "empty": np.zeros((0, 4), dtype=np.float64),
    }


@pytest.fixture()
def snap_path(tmp_path, arrays):
    path = str(tmp_path / "test.snap")
    write_snapshot(path, arrays, {"kind": "test", "answer": 42})
    return path


class TestRoundTrip:
    def test_sections_byte_identical(self, snap_path, arrays):
        snap = Snapshot.open(snap_path)
        assert snap.section_names() == list(arrays)
        for name, original in arrays.items():
            view = snap.section(name)
            assert view.shape == original.shape
            assert view.tobytes() == np.ascontiguousarray(original).tobytes()

    def test_meta_round_trips(self, snap_path):
        snap = Snapshot.open(snap_path)
        assert snap.meta == {"kind": "test", "answer": 42}

    def test_sections_are_read_only(self, snap_path):
        view = Snapshot.open(snap_path).section("matrix")
        with pytest.raises(ValueError):
            view[0, 0] = 1.0

    def test_verify_clean(self, snap_path):
        assert Snapshot.open(snap_path).verify() == []

    def test_contains_and_missing_section(self, snap_path):
        snap = Snapshot.open(snap_path)
        assert "matrix" in snap
        assert "nope" not in snap
        with pytest.raises(KeyError):
            snap.section("nope")

    def test_info_lists_sections(self, snap_path):
        info = Snapshot.open(snap_path).info()
        assert {s["name"] for s in info["sections"]} == {"matrix", "ids", "empty"}
        assert info["version"] == 1

    def test_atomic_overwrite(self, snap_path):
        write_snapshot(snap_path, {"only": np.ones(3)}, {"kind": "second"})
        snap = Snapshot.open(snap_path)
        assert snap.section_names() == ["only"]
        assert snap.meta["kind"] == "second"

    def test_closed_snapshot_refuses_reads(self, snap_path):
        snap = Snapshot.open(snap_path)
        snap.close()
        with pytest.raises(SnapshotError):
            snap.section("matrix")


def _flip(path: str, offset: int) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Snapshot.open(str(tmp_path / "absent.snap"))

    def test_bad_magic(self, snap_path):
        _flip(snap_path, 0)
        with pytest.raises(CorruptSnapshotError, match="bad magic"):
            Snapshot.open(snap_path)

    def test_unknown_version(self, snap_path):
        with open(snap_path, "r+b") as fh:
            fh.seek(len(MAGIC))
            fh.write(struct.pack("<I", 99))
        with pytest.raises(SnapshotVersionError, match="version 99"):
            Snapshot.open(snap_path)

    def test_foreign_endianness(self, snap_path):
        with open(snap_path, "r+b") as fh:
            fh.seek(len(MAGIC) + 4)
            fh.write(struct.pack("<I", 0x04030201))
        with pytest.raises(SnapshotVersionError, match="endianness"):
            Snapshot.open(snap_path)

    def test_header_checksum(self, snap_path):
        _flip(snap_path, _PREAMBLE_SIZE + 2)
        with pytest.raises(CorruptSnapshotError, match="header checksum"):
            Snapshot.open(snap_path)

    def test_truncated_preamble(self, snap_path):
        with open(snap_path, "r+b") as fh:
            fh.truncate(10)
        with pytest.raises(CorruptSnapshotError):
            Snapshot.open(snap_path)

    def test_truncated_body(self, snap_path):
        import os

        with open(snap_path, "r+b") as fh:
            fh.truncate(os.path.getsize(snap_path) - 64)
        with pytest.raises(CorruptSnapshotError):
            Snapshot.open(snap_path)

    def test_flipped_section_byte_caught_by_verify(self, snap_path):
        # open() stays cheap (no full read), so a bit flip deep in a
        # section body is verify()'s job to catch
        offset = int(Snapshot.open(snap_path)._table["matrix"]["offset"])
        _flip(snap_path, offset + 5)
        snap = Snapshot.open(snap_path)
        assert snap.verify() == ["matrix"]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda header: [],  # the header is a list
            lambda header: header.update(meta=[]),
            lambda header: header.update(sections={}),
            lambda header: header["sections"].__setitem__(0, ["matrix"]),
        ],
        ids=["header", "meta", "sections", "section_entry"],
    )
    def test_header_of_the_wrong_type_is_corrupt(self, snap_path, mutate):
        # the CRC holds, so only the structure can tell
        rewrite_header(snap_path, mutate)
        with pytest.raises(CorruptSnapshotError):
            Snapshot.open(snap_path)

    @pytest.mark.parametrize(
        "field,value",
        [("offset", 64), ("nbytes", 8), ("shape", [5, -12]), ("dtype", "|V8"), ("dtype", "O")],
    )
    def test_section_entry_off_the_writers_layout_is_corrupt(self, snap_path, field, value):
        def mutate(header):
            entry = header["sections"][0]  # "matrix"
            entry[field] = value if field != "offset" else entry["offset"] + value

        rewrite_header(snap_path, mutate)
        with pytest.raises(CorruptSnapshotError):
            Snapshot.open(snap_path)

