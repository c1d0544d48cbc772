"""SQLite's ``-wal`` file as the crash tests cut it.

A library's WAL holds a 32-byte header, then one frame per page written
(a 24-byte frame header + the page).  The open connection's ``-shm``
says how many frames are committed (its ``mxFrame``).  SQLite removes
``-wal`` when the last connection closes, so a copy is taken while the
library is open; the copy leaves ``-shm`` behind and rebuilds it from
``-wal``, keeping only whole, checksummed commits.
"""

import shutil
import struct

WAL_HEADER = 32
FRAME_HEADER = 24


def frame_size(path: str) -> int:
    with open(path + "-wal", "rb") as fh:
        return FRAME_HEADER + struct.unpack(">I", fh.read(WAL_HEADER)[8:12])[0]


def wal_end(path: str) -> int:
    """Where the committed frames of the open library at ``path`` end."""
    with open(path + "-shm", "rb") as fh:
        max_frame = struct.unpack_from("=I", fh.read(48), 16)[0]
    return WAL_HEADER + max_frame * frame_size(path)


def read_wal(path: str) -> bytes:
    with open(path + "-wal", "rb") as fh:
        return fh.read()


def copy_open(path: str, dest: str, wal: bytes) -> None:
    """The open library's file at ``dest``, with ``wal`` as its ``-wal``."""
    shutil.copyfile(path, dest)
    with open(dest + "-wal", "wb") as fh:
        fh.write(wal)
    with open(dest + "-shm", "wb"):  # an empty index: rebuilt from -wal
        pass


def cuts(start: int, end: int, frame: int, step: int = 53):
    """Cut points from ``start`` to ``end``: every ``step``-th byte, and
    each frame boundary with its neighbours."""
    points = set(range(start, end + 1, step)) | {start, end}
    for boundary in range(WAL_HEADER, end + 1, frame):
        points |= {boundary - 1, boundary, boundary + 1}
    return sorted(p for p in points if start <= p <= end)
