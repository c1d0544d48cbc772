"""What a fresh ``repro serve`` has imported by its first answer.

Process start is interpreter + NumPy + the modules a serve imports, and
under ``PYTHONDONTWRITEBYTECODE`` each of those is compiled again on every
start.  So the budget is kept in *modules*, which repeat exactly, not in
milliseconds, which do not: a child process does what ``cli._cmd_serve``
does (parse the command line, open a durable library, put it behind
``AsyncCbvrServer``, answer one ``POST /search``) and reports
``sys.modules``.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.system import VideoRetrievalSystem
from repro.sharding import split_library
from repro.video.generator import VideoSpec, generate_video

#: modules imported after ``import numpy`` by a plain serve's first answer.
#: Measured on CPython 3.11 / NumPy 2.4: 169; about 195 with the corpus
#: generator, ``repro.sharding``, ``repro.indexing.ann`` and
#: ``multiprocessing`` imported eagerly; 519 with SciPy on the import path.
#: The slack is for other interpreter and NumPy versions, not for new imports.
MODULE_CEILING = 180

#: a plain serve runs none of these (each name covers its submodules)
NOT_ON_A_PLAIN_SERVE = (
    "repro.video.generator",
    "repro.imaging.synthetic",
    "repro.imaging.draw",
    "repro.sharding",
    "repro.indexing.ann",
    "repro.eval",
    "repro.analysis",
    "concurrent.futures.process",
    "multiprocessing",
    "scipy",
    "unittest",
    "numpy.testing",
    "numpy.f2py",
    "numpy.ma",
)

_SERVE_ONCE = """
import sys
import numpy
after_numpy = set(sys.modules)

import socket
from repro.cli import build_parser

args = build_parser().parse_args(["serve", sys.argv[1]])
mode = sys.argv[3]

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.serving import AsyncCbvrServer

config = None
if mode == "ann":
    config = SystemConfig(ann=True, ann_cells=2, ann_nprobe=2)
elif mode == "sharded":
    from repro.sharding import sharded_config

    config = sharded_config(sys.argv[4], SystemConfig())
system = VideoRetrievalSystem.open(args.library, config)
server = AsyncCbvrServer(system, port=0)
server.start_in_thread()
try:
    with open(sys.argv[2], "rb") as fh:
        body = fh.read()
    request = (
        b"POST /search?top_k=3 HTTP/1.1\\r\\nHost: x\\r\\nConnection: close\\r\\n"
        b"Content-Length: %d\\r\\n\\r\\n" % len(body)
    ) + body
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(request)
        # by Content-Length, not to EOF: forked shard workers hold a copy of
        # the accepted socket, so the server's close is not the last one
        reply = b""
        while b"\\r\\n\\r\\n" not in reply:
            reply += sock.recv(65536)
        head, _, answer = reply.partition(b"\\r\\n\\r\\n")
        length = int(head.lower().split(b"content-length:")[1].split(b"\\r\\n")[0])
        while len(answer) < length:
            answer += sock.recv(65536)
    loaded = sorted(sys.modules)
finally:
    server.stop()
    system.close()

import json
print(json.dumps({
    "status_line": head.split(b"\\r\\n", 1)[0].decode(),
    "loaded": loaded,
    "after_numpy": [name for name in loaded if name not in after_numpy],
}))
"""


@pytest.fixture(scope="module")
def library(tmp_path_factory):
    """A two-video durable library, its 2-shard split and a query image."""
    root = tmp_path_factory.mktemp("import-budget")
    path = str(root / "lib.rdb")
    system = VideoRetrievalSystem.open(path)
    admin = system.login_admin()
    for seed, category in enumerate(("sports", "news")):
        video = generate_video(
            VideoSpec(category=category, seed=seed, width=64, height=48,
                      n_shots=2, frames_per_shot=3)
        )
        admin.add_video(video)
    admin.checkpoint()
    system.close()
    query = str(root / "query.ppm")
    video.frames[0].save(query)
    shard_dir = str(root / "shards")
    split_library(path, shard_dir, 2)
    return path, query, shard_dir


def _serve_once(library, mode):
    path, query, shard_dir = library
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), REPRO_LOG_LEVEL="ERROR")
    done = subprocess.run(
        [sys.executable, "-c", _SERVE_ONCE, path, query, mode, shard_dir],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["status_line"] == "HTTP/1.1 200 OK"
    return report


def _covered(names, modules):
    return sorted(
        m for m in modules if any(m == n or m.startswith(n + ".") for n in names)
    )


def test_a_plain_serve_imports_what_it_runs(library):
    report = _serve_once(library, "plain")
    assert _covered(NOT_ON_A_PLAIN_SERVE, report["loaded"]) == []
    assert len(report["after_numpy"]) <= MODULE_CEILING, report["after_numpy"]
    # the registry is populated all the same
    assert "repro.features.regions" in report["loaded"]


@pytest.mark.parametrize(
    "mode, now_loaded",
    [
        ("ann", ["repro.indexing.ann"]),
        ("sharded", ["repro.sharding.coordinator", "concurrent.futures.process",
                     "multiprocessing"]),
    ],
)
def test_deferred_modules_load_when_used(library, mode, now_loaded):
    loaded = _serve_once(library, mode)["loaded"]
    for name in now_loaded:
        assert name in loaded
