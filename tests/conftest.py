"""Shared fixtures.

Heavy objects (the demo corpus and a fully-ingested system) are
session-scoped: building them once keeps the suite fast while letting many
test modules exercise the same realistic state.  Tests that mutate a
system build their own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.system import VideoRetrievalSystem
from repro.eval.groundtruth import CategoryGroundTruth
from repro.imaging.image import Image
from repro.serving import AsyncCbvrServer
from repro.video.generator import VideoSpec, generate_video, make_corpus


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """An ambient REPRO_FAULTS would arm chaos in every system a test
    builds; tests opt in explicitly (monkeypatch.setenv) instead."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def fresh_rng():
    return np.random.default_rng(999)


@pytest.fixture(scope="session")
def gradient_image() -> Image:
    """A deterministic RGB test image with structure in every channel."""
    h, w = 48, 64
    ys, xs = np.mgrid[0:h, 0:w]
    arr = np.stack(
        [
            (xs * 255 // max(1, w - 1)),
            (ys * 255 // max(1, h - 1)),
            ((xs + ys) * 255 // max(1, w + h - 2)),
        ],
        axis=-1,
    ).astype(np.uint8)
    return Image(arr)


@pytest.fixture(scope="session")
def noise_image() -> Image:
    gen = np.random.default_rng(77)
    return Image(gen.integers(0, 256, (40, 56, 3), dtype=np.uint8))


@pytest.fixture(scope="session")
def sample_video():
    """One small 2-shot synthetic video."""
    return generate_video(
        VideoSpec(category="cartoon", seed=31, n_shots=2, frames_per_shot=5)
    )


@pytest.fixture(scope="session")
def small_corpus():
    """Two videos per category, short clips (session-shared, read-only)."""
    return make_corpus(videos_per_category=2, seed=7, n_shots=2, frames_per_shot=5)


@pytest.fixture(scope="session")
def ingested_system(small_corpus):
    """A system with the small corpus ingested (session-shared, read-only).

    Mutating tests must build their own system instead of using this one.
    """
    system = VideoRetrievalSystem.in_memory()
    admin = system.login_admin()
    for video in small_corpus:
        admin.add_video(video)
    return system


@pytest.fixture(scope="session")
def ground_truth(ingested_system) -> CategoryGroundTruth:
    return CategoryGroundTruth.from_store(ingested_system._store)


@pytest.fixture()
def served():
    """``served(system)`` puts ``system`` behind a running HTTP server and
    returns its base URL; every server started is stopped at teardown."""
    servers = []

    def start(system) -> str:
        servers.append(AsyncCbvrServer(system))
        return servers[-1].start_in_thread()

    yield start
    for server in servers:
        server.stop()
