"""One golden ingest: the fast path stores what the reference path stores.

The same video goes through ``add_video`` twice, once on the accelerated
kernels and once under ``accel.reference_paths()`` (rescale-then-reduce
key-framing and GLCM, per-candidate thresholding, per-offset correlogram,
fancy-index coarseness, per-filter Gabor).  Everything the library keeps
must be the same bytes; only the five GLCM statistics (another summation
order) and the Gabor energies (one batched, in-place inverse FFT taken axis
by axis against a per-filter ``ifft2``, as in
``tests/imaging/test_accel_equivalence.py``) are compared by tolerance.

Both paths are NumPy alone, so the bytes do not depend on what else is
installed: a subprocess that cannot import SciPy stores the same strings.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.system import VideoRetrievalSystem
from repro.imaging import accel
from repro.imaging.image import Image
from repro.video.generator import VideoSpec, generate_video
from tests.imaging.test_accel_equivalence import _TOLERANCES as _EXTRACTOR_TOLERANCES

_FEATURE_COLUMNS = ("SCH", "GLCM", "GABOR", "TAMURA", "ACC", "REGIONS")

#: feature column -> (rtol, atol), the per-extractor oracle's own; every
#: other column must match exactly
_TOLERANCES = {
    name.upper(): tolerance
    for name, tolerance in _EXTRACTOR_TOLERANCES.items()
    if tolerance is not None
}


def _golden_video():
    """Three shots, noisy pixels (RAW beats RLE), a flat tail (a > 255 run)."""
    clean = generate_video(
        VideoSpec(category="sports", seed=2012, width=64, height=48, n_shots=3, frames_per_shot=5)
    )
    gen = np.random.default_rng(2012)
    frames = [
        Image(
            np.clip(
                f.pixels.astype(np.int16) + gen.integers(-2, 3, f.pixels.shape), 0, 255
            ).astype(np.uint8)
        )
        for f in clean.frames
    ]
    frames.append(Image(np.full((48, 64, 3), 200, dtype=np.uint8)))
    return frames


def _ingest(frames):
    system = VideoRetrievalSystem.in_memory()
    report = system.login_admin().add_video(frames, name="golden", category="sports")
    video = system.db.execute("SELECT * FROM VIDEO_STORE").rows
    key_frames = system.db.execute("SELECT * FROM KEY_FRAMES ORDER BY I_ID").rows
    system.close()
    return report, [dict(r) for r in video], [dict(r) for r in key_frames]


@pytest.fixture(scope="module")
def golden():
    frames = _golden_video()
    fast = _ingest(frames)
    with accel.reference_paths():
        reference = _ingest(frames)
    return fast, reference


def test_video_row_is_byte_identical(golden):
    (_, fast, _), (_, reference, _) = golden
    assert len(fast) == len(reference) == 1
    assert bytes(fast[0]["VIDEO"]) == bytes(reference[0]["VIDEO"])
    assert fast[0] == reference[0]  # name, category, MOTION string, date


def test_same_key_frames_buckets_and_images(golden):
    (fast_report, _, fast), (reference_report, _, reference) = golden
    assert fast_report == reference_report
    assert fast_report.n_keyframes >= 3  # one per shot, at least
    for a, b in zip(fast, reference):
        for column in ("I_ID", "I_NAME", "MIN", "MAX", "MAJORREGIONS", "V_ID"):
            assert a[column] == b[column], column
        assert bytes(a["IMAGE"]) == bytes(b["IMAGE"])


def test_feature_strings(golden):
    (_, _, fast), (_, _, reference) = golden
    compared = 0
    for a, b in zip(fast, reference):
        for column in _FEATURE_COLUMNS:
            if column not in _TOLERANCES:
                assert a[column] == b[column], column
            else:
                rtol, atol = _TOLERANCES[column]
                tag_a, n_a, *values_a = a[column].split()
                tag_b, n_b, *values_b = b[column].split()
                assert (tag_a, n_a) == (tag_b, n_b)
                assert np.allclose(
                    np.array(values_a, dtype=float),
                    np.array(values_b, dtype=float),
                    rtol=rtol,
                    atol=atol,
                ), column
            compared += 1
    assert compared == 6 * len(fast)


_INGEST_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any `import scipy...` now raises ImportError
import json
from tests.integration.test_golden_ingest import _golden_video, _ingest
_, _, key_frames = _ingest(_golden_video())
print(json.dumps([[row[c] for c in %r] for row in key_frames]))
""" % (_FEATURE_COLUMNS,)


def test_same_feature_strings_where_scipy_is_absent(golden):
    """The documented install is NumPy only: a process in which ``import
    scipy`` fails must store the strings this one (SciPy importable) stores."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
    done = subprocess.run(
        [sys.executable, "-c", _INGEST_WITHOUT_SCIPY],
        env=env, cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (_, _, fast), _ = golden
    assert json.loads(done.stdout) == [[row[c] for c in _FEATURE_COLUMNS] for row in fast]
