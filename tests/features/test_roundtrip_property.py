"""Property tests: the VARCHAR2 string form is lossless, and never admits
non-finite values (the satellite hardening of FeatureVector.from_string).

Two layers:

- pure FeatureVector round-trips over arbitrary finite float arrays
  (hypothesis-generated);
- every registered extractor's string for a synthetic frame
  (``FeatureExtractor.to_string``, the paper's getStringRepresentation)
  parses back to its real output bit-exactly, which is what the DB layer
  does on every ingest/reload cycle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.base import FeatureVector, all_extractors, get_extractor
from repro.imaging.image import Image
from repro.imaging.synthetic import checkerboard, smooth_noise, stripes

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(st.lists(finite_floats, min_size=1, max_size=64))
def test_feature_vector_roundtrip_is_lossless(values):
    fv = FeatureVector(kind="prop", values=np.array(values), tag="PROP")
    restored = FeatureVector.from_string("prop", fv.to_string())
    assert restored == fv
    assert restored.tag == "PROP"


@given(st.lists(finite_floats, min_size=1, max_size=8))
def test_double_roundtrip_is_stable(values):
    """One round-trip reaches a fixed point: string form of the restored
    vector is identical to the original string."""
    fv = FeatureVector(kind="prop", values=np.array(values))
    text = fv.to_string()
    assert FeatureVector.from_string("prop", text).to_string() == text


def _synthetic_frame(seed: int) -> Image:
    """A 32x40 RGB frame mixing the corpus generator's building blocks."""
    rng = np.random.default_rng(seed)
    channels = [
        smooth_noise(40, 32, sigma=1.5, rng=rng),
        stripes(40, 32, period=5 + seed % 4),
        checkerboard(40, 32, cell=4 + seed % 3),
    ]
    arr = np.stack(channels, axis=-1)
    return Image(arr.astype(np.uint8))


@pytest.mark.parametrize("name", all_extractors())
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_every_extractor_output_roundtrips(name, seed):
    extractor = get_extractor(name)
    frame = _synthetic_frame(seed)
    fv = extractor.extract(frame)
    restored = FeatureVector.from_string(name, extractor.to_string(frame))
    assert restored == fv
    assert restored.tag == fv.tag
    assert np.array_equal(restored.values, fv.values)


class TestNonFiniteRejection:
    def test_nan_token_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            FeatureVector.from_string("glcm", "GLCM 3 1.0 nan 2.0")

    @pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "-Infinity"])
    def test_infinite_tokens_rejected(self, token):
        with pytest.raises(ValueError, match="non-finite"):
            FeatureVector.from_string("glcm", f"GLCM 2 {token} 1.0")

    def test_non_numeric_token_has_clear_error(self):
        with pytest.raises(ValueError, match="non-numeric"):
            FeatureVector.from_string("glcm", "GLCM 2 1.0 bogus")

    def test_error_names_the_offending_tokens(self):
        with pytest.raises(ValueError, match="nan"):
            FeatureVector.from_string("sch", "RGB 2 nan 1.0")

    def test_finite_values_still_parse(self):
        fv = FeatureVector.from_string("sch", "RGB 3 0.0 -1.5 1e300")
        assert np.array_equal(fv.values, [0.0, -1.5, 1e300])
