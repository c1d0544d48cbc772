"""Feature framework tests: vectors, string round-trip, registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.base import (
    FeatureExtractor,
    FeatureVector,
    all_extractors,
    default_extractors,
    get_extractor,
    parse_feature_string,
)


class TestFeatureVector:
    def test_basic(self):
        fv = FeatureVector(kind="glcm", values=np.array([1.0, 2.0]))
        assert len(fv) == 2
        assert fv.tag == "glcm"  # defaults to kind

    def test_custom_tag(self):
        fv = FeatureVector(kind="sch", values=np.zeros(3), tag="RGB")
        assert fv.to_string().startswith("RGB 3 ")

    def test_values_immutable(self):
        fv = FeatureVector(kind="x", values=np.array([1.0]))
        with pytest.raises(ValueError):
            fv.values[0] = 2.0

    def test_equality_and_hash(self):
        a = FeatureVector(kind="x", values=np.array([1.0, 2.0]))
        b = FeatureVector(kind="x", values=np.array([1.0, 2.0]))
        c = FeatureVector(kind="y", values=np.array([1.0, 2.0]))
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_string_roundtrip_exact(self):
        values = np.array([0.1, -3.5e-17, 1e300, 42.0, 0.0])
        fv = FeatureVector(kind="t", values=values, tag="Tamura")
        rt = FeatureVector.from_string("t", fv.to_string())
        assert np.array_equal(rt.values, values)
        assert rt.tag == "Tamura"

    def test_from_string_validates_count(self):
        with pytest.raises(ValueError):
            FeatureVector.from_string("x", "TAG 3 1.0 2.0")

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            FeatureVector.from_string("x", "TAG")
        with pytest.raises(ValueError):
            FeatureVector.from_string("x", "TAG notanumber 1.0")

    def test_parse_alias(self):
        fv = FeatureVector(kind="x", values=np.array([5.0]))
        assert parse_feature_string("x", fv.to_string()) == fv

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=0,
            max_size=40,
        )
    )
    def test_roundtrip_property(self, values):
        fv = FeatureVector(kind="p", values=np.array(values, dtype=np.float64))
        rt = FeatureVector.from_string("p", fv.to_string())
        assert np.array_equal(rt.values, fv.values)
        # the stored form is repr() of each Python float, value by value
        assert fv.to_string().split()[2:] == [repr(float(v)) for v in fv.values]

    @pytest.mark.parametrize(
        "dump",
        [  # the paper's section 5.1 sample dumps (leading values)
            "GLCM 6 180000.0 0.0302 87.89 0.000227 0.5008 6.82",
            "gabor 4 8.7568 0.0935 3.2e-05 1e+22",
            "Tamura 5 14620.0 44.25 1098.0 234.0 258.0",
            "ACC 3 0.7046 1.0 0.0",
        ],
    )
    def test_sample_dumps_survive_unchanged(self, dump):
        assert FeatureVector.from_string("x", dump).to_string() == dump


class TestRegistry:
    def test_all_eight_registered(self):
        assert all_extractors() == [
            "acc", "ehd", "gabor", "glcm", "naive", "regions", "sch", "tamura",
        ]

    def test_get_by_name(self):
        ex = get_extractor("glcm")
        assert ex.name == "glcm"

    def test_get_with_kwargs(self):
        ex = get_extractor("acc", max_distance=2)
        assert ex.max_distance == 2

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_extractor("sift")

    def test_default_extractors_subset(self):
        exs = default_extractors(["sch", "gabor"])
        assert [e.name for e in exs] == ["sch", "gabor"]

    def test_default_extractors_all(self):
        assert len(default_extractors()) == 8


class TestDistanceValidation:
    def test_kind_mismatch_rejected(self):
        ex = get_extractor("glcm")
        a = FeatureVector(kind="glcm", values=np.zeros(6))
        b = FeatureVector(kind="sch", values=np.zeros(6))
        with pytest.raises(ValueError):
            ex.distance(a, b)

    def test_length_mismatch_rejected(self):
        ex = get_extractor("glcm")
        a = FeatureVector(kind="glcm", values=np.zeros(6))
        b = FeatureVector(kind="glcm", values=np.zeros(5))
        with pytest.raises(ValueError):
            ex.distance(a, b)


class TestAbstract:
    def test_extractor_is_abstract(self):
        with pytest.raises(TypeError):
            FeatureExtractor()
