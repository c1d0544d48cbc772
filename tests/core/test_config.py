"""SystemConfig tests."""

import dataclasses

import pytest

from repro.core.config import TABLE1_FEATURES, SystemConfig


class TestConfig:
    def test_defaults(self):
        c = SystemConfig()
        assert c.features == TABLE1_FEATURES
        assert c.keyframe_threshold == 800.0
        assert c.use_index is True
        assert c.admin_password is None

    def test_every_field_is_a_knob_something_turns(self):
        # fixed policies live as defaulted arguments where they are used
        # (ResiliencePolicies, MicroBatcher's BATCH_MAX), not here
        names = {f.name for f in dataclasses.fields(SystemConfig)}
        assert len(names) == 21
        assert not names & {
            "batch_window_ms", "batch_max", "retry_attempts", "retry_base_delay",
            "retry_max_elapsed", "retry_seed", "breaker_failure_threshold",
            "obs_latency_buckets", "obs_log_level", "sequence_gap_penalty",
            # the trace and slow-query rings keep Obs's sizes
            "obs_trace_buffer", "obs_slow_log_size",
            # fault points are armed from REPRO_FAULTS; shard breakers take
            # ResiliencePolicies' defaults; partial shard answers are always served
            "resilience", "fault_spec", "breaker_window", "breaker_cooldown",
            "shard_partial_ok",
            # clip queries are DTW over appearance features alone
            "sequence_method", "video_motion_weight",
            # the helper lane is the one in-process parallelism; an admitted
            # request always gets the full answer
            "workers", "serving_degrade_depth", "serving_degrade_features",
        }

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(features=("sift",))

    def test_empty_features_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(features=())

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(keyframe_threshold=-1)

    def test_bad_sequence_method_rejected(self):
        # DTW is the one clip similarity: no field, no alias for the old knobs
        with pytest.raises(TypeError):
            SystemConfig(sequence_method="dtw")
        with pytest.raises(TypeError):
            SystemConfig(video_motion_weight=0.0)

    def test_weights(self):
        c = SystemConfig(features=("sch", "glcm"), fusion_weights={"sch": 2.0})
        assert c.weight_of("sch") == 2.0
        assert c.weight_of("glcm") == 1.0  # default
        assert c.weights_dict() == {"sch": 2.0, "glcm": 1.0}

    def test_with_creates_modified_copy(self):
        base = SystemConfig()
        variant = base.with_(use_index=False)
        assert variant.use_index is False
        assert base.use_index is True
        assert variant.features == base.features

    def test_frozen(self):
        with pytest.raises(Exception):
            SystemConfig().use_index = False
