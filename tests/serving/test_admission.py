"""AdmissionController: the degrade-before-shed ladder, engine-free."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.serving import AdmissionController, OverloadedError


def _controller(**overrides):
    defaults = dict(
        serving_queue_limit=8,
        serving_degrade_depth=4,
        serving_degrade_features=2,
    )
    defaults.update(overrides)
    return AdmissionController(SystemConfig(**defaults))


def test_below_degrade_depth_admits_untouched():
    assert _controller().admit(0) is None
    assert _controller().admit(3) is None


def test_between_degrade_and_limit_degrades():
    config = SystemConfig(
        serving_queue_limit=8,
        serving_degrade_depth=4,
        serving_degrade_features=2,
        ann=True,
        ann_nprobe=6,
    )
    decision = AdmissionController(config).admit(5)
    assert decision is not None
    assert decision.features == tuple(config.features[:2])
    assert decision.nprobe == 3  # ann_nprobe halved


def test_degrade_without_ann_leaves_nprobe_alone():
    decision = _controller(ann=False).admit(6)
    assert decision is not None
    assert decision.nprobe is None


def test_degrade_depth_zero_disables_the_rung():
    controller = _controller(serving_degrade_depth=0)
    assert controller.admit(7) is None  # admitted untouched right up to the limit


def test_at_limit_sheds_with_retry_after():
    controller = _controller()
    with pytest.raises(OverloadedError) as err:
        controller.admit(8, service_seconds=0.5)
    assert err.value.retry_after == 4  # 8 queued at half a second each
    assert "queue full" in str(err.value)


def test_retry_after_grows_with_backlog():
    controller = _controller()
    assert controller.retry_after(1, 0.5) <= controller.retry_after(50, 0.5)
    assert controller.retry_after(50, 0.5) == 25  # 50 requests of 0.5s
    assert controller.retry_after(50, 0.0) == 1  # nothing observed yet: the floor


def test_shed_and_degrade_are_counted(ingested_system):
    obs = ingested_system.obs
    config = SystemConfig(serving_queue_limit=2, serving_degrade_depth=1)
    controller = AdmissionController(config, obs=obs)
    before = obs.registry.render_json()
    controller.admit(0)
    controller.admit(1)  # degraded
    with pytest.raises(OverloadedError):
        controller.admit(2)  # shed
    after = obs.registry.render_json()

    def total(state, name):
        family = state.get(name) or {"samples": []}
        return sum(s.get("value", 0) for s in family["samples"])

    assert total(after, "repro_serving_shed_total") - total(before, "repro_serving_shed_total") == 1
    assert (
        total(after, "repro_serving_degraded_total")
        - total(before, "repro_serving_degraded_total")
        == 1
    )
    assert (
        total(after, "repro_serving_admitted_total")
        - total(before, "repro_serving_admitted_total")
        == 2
    )
