"""AdmissionController: shed at the queue limit, engine-free."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.serving import AdmissionController, OverloadedError


def _controller():
    return AdmissionController(SystemConfig(serving_queue_limit=8))


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


def test_shed_and_admit_are_counted(ingested_system):
    obs = ingested_system.obs
    config = SystemConfig(serving_queue_limit=2)
    controller = AdmissionController(config, obs=obs)
    before = obs.registry.render_json()
    assert controller.admit(0) is None
    assert controller.admit(1) is None  # untouched right up to the limit
    with pytest.raises(OverloadedError):
        controller.admit(2)  # shed
    after = obs.registry.render_json()

    def total(state, name):
        family = state.get(name) or {"samples": []}
        return sum(s.get("value", 0) for s in family["samples"])

    assert total(after, "repro_serving_shed_total") - total(before, "repro_serving_shed_total") == 1
    assert (
        total(after, "repro_serving_admitted_total")
        - total(before, "repro_serving_admitted_total")
        == 2
    )
