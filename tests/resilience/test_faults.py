"""Fault spec parsing and deterministic trigger behavior."""

from __future__ import annotations

import pytest

from repro.obs import Obs
from repro.resilience import (
    FAULTS_ENV_VAR,
    FaultInjected,
    FaultRegistry,
    FaultSpec,
    parse_fault_spec,
    spec_from_env,
)


# -- parsing -------------------------------------------------------------------


def test_parse_every_and_once():
    specs = parse_fault_spec("extractor.gabor:every=2; db.execute:once")
    assert [s.point for s in specs] == ["extractor.gabor", "db.execute"]
    assert specs[0].mode == "every" and specs[0].n == 2
    assert specs[1].mode == "once"


def test_parse_skips_empty_clauses():
    assert parse_fault_spec(";;ann.probe:once;") == [
        FaultSpec(point="ann.probe", mode="once")
    ]


@pytest.mark.parametrize(
    "bad",
    [
        "no-colon-here",
        "db.execute:",  # no trigger
        "db.execute:sometimes",  # unknown option
        "not.a.point:once",  # unknown point
        "extractor.Gabor:once",  # extractor names are lowercase identifiers
        "db.execute:every=0",  # every needs N >= 1
        "db.execute:p=0",  # there is no probabilistic trigger
        "db.execute:p=1.5",
        "db.execute:p=0.5,seed=7",
        # points no fallback stands behind are not fault points
        "codec.decode:once",
        "snapshot.open:once",
        "serving.request:once",
        "pool.map:once",
    ],
)
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        parse_fault_spec(bad)


def test_spec_from_env_reads_and_strips(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV_VAR, "  db.execute:once  ")
    assert spec_from_env() == "db.execute:once"
    monkeypatch.setenv(FAULTS_ENV_VAR, "   ")
    assert spec_from_env() is None
    monkeypatch.delenv(FAULTS_ENV_VAR)
    assert spec_from_env() is None


def test_config_validates_fault_spec_eagerly(monkeypatch):
    from repro.core.system import VideoRetrievalSystem

    for bad in ("db.execute:sometimes", "pool.map:once"):
        monkeypatch.setenv(FAULTS_ENV_VAR, bad)
        with pytest.raises(ValueError):
            VideoRetrievalSystem.in_memory()
    monkeypatch.setenv(FAULTS_ENV_VAR, "db.execute:once")  # well-formed arms
    with pytest.raises(FaultInjected):  # the first statement of construction
        VideoRetrievalSystem.in_memory()


# -- triggers ------------------------------------------------------------------


def _fire_pattern(registry: FaultRegistry, point: str, calls: int) -> list:
    out = []
    for _ in range(calls):
        try:
            registry.fire(point)
            out.append(False)
        except FaultInjected:
            out.append(True)
    return out


def test_unarmed_registry_is_inert():
    registry = FaultRegistry()
    assert not registry.armed
    assert _fire_pattern(registry, "db.execute", 5) == [False] * 5


def test_once_fires_exactly_first_call():
    registry = FaultRegistry("db.execute:once")
    assert _fire_pattern(registry, "db.execute", 4) == [True, False, False, False]
    assert registry.stats()["db.execute"] == {"calls": 4, "fired": 1}


def test_every_n_fires_on_multiples():
    registry = FaultRegistry("ann.probe:every=3")
    assert _fire_pattern(registry, "ann.probe", 7) == [
        False, False, True, False, False, True, False,
    ]


def test_unarmed_point_in_armed_registry_never_fires():
    registry = FaultRegistry("db.execute:once")
    assert _fire_pattern(registry, "ann.probe", 3) == [False] * 3


def test_fire_counts_into_obs():
    obs = Obs(enabled=True)
    registry = FaultRegistry("db.execute:every=1", obs=obs)
    for _ in range(3):
        with pytest.raises(FaultInjected):
            registry.fire("db.execute")
    fam = obs.registry.render_json()["repro_resilience_faults_injected_total"]
    assert fam["samples"][0]["value"] == 3


def test_fault_injected_carries_point_and_count():
    registry = FaultRegistry("shard.query:every=1")
    with pytest.raises(FaultInjected) as info:
        registry.fire("shard.query")
    assert info.value.point == "shard.query"
    assert info.value.fire_count == 1
