"""The extractor registry as a plain ``import repro.features`` leaves it.

The retrieval pipeline sees an extractor only through the
``@register_extractor`` registry, and a registration runs only when its
module is imported.  Test modules import extractor modules directly, so
in the test process the registry always looks complete; the probe runs
in a fresh interpreter that imports the package and nothing else.  A
duplicate extractor name already raises inside ``register_extractor``,
so it fails the probe's import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

PROBE = """
import inspect, json, pkgutil, sys
import repro.features
from repro.features import FeatureExtractor, all_extractors, get_extractor

def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)

def qualname(cls):
    return f"{cls.__module__}.{cls.__qualname__}"

registered = [type(get_extractor(name)) for name in all_extractors()]
print(json.dumps({
    "modules": sorted(
        m.name for m in pkgutil.iter_modules(repro.features.__path__, "repro.features.")
    ),
    "imported": sorted(m for m in sys.modules if m.startswith("repro.features.")),
    "concrete": sorted(
        qualname(c) for c in subclasses(FeatureExtractor) if not inspect.isabstract(c)
    ),
    "registered": sorted(qualname(c) for c in registered),
    "tags": [c.tag for c in registered],
}))
"""


@pytest.fixture(scope="module")
def registry():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    return json.loads(probe.stdout)


def test_package_import_loads_every_feature_module(registry):
    assert set(registry["modules"]) - set(registry["imported"]) == set()


def test_every_concrete_extractor_is_registered(registry):
    assert registry["concrete"] == registry["registered"]


def test_extractor_tags_are_unique(registry):
    tags = registry["tags"]
    assert sorted(tags) == sorted(set(tags)), tags
