"""Built-in reprolint rules.

Importing this package registers every rule with the engine's catalogue
(mirroring how ``repro.features`` registers extractors).  The catalogue:

====  ==========================  ==============================================
id    name                        enforces
====  ==========================  ==============================================
R5    pure-layers                 imaging/similarity stay free of IO
R9    db-error-hierarchy          db layer raises DatabaseError subclasses
R11   seeded-randomness           numpy randomness uses explicitly seeded RNGs
R13   no-bare-sleep               nothing in the package blocks in time.sleep
R14   layer-dag                   imports follow the layer DAG, no import cycles
R15   fork-thread-safety          concurrent paths lock shared module state
R16   sql-dataflow                no dynamic SQL reaches an execute() site
R17   obs-coverage                public entry points reach a span or metric
====  ==========================  ==============================================

The extractor registry's contracts (registration, unique names and tags,
every extractor module imported) are checked at runtime by
``tests/features/test_registry.py``; generic Python hygiene is ruff's job
(``docs/static_analysis.md``).
"""

from repro.analysis.rules.concurrency import ConcurrencySafetyRule
from repro.analysis.rules.errors import DbErrorHierarchyRule
from repro.analysis.rules.layering import LayerDagRule
from repro.analysis.rules.obscoverage import ObsCoverageRule
from repro.analysis.rules.purity import PurityRule
from repro.analysis.rules.randomness import SeededRandomnessRule
from repro.analysis.rules.sleeping import NoSleepRule
from repro.analysis.rules.sqlflow import SqlDataflowRule

__all__ = [
    "PurityRule",
    "DbErrorHierarchyRule",
    "SeededRandomnessRule",
    "NoSleepRule",
    "LayerDagRule",
    "ConcurrencySafetyRule",
    "SqlDataflowRule",
    "ObsCoverageRule",
]
