"""Built-in reprolint rules.

Importing this package registers every rule with the engine's catalogue
(mirroring how ``repro.features`` registers extractors).  The catalogue:

====  ==========================  ==============================================
id    name                        enforces
====  ==========================  ==============================================
R1    extractor-registered        FeatureExtractor subclasses register a name
R2    registry-unique             extractor names/tags collide nowhere
R3    feature-string-contract     to_string/from_string keep the header form
R4    parameterized-sql           no interpolated SQL at execute() sites
R5    pure-layers                 imaging/similarity stay free of IO
R9    db-error-hierarchy          db layer raises DatabaseError subclasses
R10   extractor-module-imported   features/__init__ imports every extractor
R11   seeded-randomness           numpy randomness uses explicitly seeded RNGs
R13   no-bare-sleep               nothing in the package blocks in time.sleep
R14   layer-dag                   imports follow the layer DAG, no import cycles
R15   fork-thread-safety          concurrent paths lock shared module state
R16   sql-dataflow                dynamic SQL cannot flow into execute() sites
R17   obs-coverage                public entry points reach a span or metric
R20   async-no-blocking           async def bodies never call blocking APIs
====  ==========================  ==============================================

Generic Python hygiene is ruff's job (``docs/static_analysis.md``).
"""

from repro.analysis.rules.asyncblocking import AsyncBlockingRule
from repro.analysis.rules.concurrency import ConcurrencySafetyRule
from repro.analysis.rules.errors import DbErrorHierarchyRule
from repro.analysis.rules.extractors import (
    ExtractorModuleImportRule,
    ExtractorRegistrationRule,
    FeatureStringContractRule,
    RegistryUniquenessRule,
)
from repro.analysis.rules.layering import LayerDagRule
from repro.analysis.rules.obscoverage import ObsCoverageRule
from repro.analysis.rules.purity import PurityRule
from repro.analysis.rules.randomness import SeededRandomnessRule
from repro.analysis.rules.sleeping import NoSleepRule
from repro.analysis.rules.sql import SqlConstructionRule
from repro.analysis.rules.sqlflow import SqlDataflowRule

__all__ = [
    "ExtractorRegistrationRule",
    "RegistryUniquenessRule",
    "FeatureStringContractRule",
    "ExtractorModuleImportRule",
    "SqlConstructionRule",
    "PurityRule",
    "DbErrorHierarchyRule",
    "SeededRandomnessRule",
    "NoSleepRule",
    "LayerDagRule",
    "ConcurrencySafetyRule",
    "SqlDataflowRule",
    "ObsCoverageRule",
    "AsyncBlockingRule",
]
