"""Fixture tests: every rule fires on a minimal violation and stays silent
on the matching clean sample."""

import textwrap

from repro.analysis import LintConfig, LintEngine, lint_source


def run_rule(rule_id, source, module="fixture", **config_kwargs):
    """Findings of one rule over one in-memory module."""
    config = LintConfig(select=frozenset({rule_id}), **config_kwargs)
    report = lint_source(textwrap.dedent(source), module=module, config=config)
    return report.findings


def run_rule_project(rule_id, named_sources, **config_kwargs):
    """Findings of one (project) rule over several in-memory modules."""
    config = LintConfig(select=frozenset({rule_id}), **config_kwargs)
    engine = LintEngine(config)
    modules = [
        engine.load_source(textwrap.dedent(src), path=f"{name}.py", module=name)
        for name, src in named_sources
    ]
    return engine.lint_modules(modules).findings


class TestR1ExtractorRegistered:
    def test_unregistered_subclass_fires(self):
        findings = run_rule(
            "R1",
            """
            from repro.features.base import FeatureExtractor

            class Sneaky(FeatureExtractor):
                name = "sneaky"

                def extract(self, image):
                    return None
            """,
        )
        assert [f.rule_id for f in findings] == ["R1"]
        assert "register_extractor" in findings[0].message

    def test_missing_name_fires(self):
        findings = run_rule(
            "R1",
            """
            from repro.features.base import FeatureExtractor, register_extractor

            @register_extractor
            class NoName(FeatureExtractor):
                name = ""

                def extract(self, image):
                    return None
            """,
        )
        assert len(findings) == 1
        assert "'name'" in findings[0].message

    def test_registered_with_name_is_clean(self):
        assert not run_rule(
            "R1",
            """
            from repro.features.base import FeatureExtractor, register_extractor

            @register_extractor
            class Good(FeatureExtractor):
                name = "good"
                tag = "GOOD"

                def extract(self, image):
                    return None
            """,
        )

    def test_abstract_intermediate_is_exempt(self):
        assert not run_rule(
            "R1",
            """
            import abc
            from repro.features.base import FeatureExtractor

            class PartialExtractor(FeatureExtractor):
                @abc.abstractmethod
                def window_size(self):
                    ...
            """,
        )

    def test_private_helper_class_is_exempt(self):
        assert not run_rule(
            "R1",
            """
            from repro.features.base import FeatureExtractor

            class _TestingStub(FeatureExtractor):
                name = "stub"

                def extract(self, image):
                    return None
            """,
        )


class TestR2RegistryUnique:
    DUP_A = """
    from repro.features.base import FeatureExtractor, register_extractor

    @register_extractor
    class First(FeatureExtractor):
        name = "dup"
        tag = "A"

        def extract(self, image):
            return None
    """

    def test_duplicate_name_fires(self):
        dup_b = self.DUP_A.replace("First", "Second").replace('"A"', '"B"')
        findings = run_rule_project(
            "R2", [("repro.features.a", self.DUP_A), ("repro.features.b", dup_b)]
        )
        assert len(findings) == 1
        assert "name 'dup'" in findings[0].message

    def test_duplicate_tag_fires(self):
        dup_b = self.DUP_A.replace("First", "Second").replace('"dup"', '"other"')
        findings = run_rule_project(
            "R2", [("repro.features.a", self.DUP_A), ("repro.features.b", dup_b)]
        )
        assert len(findings) == 1
        assert "tag 'A'" in findings[0].message

    def test_distinct_names_and_tags_clean(self):
        other = self.DUP_A.replace("First", "Second").replace('"dup"', '"x"').replace(
            '"A"', '"X"'
        )
        assert not run_rule_project(
            "R2", [("repro.features.a", self.DUP_A), ("repro.features.b", other)]
        )

    def test_default_tag_collides_with_explicit_name(self):
        # no tag on Second: register_extractor defaults it to name "A",
        # which collides with First's explicit tag "A"
        dup_b = """
        from repro.features.base import FeatureExtractor, register_extractor

        @register_extractor
        class Second(FeatureExtractor):
            name = "A"

            def extract(self, image):
                return None
        """
        findings = run_rule_project(
            "R2", [("repro.features.a", self.DUP_A), ("repro.features.b", dup_b)]
        )
        assert any("tag 'A'" in f.message for f in findings)


class TestR3FeatureStringContract:
    def test_header_dropping_to_string_fires(self):
        findings = run_rule(
            "R3",
            """
            from repro.features.base import FeatureVector

            class BareVector(FeatureVector):
                def to_string(self):
                    return " ".join(repr(float(v)) for v in self.values)
            """,
        )
        assert [f.rule_id for f in findings] == ["R3"]
        assert "to_string" in findings[0].message

    def test_headerless_from_string_fires(self):
        findings = run_rule(
            "R3",
            """
            from repro.features.base import FeatureVector

            class BareVector(FeatureVector):
                @classmethod
                def from_string(cls, kind, text):
                    return cls(kind, [float(t) for t in text.split()])
            """,
        )
        assert [f.rule_id for f in findings] == ["R3"]
        assert "from_string" in findings[0].message

    def test_delegating_override_is_clean(self):
        assert not run_rule(
            "R3",
            """
            from repro.features.base import FeatureVector

            class LoggingVector(FeatureVector):
                def to_string(self):
                    return super().to_string()

                @classmethod
                def from_string(cls, kind, text):
                    return super().from_string(kind, text.strip())
            """,
        )

    def test_explicit_header_is_clean(self):
        assert not run_rule(
            "R3",
            """
            from repro.features.base import FeatureVector

            class ManualVector(FeatureVector):
                def to_string(self):
                    parts = [self.tag, str(len(self.values))]
                    parts.extend(repr(float(v)) for v in self.values)
                    return " ".join(parts)

                @classmethod
                def from_string(cls, kind, text):
                    tokens = text.split()
                    n = int(tokens[1])
                    return cls(kind, [float(t) for t in tokens[2:2 + n]], tag=tokens[0])
            """,
        )

    def test_unrelated_class_is_exempt(self):
        assert not run_rule(
            "R3",
            """
            class Report:
                def to_string(self):
                    return "not a feature at all"
            """,
        )


class TestR4ParameterizedSql:
    def test_fstring_fires(self):
        findings = run_rule(
            "R4",
            """
            def fetch(db, table):
                return db.execute(f"SELECT * FROM {table}").rows
            """,
        )
        assert "f-string" in findings[0].message

    def test_concatenation_fires(self):
        findings = run_rule(
            "R4",
            """
            def fetch(db, table):
                return db.execute("SELECT * FROM " + table).rows
            """,
        )
        assert "'+'" in findings[0].message

    def test_percent_format_fires(self):
        findings = run_rule(
            "R4",
            """
            def fetch(db, table):
                return db.execute("SELECT * FROM %s" % table).rows
            """,
        )
        assert "'%'" in findings[0].message

    def test_str_format_fires(self):
        findings = run_rule(
            "R4",
            """
            def fetch(db, table):
                return db.execute("SELECT * FROM {}".format(table)).rows
            """,
        )
        assert ".format()" in findings[0].message

    def test_join_fires(self):
        findings = run_rule(
            "R4",
            """
            def fetch(db, parts):
                return db.execute(" ".join(parts)).rows
            """,
        )
        assert "join" in findings[0].message

    def test_literal_with_placeholders_is_clean(self):
        assert not run_rule(
            "R4",
            """
            def fetch(db, video_id):
                return db.execute(
                    "SELECT * FROM VIDEO_STORE WHERE V_ID = ?", (video_id,)
                ).rows
            """,
        )

    def test_builder_call_is_clean(self):
        assert not run_rule(
            "R4",
            """
            from repro.db.sql import build_insert

            def store(db, columns, values):
                db.execute(build_insert("KEY_FRAMES", columns), values)
            """,
        )


class TestR5PureLayers:
    def test_network_import_fires(self):
        findings = run_rule(
            "R5",
            "import socket\n__all__ = []\n",
            module="repro.imaging.fake",
        )
        assert "socket" in findings[0].message

    def test_open_call_fires(self):
        findings = run_rule(
            "R5",
            """
            def load(path):
                with open(path) as fh:
                    return fh.read()
            """,
            module="repro.imaging.fake",
        )
        assert "open()" in findings[0].message

    def test_io_boundary_module_is_allowlisted(self):
        assert not run_rule(
            "R5",
            """
            import os

            def load(path):
                with open(path, "rb") as fh:
                    return fh.read()
            """,
            module="repro.imaging.image",
        )

    def test_other_layers_are_out_of_scope(self):
        assert not run_rule(
            "R5",
            "import socket\n",
            module="repro.web.server2",
        )

    def test_numpy_import_is_clean(self):
        assert not run_rule(
            "R5",
            "import numpy as np\n",
            module="repro.similarity.fake",
        )


class TestR9DbErrorHierarchy:
    def test_builtin_raise_fires(self):
        findings = run_rule(
            "R9",
            """
            def check(n):
                if n < 0:
                    raise ValueError("negative")
            """,
            module="repro.db.fake",
        )
        assert "ValueError" in findings[0].message

    def test_hierarchy_raise_is_clean(self):
        assert not run_rule(
            "R9",
            """
            from repro.db.errors import CatalogError

            def check(table):
                raise CatalogError(f"unknown table {table}")
            """,
            module="repro.db.fake",
        )

    def test_reraise_and_not_implemented_are_clean(self):
        assert not run_rule(
            "R9",
            """
            def f():
                try:
                    g()
                except KeyError:
                    raise
                raise NotImplementedError("subclass responsibility")
            """,
            module="repro.db.fake",
        )

    def test_outside_db_layer_is_out_of_scope(self):
        assert not run_rule(
            "R9",
            "def f():\n    raise ValueError('fine here')\n",
            module="repro.core.fake",
        )


class TestR10ExtractorModuleImported:
    EXTRA = """
    from repro.features.base import FeatureExtractor, register_extractor

    @register_extractor
    class Extra(FeatureExtractor):
        name = "extra"

        def extract(self, image):
            return None
    """

    def test_unimported_extractor_module_fires(self):
        findings = run_rule_project(
            "R10",
            [
                ("repro.features", "from repro.features.base import FeatureExtractor\n"),
                ("repro.features.extra", self.EXTRA),
            ],
        )
        assert len(findings) == 1
        assert "never imports" in findings[0].message

    def test_imported_extractor_module_is_clean(self):
        assert not run_rule_project(
            "R10",
            [
                ("repro.features", "from repro.features.extra import Extra\n"),
                ("repro.features.extra", self.EXTRA),
            ],
        )

    def test_skips_when_init_not_linted(self):
        assert not run_rule_project(
            "R10", [("repro.features.extra", self.EXTRA)]
        )


class TestR11SeededRandomness:
    def test_legacy_global_rng_call_fires(self):
        findings = run_rule(
            "R11",
            """
            import numpy as np

            def f():
                return np.random.rand(3)
            """,
        )
        assert len(findings) == 1
        assert "global RNG" in findings[0].message

    def test_global_seed_call_fires(self):
        assert run_rule(
            "R11",
            "import numpy as np\nnp.random.seed(0)\n",
        )

    def test_unseeded_default_rng_fires(self):
        findings = run_rule(
            "R11",
            """
            import numpy as np

            def f():
                return np.random.default_rng().random()
            """,
        )
        assert len(findings) == 1
        assert "seed" in findings[0].message

    def test_from_import_of_legacy_function_fires(self):
        assert run_rule(
            "R11",
            """
            from numpy.random import randint

            def f():
                return randint(0, 10)
            """,
        )

    def test_seeded_default_rng_is_clean(self):
        assert not run_rule(
            "R11",
            """
            import numpy as np

            def f(seed):
                rng = np.random.default_rng(seed)
                return rng.normal(size=4)
            """,
        )

    def test_unrelated_random_attribute_is_clean(self):
        assert not run_rule(
            "R11",
            """
            import numpy as np

            def f(rng):
                return rng.random(3) + np.zeros(3)
            """,
        )

    def test_no_numpy_import_is_clean(self):
        assert not run_rule(
            "R11",
            "class random:\n    @staticmethod\n    def rand():\n        return 4\n\nx = random.rand()\n",
        )
