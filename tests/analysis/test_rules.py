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
