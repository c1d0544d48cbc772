"""Fixture tests for the whole-program rules R14-R20."""

from tests.analysis.test_rules import run_rule, run_rule_project

LAYERS = (("pkg.low",), ("pkg.mid",), ("pkg.high",))


class TestR14LayerDag:
    def test_upward_import_fires(self):
        findings = run_rule_project(
            "R14",
            [
                ("pkg.low.a", "import pkg.high.b\n"),
                ("pkg.high.b", ""),
            ],
            layers=LAYERS,
        )
        assert [f.rule_id for f in findings] == ["R14"]
        assert "higher layer" in findings[0].message

    def test_peer_import_fires(self):
        findings = run_rule_project(
            "R14",
            [
                ("pkg.mid.a", "from pkg.mid2 import thing\n"),
                ("pkg.mid2", "thing = 1\n"),
            ],
            layers=(("pkg.low",), ("pkg.mid", "pkg.mid2"), ("pkg.high",)),
        )
        assert len(findings) == 1
        assert "its own layer" in findings[0].message

    def test_downward_and_own_package_imports_are_clean(self):
        assert not run_rule_project(
            "R14",
            [
                ("pkg.high.a", "import pkg.low.b\nimport pkg.high.c\n"),
                ("pkg.low.b", ""),
                ("pkg.high.c", ""),
            ],
            layers=LAYERS,
        )

    def test_function_level_upward_import_still_fires(self):
        findings = run_rule_project(
            "R14",
            [
                ("pkg.low.a", "def f():\n    import pkg.high.b\n"),
                ("pkg.high.b", ""),
            ],
            layers=LAYERS,
        )
        assert len(findings) == 1

    def test_import_cycle_fires_once(self):
        findings = run_rule_project(
            "R14",
            [
                ("pkg.low.a", "import pkg.low.b\n"),
                ("pkg.low.b", "import pkg.low.a\n"),
            ],
            layers=LAYERS,
        )
        assert len(findings) == 1
        assert "cycle" in findings[0].message
        assert "pkg.low.a -> pkg.low.b" in findings[0].message

    def test_function_level_import_breaks_the_cycle(self):
        assert not run_rule_project(
            "R14",
            [
                ("pkg.low.a", "import pkg.low.b\n"),
                ("pkg.low.b", "def f():\n    import pkg.low.a\n"),
            ],
            layers=LAYERS,
        )


WEB_HANDLER = (
    "pkg.web.server",
    """
    from pkg.core.cache import remember

    def handle(request):
        return remember(request)
    """,
)


class TestR15ForkThreadSafety:
    def test_unlocked_mutation_on_web_path_fires(self):
        findings = run_rule_project(
            "R15",
            [
                WEB_HANDLER,
                (
                    "pkg.core.cache",
                    """
                    _CACHE = {}

                    def remember(key):
                        _CACHE[key] = True
                        return key
                    """,
                ),
            ],
            threaded_packages=("pkg.web",),
        )
        assert [f.rule_id for f in findings] == ["R15"]
        assert "_CACHE" in findings[0].message
        assert "web handler threads" in findings[0].message

    def test_locked_mutation_is_clean(self):
        assert not run_rule_project(
            "R15",
            [
                WEB_HANDLER,
                (
                    "pkg.core.cache",
                    """
                    import threading

                    _CACHE = {}
                    _LOCK = threading.Lock()

                    def remember(key):
                        with _LOCK:
                            _CACHE[key] = True
                        return key
                    """,
                ),
            ],
            threaded_packages=("pkg.web",),
        )

    def test_setdefault_is_gil_atomic_and_clean(self):
        assert not run_rule_project(
            "R15",
            [
                WEB_HANDLER,
                (
                    "pkg.core.cache",
                    """
                    _CACHE = {}

                    def remember(key):
                        return _CACHE.setdefault(key, True)
                    """,
                ),
            ],
            threaded_packages=("pkg.web",),
        )

    def test_mutation_off_the_concurrent_paths_is_clean(self):
        assert not run_rule_project(
            "R15",
            [
                (
                    "pkg.core.cache",
                    """
                    _CACHE = {}

                    def remember(key):
                        _CACHE[key] = True
                        return key
                    """,
                ),
            ],
            threaded_packages=("pkg.web",),
        )

    def test_pool_shipped_callable_fires(self):
        findings = run_rule_project(
            "R15",
            [
                (
                    "pkg.core.ingest",
                    """
                    _SEEN = []

                    def _work(item):
                        _SEEN.append(item)

                    def run(pool, items):
                        return pool.map(_work, items)
                    """,
                ),
            ],
            threaded_packages=("pkg.web",),
        )
        assert len(findings) == 1
        assert "WorkerPool workers" in findings[0].message

    def test_lane_submitted_and_partial_callables_fire(self):
        findings = run_rule_project(
            "R15",
            [
                (
                    "pkg.core.lanes",
                    """
                    from functools import partial

                    _SEEN = []
                    _DONE = []

                    def _side(frames):
                        _SEEN.append(frames)

                    def _chunk(frames, extra):
                        _DONE.extend(frames)

                    def run(pool, lane, chunks):
                        lane.submit(_side, chunks[0])
                        return pool.map(partial(_chunk, extra=1), chunks)
                    """,
                ),
            ],
            threaded_packages=("pkg.web",),
        )
        assert sorted(f.message.split("(")[0] for f in findings) == ["_chunk", "_side"]
        assert all("helper thread" in f.message for f in findings)

    def test_discarded_contextvar_token_fires(self):
        findings = run_rule_project(
            "R15",
            [
                (
                    "pkg.ctx",
                    """
                    import contextvars

                    _CURRENT = contextvars.ContextVar("current")

                    def activate(value):
                        _CURRENT.set(value)
                    """,
                ),
            ],
        )
        assert len(findings) == 1
        assert "discards the token" in findings[0].message

    def test_token_without_reset_fires(self):
        findings = run_rule_project(
            "R15",
            [
                (
                    "pkg.ctx",
                    """
                    import contextvars

                    _CURRENT = contextvars.ContextVar("current")

                    def activate(value):
                        token = _CURRENT.set(value)
                        return token
                    """,
                ),
            ],
        )
        assert len(findings) == 1
        assert "reset" in findings[0].message

    def test_try_finally_reset_is_clean(self):
        assert not run_rule_project(
            "R15",
            [
                (
                    "pkg.ctx",
                    """
                    import contextvars

                    _CURRENT = contextvars.ContextVar("current")

                    def scoped(value, fn):
                        token = _CURRENT.set(value)
                        try:
                            return fn()
                        finally:
                            _CURRENT.reset(token)
                    """,
                ),
            ],
        )

    def test_enter_exit_token_pair_is_clean(self):
        assert not run_rule_project(
            "R15",
            [
                (
                    "pkg.ctx",
                    """
                    import contextvars

                    _CURRENT = contextvars.ContextVar("current")

                    class Scope:
                        def __enter__(self):
                            self._token = _CURRENT.set(self)
                            return self

                        def __exit__(self, *exc):
                            _CURRENT.reset(self._token)
                            return False
                    """,
                ),
            ],
        )


class TestR16SqlDataflow:
    def test_dynamic_sql_through_variable_fires(self):
        findings = run_rule(
            "R16",
            """
            def drop(db, table):
                q = f"DROP TABLE {table}"
                return db.execute(q)
            """,
        )
        assert [f.rule_id for f in findings] == ["R16"]
        assert "an f-string" in findings[0].message
        assert "line 3" in findings[0].message

    def test_one_dynamic_branch_is_enough(self):
        findings = run_rule(
            "R16",
            """
            def fetch(db, table, fast):
                if fast:
                    q = "SELECT id FROM videos"
                else:
                    q = "SELECT * FROM " + table
                return db.execute(q)
            """,
        )
        assert len(findings) == 1
        assert "'+' operator" in findings[0].message

    def test_rebinding_to_literal_is_clean(self):
        assert not run_rule(
            "R16",
            """
            def fetch(db, table):
                q = f"SELECT * FROM {table}"
                q = "SELECT * FROM videos"
                return db.execute(q)
            """,
        )

    def test_literal_and_builder_are_clean(self):
        assert not run_rule(
            "R16",
            """
            from repro.db.sql import build_select

            def fetch(db):
                q = "SELECT id FROM videos WHERE id = ?"
                db.execute(q, (1,))
                stmt = build_select("videos", ["id"])
                return db.execute(stmt)
            """,
        )

    def test_augmented_string_build_fires(self):
        findings = run_rule(
            "R16",
            """
            def fetch(db, clause):
                q = "SELECT * FROM videos "
                q += clause
                return db.execute(q)
            """,
        )
        assert len(findings) == 1
        assert "augmented" in findings[0].message


class TestR17ObsCoverage:
    def test_uninstrumented_entry_point_fires(self):
        findings = run_rule_project(
            "R17",
            [
                (
                    "pkg.core.system",
                    """
                    def ingest(path):
                        data = _read(path)
                        _store(data)
                        return data

                    def _read(path):
                        return path

                    def _store(data):
                        return data
                    """,
                ),
            ],
            obs_entry_modules=("pkg.core.system",),
        )
        assert [f.rule_id for f in findings] == ["R17"]
        assert "ingest" in findings[0].message

    def test_direct_span_is_clean(self):
        assert not run_rule_project(
            "R17",
            [
                (
                    "pkg.core.system",
                    """
                    from pkg.obs.tracing import span

                    def ingest(path):
                        with span("ingest"):
                            a = 1
                            b = 2
                            return a + b
                    """,
                ),
            ],
            obs_entry_modules=("pkg.core.system",),
        )

    def test_transitive_metric_is_clean(self):
        assert not run_rule_project(
            "R17",
            [
                (
                    "pkg.core.system",
                    """
                    from pkg.core.inner import work

                    def ingest(path):
                        a = work(path)
                        b = work(path)
                        return a + b
                    """,
                ),
                (
                    "pkg.core.inner",
                    """
                    def work(path):
                        _REQUESTS.labels(op="work").inc()
                        return 1
                    """,
                ),
            ],
            obs_entry_modules=("pkg.core.system",),
        )

    def test_trivial_accessor_is_exempt(self):
        assert not run_rule_project(
            "R17",
            [
                (
                    "pkg.core.system",
                    """
                    def count():
                        return 41 + 1
                    """,
                ),
            ],
            obs_entry_modules=("pkg.core.system",),
        )


class TestR18ResourceHygiene:
    def test_inline_open_fires(self):
        findings = run_rule(
            "R18",
            """
            import json

            def load(path):
                return json.load(open(path))
            """,
        )
        assert [f.rule_id for f in findings] == ["R18"]
        assert "open(...)" in findings[0].message

    def test_assigned_and_never_closed_fires(self):
        findings = run_rule(
            "R18",
            """
            def read(path):
                fh = open(path)
                return fh.read()
            """,
        )
        assert len(findings) == 1
        assert "fh.close()" in findings[0].message

    def test_with_statement_is_clean(self):
        assert not run_rule(
            "R18",
            """
            def read(path):
                with open(path) as fh:
                    return fh.read()
            """,
        )

    def test_close_in_finally_is_clean(self):
        assert not run_rule(
            "R18",
            """
            def read(path):
                fh = open(path)
                try:
                    return fh.read()
                finally:
                    fh.close()
            """,
        )

    def test_returned_handle_is_a_factory_and_clean(self):
        assert not run_rule(
            "R18",
            """
            def acquire(path):
                fh = open(path)
                return fh

            def direct(path):
                return open(path)
            """,
        )

    def test_class_owned_handle_with_close_is_clean(self):
        assert not run_rule(
            "R18",
            """
            class Wal:
                def __init__(self, path):
                    self._fh = open(path, "ab")

                def close(self):
                    self._fh.close()
            """,
        )

    def test_class_owned_handle_without_close_fires(self):
        findings = run_rule(
            "R18",
            """
            class Wal:
                def __init__(self, path):
                    self._fh = open(path, "ab")
            """,
        )
        assert len(findings) == 1
        assert "self._fh.close()" in findings[0].message

    def test_allowlisted_module_is_exempt(self):
        assert not run_rule(
            "R18",
            """
            def probe(path):
                return open(path).read(4)
            """,
            module="pkg.probing",
            resource_allowlist=frozenset({"pkg.probing"}),
        )


class TestR19UnusedImport:
    def test_unused_import_fires(self):
        findings = run_rule(
            "R19",
            """
            import json
            import os

            __all__ = ["load"]

            def load(path):
                return json.loads(path)
            """,
        )
        assert [f.rule_id for f in findings] == ["R19"]
        assert "'os'" in findings[0].message

    def test_used_attribute_head_counts(self):
        assert not run_rule(
            "R19",
            """
            import os.path

            def f():
                return os.path.sep
            """,
        )

    def test_all_export_counts_as_use(self):
        assert not run_rule(
            "R19",
            """
            from pkg.other import thing

            __all__ = ["thing"]
            """,
        )

    def test_string_annotation_counts_as_use(self):
        assert not run_rule(
            "R19",
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from pkg.heavy import Engine

            def f(engine: "Engine"):
                return engine
            """,
        )

    def test_noqa_marks_probe_imports(self):
        assert not run_rule(
            "R19",
            """
            try:
                import scipy  # noqa: F401
                HAVE = True
            except ImportError:
                HAVE = False
            """,
        )

    def test_init_modules_are_exempt(self):
        from repro.analysis import LintConfig, LintEngine

        engine = LintEngine(LintConfig(select=frozenset({"R19"})))
        mod = engine.load_source(
            "from pkg.sub import thing\n", path="pkg/__init__.py", module="pkg"
        )
        assert not engine.lint_modules([mod]).findings


class TestR20AsyncBlocking:
    def test_time_sleep_in_async_def_fires(self):
        findings = run_rule(
            "R20",
            """
            import time

            async def handler():
                time.sleep(0.1)
            """,
        )
        assert [f.rule_id for f in findings] == ["R20"]
        assert "time.sleep" in findings[0].message
        assert "asyncio.sleep" in findings[0].message

    def test_direct_imported_sleep_fires(self):
        findings = run_rule(
            "R20",
            """
            from time import sleep as snooze

            async def handler():
                snooze(1)
            """,
        )
        assert len(findings) == 1

    def test_sync_socket_and_sqlite_fire(self):
        findings = run_rule(
            "R20",
            """
            import socket
            import sqlite3

            async def handler(path):
                conn = socket.create_connection(("h", 80))
                db = sqlite3.connect(path)
                return conn, db
            """,
        )
        assert [f.rule_id for f in findings] == ["R20", "R20"]
        assert "socket.create_connection" in findings[0].message
        assert "sqlite3.connect" in findings[1].message

    def test_pool_map_in_async_def_fires(self):
        findings = run_rule(
            "R20",
            """
            async def handler(pool, work):
                return pool.map(len, work)
            """,
        )
        assert len(findings) == 1
        assert "slowest worker" in findings[0].message

    def test_asyncio_sleep_and_executor_are_clean(self):
        assert not run_rule(
            "R20",
            """
            import asyncio

            async def handler(loop, fn):
                await asyncio.sleep(0.1)
                return await loop.run_in_executor(None, fn)
            """,
        )

    def test_sync_def_is_out_of_scope(self):
        assert not run_rule(
            "R20",
            """
            import time

            def not_async():
                time.sleep(0.1)
            """,
        )

    def test_nested_def_and_lambda_are_deferred_bodies(self):
        assert not run_rule(
            "R20",
            """
            import time

            async def handler(loop):
                def blocking_probe():
                    time.sleep(0.1)

                return await loop.run_in_executor(None, lambda: time.sleep(0.2))
            """,
        )

    def test_suppression_comment_works(self):
        assert not run_rule(
            "R20",
            """
            import time

            async def handler():
                time.sleep(0.1)  # reprolint: disable=R20
            """,
        )
