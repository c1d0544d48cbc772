"""Fixture tests for the whole-program rules R14-R17."""

import pytest

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

    def test_pure_layer_importing_db_fires(self):
        """The default DAG keeps the substrate (R5's packages) off upper layers."""
        findings = run_rule_project(
            "R14",
            [
                ("repro.similarity.fake", "from repro.db.engine import Database\n"),
                ("repro.db.engine", "class Database:\n    pass\n"),
            ],
        )
        assert [f.rule_id for f in findings] == ["R14"]
        assert "repro.db.engine" in findings[0].message
        assert "higher layer" in findings[0].message

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

                    def run(pool, item):
                        return pool.submit(_work, item)
                    """,
                ),
            ],
            threaded_packages=("pkg.web",),
        )
        assert len(findings) == 1
        assert "another thread" in findings[0].message

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

                    async def run(loop, lane, chunks):
                        lane.submit(_side, chunks[0])
                        return await loop.run_in_executor(None, partial(_chunk, extra=1), chunks)
                    """,
                ),
            ],
            threaded_packages=("pkg.web",),
        )
        assert sorted(f.message.split("(")[0] for f in findings) == ["_chunk", "_side"]
        assert all("another thread" in f.message for f in findings)

    def test_thread_target_fires_and_handed_off_data_does_not(self):
        findings = run_rule_project(
            "R15",
            [
                (
                    "pkg.serving.batcher",
                    """
                    import threading

                    _SEEN = []

                    class Job:
                        def __init__(self, request):
                            _SEEN.append(request)

                    class Batcher:
                        def start(self):
                            threading.Thread(target=self._serve, daemon=True).start()

                        def _serve(self):
                            _SEEN.clear()

                        async def search(self, queue, request):
                            return await queue.submit(Job(request))
                    """,
                ),
            ],
            threaded_packages=("pkg.web",),
        )
        assert [f.message.split("(")[0] for f in findings] == ["_serve"]

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
    @pytest.mark.parametrize(
        "sql, reason",
        [
            ('f"SELECT * FROM {table}"', "an f-string"),
            ('"SELECT * FROM " + table', "'+' operator"),
            ('"SELECT * FROM %s" % table', "'%' operator"),
            ('"SELECT * FROM {}".format(table)', ".format()"),
            ('" ".join(table)', "str.join()"),
        ],
        ids=["f-string", "concatenation", "percent", "str-format", "join"],
    )
    def test_dynamic_sql_at_the_call_fires(self, sql, reason):
        findings = run_rule("R16", f"def fetch(db, table):\n    return db.execute({sql}).rows\n")
        assert [f.rule_id for f in findings] == ["R16"]
        assert reason in findings[0].message

    def test_dynamic_sql_through_variable_fires(self):
        findings = run_rule(
            "R16",
            """
            def purge(db, table):
                q = f"DELETE FROM {table}"
                return db.execute(q)
            """,
        )
        assert [f.rule_id for f in findings] == ["R16"]
        assert "an f-string" in findings[0].message
        assert "line 3" in findings[0].message

    def test_dynamic_sql_in_an_assignment_expression_fires(self):
        findings = run_rule(
            "R16",
            """
            def purge(db, t):
                db.execute((q := f"DELETE FROM {t}"))
                return db.execute(q)
            """,
        )
        assert [(f.rule_id, f.line) for f in findings] == [("R16", 3), ("R16", 4)]
        assert all("an f-string" in f.message for f in findings)
        assert "variable 'q' defined at line 3" in findings[1].message

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
            from repro.db import build_select

            def fetch(db):
                q = "SELECT id FROM videos WHERE id = ?"
                db.execute(q, (1,))
                stmt = build_select("videos", ["id"])
                return db.execute(stmt)
            """,
        )

    def test_literal_with_placeholders_is_clean(self):
        assert not run_rule(
            "R16",
            """
            def fetch(db, video_id):
                return db.execute(
                    "SELECT * FROM VIDEO_STORE WHERE V_ID = ?", (video_id,)
                ).rows
            """,
        )

    def test_builder_call_is_clean(self):
        assert not run_rule(
            "R16",
            """
            from repro.db import build_insert, build_select

            def store(db, columns, values):
                db.execute(build_insert("KEY_FRAMES", columns), values)
                return db.execute(build_select("videos", ["id"]))
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
