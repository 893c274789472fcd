"""Cross-file rule pack (R009, R010, R012): each rule fires on its
violating fixture, stays quiet on the clean twin, and honors inline
suppressions."""

import ast
import textwrap

from repro.analysis import LintConfig, ModuleInfo, engine, lint_paths


def make_module(path, source):
    source = textwrap.dedent(source)
    return ModuleInfo(path=path, source=source, tree=ast.parse(source))


def lint_modules(rule_id, sources, root="/tmp"):
    modules = [make_module(path, src) for path, src in sources.items()]
    return engine.lint_modules(modules, root=root,
                               config=LintConfig(select=[rule_id]))


def rule_findings(report, rule_id):
    return [f for f in report.findings if f.rule_id == rule_id]


# ------------------------------------------------------------------ R009
def test_r009_cross_module_mixed_discipline_fires():
    report = lint_modules("R009", {
        "src/pkg/state.py": """
            import threading
            _LOCK = threading.Lock()
            REGISTRY = {}

            def register(k, v):
                with _LOCK:
                    REGISTRY[k] = v
        """,
        "src/pkg/other.py": """
            from pkg.state import REGISTRY

            def sneak(k):
                REGISTRY[k] = None
        """,
    })
    found = rule_findings(report, "R009")
    assert len(found) == 1
    assert found[0].path == "src/pkg/other.py"
    assert "pkg.state._LOCK" in found[0].message


def test_r009_consistent_discipline_is_clean():
    report = lint_modules("R009", {
        "src/pkg/state.py": """
            import threading
            _LOCK = threading.Lock()
            REGISTRY = {}
            UNLOCKED = {}

            def register(k, v):
                with _LOCK:
                    REGISTRY[k] = v

            def also_register(k, v):
                with _LOCK:
                    REGISTRY[k] = v

            def single_owner(k):
                UNLOCKED[k] = 1  # never locked anywhere: not mixed
        """,
    })
    assert rule_findings(report, "R009") == []


def test_r009_inherited_lock_through_private_helper():
    report = lint_modules("R009", {
        "src/pkg/server.py": """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.records = []

                def receive(self, rec):
                    with self._lock:
                        self._append(rec)

                def flush(self):
                    with self._lock:
                        self._append(None)

                def _append(self, rec):
                    self.records.append(rec)
        """,
    })
    assert rule_findings(report, "R009") == []


def test_r009_init_only_helper_is_exempt():
    report = lint_modules("R009", {
        "src/pkg/server.py": """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.records = []
                    self._load()

                def _load(self):
                    self.records.append(0)  # pre-publication: safe

                def receive(self, rec):
                    with self._lock:
                        self.records.append(rec)
        """,
    })
    assert rule_findings(report, "R009") == []


def test_r009_unguarded_public_caller_of_helper_fires():
    report = lint_modules("R009", {
        "src/pkg/server.py": """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.records = []

                def receive(self, rec):
                    with self._lock:
                        self._append(rec)

                def sneak(self, rec):
                    self._append(rec)

                def _append(self, rec):
                    self.records.append(rec)
        """,
    })
    found = rule_findings(report, "R009")
    assert len(found) == 1
    assert "Server.records" in found[0].message


def test_r009_suppressed_with_justification():
    report = lint_modules("R009", {
        "src/pkg/state.py": """
            import threading
            _LOCK = threading.Lock()
            REGISTRY = {}

            def register(k, v):
                with _LOCK:
                    REGISTRY[k] = v

            def bootstrap(k):
                REGISTRY[k] = 1  # repro: allow[R009] -- runs before threads start
        """,
    })
    assert rule_findings(report, "R009") == []
    assert [f.rule_id for f in report.suppressed] == ["R009"]


# ------------------------------------------------------------------ R010
def test_r010_naked_shared_write_fires():
    report = lint_modules("R010", {
        "src/pkg/io.py": """
            import json

            def persist(stats, path):
                with open("cache-stats.json", "w") as fh:
                    json.dump(stats, fh)
        """,
    })
    found = rule_findings(report, "R010")
    assert len(found) == 1
    assert "cache-stats.json" in found[0].message


def test_r010_protected_writes_are_clean():
    report = lint_modules("R010", {
        "src/pkg/io.py": """
            import fcntl
            import json
            import os
            import tempfile

            def append_jsonl(row):
                with open("metrics.jsonl", "a") as fh:
                    fh.write(row)

            def flocked(stats, lockpath):
                with open(lockpath) as lk:
                    fcntl.flock(lk, fcntl.LOCK_EX)
                    with open("cache-stats.json", "w") as fh:
                        json.dump(stats, fh)

            def tmp_replace(stats, path="run_stats.json"):
                fd, tmp = tempfile.mkstemp(dir=".")
                with os.fdopen(fd, "w") as fh:
                    json.dump(stats, fh)
                os.replace(tmp, path)
        """,
    })
    assert rule_findings(report, "R010") == []


def test_r010_private_paths_not_flagged():
    report = lint_modules("R010", {
        "src/pkg/io.py": """
            def dump(design, out_path):
                with open(out_path, "w") as fh:
                    fh.write(design)
        """,
    })
    assert rule_findings(report, "R010") == []


def test_r010_pathlib_write_text_fires():
    report = lint_modules("R010", {
        "src/pkg/io.py": """
            def persist(stats_path, payload):
                stats_path.write_text(payload)
        """,
    })
    assert len(rule_findings(report, "R010")) == 1


def test_r010_suppressed_with_justification():
    report = lint_modules("R010", {
        "src/pkg/io.py": """
            import json

            def persist(stats, path):
                # repro: allow[R010] -- single process owns this file
                with open("cache-stats.json", "w") as fh:
                    json.dump(stats, fh)
        """,
    })
    assert rule_findings(report, "R010") == []
    assert [f.rule_id for f in report.suppressed] == ["R010"]


# ------------------------------------------------------------------ R012
def test_r012_generator_in_payload_fires():
    report = lint_modules("R012", {
        "src/pkg/run.py": """
            import numpy as np

            def campaign(executor, jobs):
                rng = np.random.default_rng(42)
                executor.run_jobs([(job, rng) for job in jobs])
        """,
    })
    found = rule_findings(report, "R012")
    assert len(found) == 1
    assert "process boundary" in found[0].message


def test_r012_inline_construction_in_payload_fires():
    report = lint_modules("R012", {
        "src/pkg/run.py": """
            import numpy as np

            def campaign(executor):
                executor.submit(np.random.default_rng(7))
        """,
    })
    assert len(rule_findings(report, "R012")) == 1


def test_r012_worker_callable_with_unseeded_rng_fires():
    report = lint_modules("R012", {
        "src/pkg/run.py": """
            from pkg.work import job

            def campaign(executor, seeds):
                executor.map(job, seeds)
        """,
        "src/pkg/work.py": """
            import numpy as np

            def job(seed):
                return _draw()

            def _draw():
                rng = np.random.default_rng()
                return rng.random()
        """,
    })
    found = rule_findings(report, "R012")
    assert len(found) == 1
    assert found[0].path == "src/pkg/run.py"
    assert "src/pkg/work.py" in found[0].message


def test_r012_initializer_with_unseeded_rng_fires():
    report = lint_modules("R012", {
        "src/pkg/run.py": """
            import random
            from concurrent.futures import ProcessPoolExecutor

            def _init_worker():
                random.Random()

            def pool():
                return ProcessPoolExecutor(initializer=_init_worker)
        """,
    })
    found = rule_findings(report, "R012")
    assert len(found) == 1
    assert "initializer" in found[0].message


def test_r012_seeded_workers_are_clean():
    report = lint_modules("R012", {
        "src/pkg/run.py": """
            from pkg.work import job

            def campaign(executor, seeds):
                executor.map(job, seeds)
        """,
        "src/pkg/work.py": """
            import numpy as np

            def job(seed):
                rng = np.random.default_rng(seed)
                return rng.random()
        """,
    })
    assert rule_findings(report, "R012") == []


def test_r012_suppressed_with_justification():
    report = lint_modules("R012", {
        "src/pkg/run.py": """
            import numpy as np

            def campaign(executor, jobs):
                rng = np.random.default_rng(42)
                executor.run_jobs([(job, rng) for job in jobs])  # repro: allow[R012] -- threads, not processes
        """,
    })
    assert rule_findings(report, "R012") == []
    assert [f.rule_id for f in report.suppressed] == ["R012"]


# ------------------------------------ R006/R008 from the per-file cache
def lint_cold_then_warm(tmp_path, pkg, rule_id):
    """Lint ``pkg`` with the cache on, twice: the second run replays
    every file's summary from the cache written by the first."""
    config = LintConfig(select=[rule_id], project_root=str(tmp_path))
    cold = lint_paths([str(pkg)], config)
    warm = lint_paths([str(pkg)], config)
    assert warm.project_stats["cache"]["misses"] == 0
    assert warm.findings == cold.findings
    return warm


def test_r006_fires_in_project_mode(tmp_path):
    pkg = tmp_path / "proj"
    (pkg / "metrics").mkdir(parents=True)
    (tmp_path / "pyproject.toml").write_text("")
    (pkg / "metrics" / "schema.py").write_text(
        'VOCABULARY = {\n    "flow.area": ("u", "d"),\n}\n')
    (pkg / "emitter.py").write_text(textwrap.dedent("""
        def report(tx):
            tx.send("bogus.metric", 1.0)
    """))
    report = lint_cold_then_warm(tmp_path, pkg, "R006")
    messages = [f.message for f in report.findings]
    assert any("bogus.metric" in m for m in messages)
    assert any("'flow.area' has no emitter" in m for m in messages)


def test_r008_fires_in_project_mode(tmp_path):
    pkg = tmp_path / "proj"
    pkg.mkdir()
    (tmp_path / "pyproject.toml").write_text("")
    (pkg / "cli.py").write_text(textwrap.dedent("""
        def build(sub):
            sub.add_argument("--undocumented-flag", type=int)
    """))
    report = lint_cold_then_warm(tmp_path, pkg, "R008")
    assert any("'--undocumented-flag'" in f.message
               for f in report.findings)
