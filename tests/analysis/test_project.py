"""Whole-program layer: summaries, graphs, determinism, the cache."""

import ast
import json
import random
import textwrap

import pytest

from repro.analysis import LintConfig, ModuleInfo, lint_modules, lint_paths
from repro.analysis.project import (
    ModuleSummary,
    build_context,
    module_name_for,
    summarize_module,
)


def make_module(path, source):
    source = textwrap.dedent(source)
    return ModuleInfo(path=path, source=source, tree=ast.parse(source))


def keys(report):
    return [(f.path, f.line, f.rule_id, f.message) for f in report.findings]


# ------------------------------------------------------------- summaries
def test_module_name_for_strips_src_prefix():
    assert module_name_for("src/repro/eda/flow.py") == "repro.eda.flow"
    assert module_name_for("src/repro/eda/__init__.py") == "repro.eda"
    assert module_name_for("tools/gen.py") == "tools.gen"


def test_summary_captures_locks_mutations_and_boundary():
    summary = summarize_module(make_module("src/pkg/mod.py", """
        import threading
        import numpy as np

        _LOCK = threading.Lock()
        _CACHE = {}

        def guarded(key):
            with _LOCK:
                _CACHE[key] = 1

        def naked(key):
            _CACHE[key] = 2

        def launch(executor):
            rng = np.random.default_rng()
            executor.run_jobs([rng])

        class Holder:
            def __init__(self):
                self._lock = threading.Lock()
    """))
    assert summary.module_name == "pkg.mod"
    assert summary.lock_globals == ["_LOCK"]
    assert summary.lock_attrs == {"Holder": ["_lock"]}
    assert "_CACHE" in summary.mutable_globals

    guarded = summary.functions["guarded"]
    assert [(m.name, m.locks) for m in guarded.mutations] == \
        [("pkg.mod._CACHE", ("pkg.mod._LOCK",))]
    naked = summary.functions["naked"]
    assert [(m.name, m.locks) for m in naked.mutations] == \
        [("pkg.mod._CACHE", ())]

    launch = summary.functions["launch"]
    assert [(b.method, b.kind) for b in launch.boundary] == \
        [("run_jobs", "rng-name")]
    assert [ctor for _line, ctor in launch.rng_unseeded] == \
        ["numpy.random.default_rng"]


def test_summary_round_trips_through_dict():
    summary = summarize_module(make_module("src/pkg/mod.py", """
        import threading
        _LOCK = threading.Lock()
        STATE = {}

        def write(path, rows):
            with open("stats.jsonl", "a") as fh:
                for row in rows:
                    fh.write(row)

        def mutate(k):
            with _LOCK:
                STATE[k] = 1
    """))
    restored = ModuleSummary.from_dict(
        json.loads(json.dumps(summary.to_dict())))
    assert restored.to_dict() == summary.to_dict()
    write = restored.functions["write"]
    assert [(w.call, w.protections) for w in write.writes] == \
        [("open", ("append",))]


def test_locals_are_not_shared_state():
    summary = summarize_module(make_module("src/pkg/mod.py", """
        ITEMS = []

        def local_only():
            items = []
            items.append(1)
            return items
    """))
    assert summary.functions["local_only"].mutations == []


# ----------------------------------------------------------------- graphs
def _graph_fixture_modules():
    return [
        make_module("src/pkg/a.py", """
            from pkg.b import helper

            def top():
                return helper()
        """),
        make_module("src/pkg/b.py", """
            def helper():
                return _inner()

            def _inner():
                return 1
        """),
    ]


def test_call_and_import_graph_edges():
    summaries = {m.path: summarize_module(m) for m in
                 _graph_fixture_modules()}
    ctx = build_context("/tmp", summaries)
    assert ctx.import_graph["pkg.a"] == ("pkg.b",)
    assert ctx.call_graph["pkg.a.top"] == ("pkg.b.helper",)
    assert ctx.call_graph["pkg.b.helper"] == ("pkg.b._inner",)


def test_context_is_deterministic_under_discovery_order():
    modules = _graph_fixture_modules()
    baseline = None
    for seed in range(4):
        shuffled = list(modules)
        random.Random(seed).shuffle(shuffled)
        summaries = {m.path: summarize_module(m) for m in shuffled}
        ctx = build_context("/tmp", summaries)
        snapshot = (sorted(ctx.summaries), ctx.import_graph,
                    ctx.call_graph, ctx.stats())
        if baseline is None:
            baseline = snapshot
        assert snapshot == baseline


def test_report_is_deterministic_under_discovery_order():
    modules = [
        make_module("src/pkg/a.py", """
            import threading
            _LOCK = threading.Lock()
            STATE = {}

            def guarded(k):
                with _LOCK:
                    STATE[k] = 1
        """),
        make_module("src/pkg/b.py", """
            from pkg.a import STATE

            def naked(k):
                STATE[k] = 2
        """),
    ]
    baseline = None
    for seed in range(4):
        shuffled = list(modules)
        random.Random(seed).shuffle(shuffled)
        report = lint_modules(shuffled, root="/tmp",
                              config=LintConfig(select=["R009"]))
        if baseline is None:
            baseline = keys(report)
            assert baseline, "fixture should produce an R009 finding"
        assert keys(report) == baseline


# ------------------------------------------------------------------ cache
def _write_project(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (tmp_path / "pyproject.toml").write_text("")
    (pkg / "a.py").write_text(textwrap.dedent("""
        import threading
        _LOCK = threading.Lock()
        STATE = {}

        def guarded(k):
            with _LOCK:
                STATE[k] = 1
    """))
    (pkg / "b.py").write_text(textwrap.dedent("""
        from pkg.a import STATE

        def naked(k):
            STATE[k] = 2
    """))
    (pkg / "c.py").write_text("def quiet():\n    return 3\n")
    return pkg


def _cfg(tmp_path, **kw):
    kw.setdefault("select", ["R001", "R002", "R009"])
    kw.setdefault("project_root", str(tmp_path))
    return LintConfig(**kw)


def test_warm_run_hits_cache_and_matches_cold(tmp_path):
    pkg = _write_project(tmp_path)
    cold = lint_paths([str(pkg)], _cfg(tmp_path))
    assert cold.project_stats["cache"] == {"hits": 0, "misses": 3}
    assert (tmp_path / ".repro-lint-cache.json").is_file()

    warm = lint_paths([str(pkg)], _cfg(tmp_path))
    assert warm.project_stats["cache"] == {"hits": 3, "misses": 0}
    assert keys(warm) == keys(cold)
    assert any(f.rule_id == "R009" for f in warm.findings)


def test_editing_one_file_reanalyzes_only_it(tmp_path):
    pkg = _write_project(tmp_path)
    cold = lint_paths([str(pkg)], _cfg(tmp_path))
    # fix the race in b.py: delete the unguarded mutation
    (pkg / "b.py").write_text("def naked(k):\n    return k\n")
    warm = lint_paths([str(pkg)], _cfg(tmp_path))
    assert warm.project_stats["cache"] == {"hits": 2, "misses": 1}
    assert not any(f.rule_id == "R009" for f in warm.findings)
    # and the fresh result matches a from-scratch run
    scratch = lint_paths([str(pkg)], _cfg(tmp_path, use_cache=False))
    assert keys(warm) == keys(scratch)
    assert cold.project_stats["cache"]["misses"] == 3


def test_rule_selection_change_invalidates_cache(tmp_path):
    pkg = _write_project(tmp_path)
    lint_paths([str(pkg)], _cfg(tmp_path))
    other = lint_paths([str(pkg)], _cfg(tmp_path, select=["R009", "R010"]))
    assert other.project_stats["cache"]["misses"] == 3


def test_no_cache_mode_writes_nothing(tmp_path):
    pkg = _write_project(tmp_path)
    lint_paths([str(pkg)], _cfg(tmp_path, use_cache=False))
    assert not (tmp_path / ".repro-lint-cache.json").exists()


def test_cache_replays_suppressions_and_parse_errors(tmp_path):
    pkg = _write_project(tmp_path)
    (pkg / "b.py").write_text(textwrap.dedent("""
        from pkg.a import STATE

        def naked(k):
            STATE[k] = 2  # repro: allow[R009] -- single-writer by contract
    """))
    (pkg / "broken.py").write_text("def oops(:\n")
    cold = lint_paths([str(pkg)], _cfg(tmp_path))
    warm = lint_paths([str(pkg)], _cfg(tmp_path))
    for report in (cold, warm):
        assert [f.rule_id for f in report.suppressed] == ["R009"]
        assert [f.rule_id for f in report.findings] == ["E000"]
    assert warm.project_stats["cache"]["misses"] == 0


def _drop_from_entries(field):
    def corrupt(data):
        for entry in data["files"].values():
            del entry[field]
        return data
    return corrupt


def _parse_error_with_bad_line(data):
    for path, entry in data["files"].items():
        data["files"][path] = {"sha": entry["sha"],
                               "error": {"line": "x", "message": "m"}}
    return data


#: a cache file's text, or an edit of a valid cache file's data; each
#: must read as all misses and be overwritten by the next save
CORRUPT_CACHES = {
    "not-json": "{not json",
    "top-level-array": "[1, 2]",
    "entry-without-summary": _drop_from_entries("summary"),
    "entry-without-findings": _drop_from_entries("findings"),
    "entry-without-suppressions": _drop_from_entries("suppressions"),
    "error-line-not-int": _parse_error_with_bad_line,
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CACHES))
def test_corrupt_cache_file_is_tolerated(tmp_path, case):
    pkg = _write_project(tmp_path)
    cache_file = tmp_path / ".repro-lint-cache.json"
    corrupt = CORRUPT_CACHES[case]
    if callable(corrupt):
        lint_paths([str(pkg)], _cfg(tmp_path))
        corrupt = json.dumps(corrupt(json.loads(cache_file.read_text())))
    cache_file.write_text(corrupt)
    fresh = lint_paths([str(pkg)], _cfg(tmp_path, use_cache=False))

    report = lint_paths([str(pkg)], _cfg(tmp_path))
    assert report.project_stats["cache"] == {"hits": 0, "misses": 3}
    assert (report.findings, report.suppressed) == \
        (fresh.findings, fresh.suppressed)
    warm = lint_paths([str(pkg)], _cfg(tmp_path))
    assert warm.project_stats["cache"] == {"hits": 3, "misses": 0}
    assert (warm.findings, warm.suppressed) == \
        (fresh.findings, fresh.suppressed)
