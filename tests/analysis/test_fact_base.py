"""One fact base: the summary-fed rules share the summarizer's scope model.

R001, R002, R004 and R005 read the per-file summaries instead of
walking the AST themselves, so a ``def`` under ``with``/``if``/``try``,
a decorator, a default argument and a class body are seen by every rule
alike.  The probe corpus pins the exact findings over those shapes.
"""

import ast
import json
import textwrap

from repro.analysis import (
    LintConfig,
    ModuleInfo,
    Rule,
    all_rules,
    lint_modules,
    lint_paths,
    project,
    summarize_module,
)

PROBE = textwrap.dedent('''
    import threading
    import random
    import time
    import numpy.random as npr
    from datetime import datetime

    LOCK = threading.Lock()
    state = {}
    _TABLE: dict = {}


    def tag(value):
        return lambda fn: fn


    @tag(random.random())
    def decorated(x, when=time.time()):
        return x


    class Config:
        stamp = datetime.now()
        jitter = npr.rand(3)


    with LOCK:
        def under_with():
            return random.randint(0, 9)

    if LOCK:
        def under_if():
            return npr.normal()

    try:
        def under_try():
            return time.time()
    except ImportError:
        pass


    def shuffle_with(random, items):
        random.shuffle(items)


    def guarded(k):
        with LOCK:
            state[k] = 1


    def closure():
        state = {}

        def inner():
            state["x"] = 1
        inner()
        return state


    def remember(k, v):
        _TABLE[k] = v


    def nested_under_lock():
        with LOCK:
            def inner():
                state["y"] = 2
            inner()


    def launch(executor, jobs):
        def local_job(job):
            return job
        bound = lambda job: job
        executor.run_jobs(jobs, stop_callback=lambda h: False)
        executor.map(local_job, jobs)
        executor.map(bound, jobs)
        executor.submit(threading.Lock())
        executor.submit(open("jobs.txt"))


    def walk(names, given):
        inside = set(names)
        out = [n for n in inside]
        for n in inside:
            out.append(n)
        out.extend(list(inside))
        given = set(given)
        for n in given:
            out.append(n)
        return (out, len(inside), sorted(inside), {n for n in inside},
                "a" in inside)
''')

_NOW = "wall-clock read 'time.time' in deterministic code; use the " \
       "runtime proxy (FlowResult.runtime_proxy)"
_BOUNDARY = " passed across the process boundary (.{}); use a " \
            "module-level function / plain data"
_SET = "iteration over unordered 'set' held in 'inside'{} result; wrap " \
       "it in sorted(...) so the order is reproducible"

#: every finding on the probe, all rules enabled.  R001, R004 and R005
#: keep the lines, columns and messages of their former AST walkers;
#: R002 now sees the annotated ``_TABLE``; the closure's write to its
#: enclosing function's ``state`` is not a module-global mutation, so
#: R009 is quiet; R003 sees the set held in ``inside`` (not the
#: parameter ``given``, which is also bound to something else).
EXPECTED = [
    ("R001", 17, 5, "call to global-state RNG 'random.random'; use an "
                    "injected random.Random(seed) instead"),
    ("R004", 18, 22, _NOW),
    ("R004", 23, 12, "wall-clock read 'datetime.datetime.now' in "
                     "deterministic code; use an injected timestamp"),
    ("R001", 24, 13, "call to global-state RNG 'np.random.rand'; use an "
                     "injected np.random.default_rng(seed) instead"),
    ("R001", 29, 15, "call to global-state RNG 'random.randint'; use an "
                     "injected random.Random(seed) instead"),
    ("R001", 33, 15, "call to global-state RNG 'np.random.normal'; use an "
                     "injected np.random.default_rng(seed) instead"),
    ("R004", 37, 15, _NOW),
    ("R001", 43, 4, "call to global-state RNG 'random.shuffle'; use an "
                    "injected random.Random(seed) instead"),
    ("R002", 61, 4, "module-level mutable '_TABLE' mutated without holding "
                    "a module threading.Lock; guard it or inject the state"),
    ("R005", 75, 42, "lambda" + _BOUNDARY.format("run_jobs")),
    ("R005", 76, 17, "locally-defined callable 'local_job'"
                     + _BOUNDARY.format("map")),
    ("R005", 77, 17, "locally-defined callable 'bound'"
                     + _BOUNDARY.format("map")),
    ("R005", 78, 20, "a threading.Lock" + _BOUNDARY.format("submit")),
    ("R005", 79, 20, "an open file handle" + _BOUNDARY.format("submit")),
    ("R003", 84, 22, _SET.format("")),
    ("R003", 85, 13, _SET.format("")),
    ("R003", 87, 15, _SET.format(" passed to 'list'")),
]


def probe_module(path="src/probe/core.py"):
    return ModuleInfo(path=path, source=PROBE, tree=ast.parse(PROBE))


def triples(report):
    return [(f.rule_id, f.line, f.col, f.message) for f in report.findings]


def test_probe_findings_are_pinned():
    report = lint_modules([probe_module()], root="/tmp")
    assert triples(report) == EXPECTED


def test_summary_follows_one_scope_model():
    summary = summarize_module(probe_module())
    functions = summary.functions
    # a def anywhere gets a summary
    assert {"under_with", "under_if", "under_try",
            "nested_under_lock.inner", "closure.inner"} <= set(functions)
    # decorators, default arguments and class bodies run in the
    # enclosing scope: here, the module's
    module_calls = {(c.target, c.lineno, c.col)
                    for c in functions["<module>"].calls}
    assert {("random.random", 17, 5), ("time.time", 18, 22),
            ("datetime.datetime.now", 23, 12),
            ("numpy.random.rand", 24, 13)} <= module_calls
    # a closure sees its enclosing function's locals, and a def outside
    # any class belongs to none
    assert functions["closure.inner"].mutations == []
    assert functions["closure.inner"].cls == ""
    # a nested def starts with the locks held at its def
    [site] = functions["nested_under_lock.inner"].mutations
    assert (site.name, site.locks) == ("probe.core.state",
                                       ("probe.core.LOCK",))
    kinds = [(b.kind, b.target) for b in functions["launch"].boundary]
    assert sorted(kinds) == [("lambda", ""), ("local-callable", "bound"),
                             ("local-callable", "local_job"),
                             ("open", "open"),
                             ("threading", "threading.Lock")]


def test_only_r003_and_r007_walk_the_ast():
    walkers = {rule.rule_id for rule in all_rules()
               if type(rule).check_module is not Rule.check_module}
    assert walkers == {"R003", "R007"}


def test_version_1_cache_replays_no_stale_finding(tmp_path, monkeypatch):
    """A cache written at version 1, when R001/R002/R004/R005 findings
    were cached per file, is discarded whole: nothing it holds is
    replayed beside the findings the summary-fed rules recompute."""
    pkg = tmp_path / "src" / "probe"
    pkg.mkdir(parents=True)
    (tmp_path / "pyproject.toml").write_text("")
    (pkg / "core.py").write_text(PROBE)
    cache = tmp_path / ".repro-lint-cache.json"
    config = LintConfig(project_root=str(tmp_path))
    fresh = lint_paths([str(pkg)], LintConfig(project_root=str(tmp_path),
                                              use_cache=False))
    assert any(f.rule_id == "R001" for f in fresh.findings)

    with monkeypatch.context() as patch:
        patch.setattr(project, "ANALYSIS_CACHE_VERSION", 1)
        lint_paths([str(pkg)], config)
    data = json.loads(cache.read_text())
    assert data["version"] == 1
    [entry] = data["files"].values()
    entry["findings"] += [f.to_dict() for f in fresh.findings
                          if f.rule_id in ("R001", "R002", "R004", "R005")]
    cache.write_text(json.dumps(data))  # repro: allow[R010] -- private tmp_path

    report = lint_paths([str(pkg)], config)
    assert report.project_stats["cache"] == {"hits": 0, "misses": 1}
    assert triples(report) == triples(fresh)
    warm = lint_paths([str(pkg)], config)
    assert warm.project_stats["cache"] == {"hits": 1, "misses": 0}
    assert triples(warm) == triples(fresh)
