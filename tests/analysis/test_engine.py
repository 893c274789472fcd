"""Engine behavior: suppressions, thresholds, discovery, reporting."""

import ast
import json
import os
import textwrap

import pytest

from repro.analysis import (
    Finding,
    LintConfig,
    ModuleInfo,
    Rule,
    Severity,
    find_suppressions,
    format_human,
    format_json,
    lint_modules,
    lint_paths,
    to_dict,
)

VIOLATION = "import random\nx = random.random()\n"


def lint_source(source, config):
    source = textwrap.dedent(source)
    module = ModuleInfo(path="snippet.py", source=source,
                        tree=ast.parse(source))
    return lint_modules([module], root=os.getcwd(), config=config)


def analyze(source, **cfg):
    return lint_source(source, LintConfig(**{"select": ["R001"], **cfg}))


# ------------------------------------------------------------ suppressions
def test_suppression_requires_justification():
    report = analyze("import random\nx = random.random()  # repro: allow[R001]\n")
    rule_ids = {f.rule_id for f in report.findings}
    assert "R001" in rule_ids, "unjustified allow must not suppress"
    assert "S001" in rule_ids, "unjustified allow must itself be reported"
    assert report.suppressed == []


def test_suppression_on_line_above():
    report = analyze(
        "import random\n"
        "# repro: allow[R001] -- exercising the line-above form\n"
        "x = random.random()\n"
    )
    assert report.findings == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0].suppression_note == \
        "exercising the line-above form"


def test_unused_suppression_reported():
    report = analyze(
        "import random  # repro: allow[R001] -- nothing wrong on this line\n"
    )
    assert [f.rule_id for f in report.findings] == ["S002"]


def test_suppression_covers_multiline_statement_span():
    # the finding lands on the call's *last* physical line; the allow
    # trailing the opening line must still cover it
    report = analyze(
        "import random\n"
        "x = max(  # repro: allow[R001] -- exercising the span widening\n"
        "    0.0,\n"
        "    random.random(),\n"
        ")\n"
    )
    assert report.findings == []
    assert [f.rule_id for f in report.suppressed] == ["R001"]


def test_suppression_above_multiline_statement_covers_span():
    report = analyze(
        "import random\n"
        "# repro: allow[R001] -- line-above form, multi-line statement\n"
        "x = max(\n"
        "    0.0,\n"
        "    random.random(),\n"
        ")\n"
    )
    assert report.findings == []
    assert [f.rule_id for f in report.suppressed] == ["R001"]


def test_suppression_span_does_not_leak_past_statement():
    report = analyze(
        "import random\n"
        "x = max(  # repro: allow[R001] -- covers only this statement\n"
        "    0.0,\n"
        "    1.0,\n"
        ")\n"
        "y = random.random()\n"
    )
    rule_ids = sorted(f.rule_id for f in report.findings)
    assert rule_ids == ["R001", "S002"]


def test_find_suppressions_records_statement_end_line():
    source = (
        "# repro: allow[R003] -- above a 3-line statement\n"
        "items = sorted(\n"
        "    data,\n"
        ")\n"
    )
    sups = find_suppressions(source, ast.parse(source))
    assert len(sups) == 1
    assert (sups[0].line, sups[0].end_line) == (1, 4)


def test_suppression_for_other_rule_does_not_silence():
    report = analyze(
        "import random\nx = random.random()  # repro: allow[R003] -- wrong id\n"
    )
    rule_ids = sorted(f.rule_id for f in report.findings)
    assert rule_ids == ["R001", "S002"]


def test_docstring_allow_example_is_not_a_suppression():
    sups = find_suppressions(
        '"""Docs show: # repro: allow[R001] -- example."""\n'
        "x = 1  # repro: allow[R002] -- a real comment\n"
    )
    assert len(sups) == 1
    assert sups[0].line == 2


def test_multi_rule_suppression():
    source = (
        "import random, os\n"
        "# repro: allow[R001, R003] -- fixture exercises both\n"
        "x = [n for n in os.listdir('.') if random.random() > 0.5]\n"
    )
    report = lint_source(source, LintConfig(select=["R001", "R003"]))
    assert report.findings == []
    assert len(report.suppressed) == 2


# ------------------------------------------------------------- thresholds
def test_fail_on_severity_threshold():
    report = analyze(VIOLATION)  # R001 is an error
    assert LintConfig(fail_on=Severity.ERROR).fails(report)
    assert not LintConfig(fail_on=Severity.ERROR).fails(
        analyze("x = 1\n")
    )


def test_strict_fails_on_warnings():
    report = analyze(
        "import random  # repro: allow[R001] -- stale, nothing here\n"
    )  # only an S002 warning
    assert report.max_severity == Severity.WARNING
    assert not LintConfig(fail_on=Severity.ERROR).fails(report)
    assert LintConfig(strict=True).fails(report)


def test_select_unknown_rule_raises():
    with pytest.raises(ValueError, match="unknown rule"):
        analyze("x = 1\n", select=["R999"])


def test_ignore_drops_rule():
    report = analyze(VIOLATION, select=None, ignore=["R001"])
    assert not [f for f in report.findings if f.rule_id == "R001"]


# ------------------------------------------------------------ file layer
def test_lint_paths_discovers_and_sorts(tmp_path):
    (tmp_path / "pyproject.toml").write_text("")
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "b.py").write_text(VIOLATION)
    (pkg / "a.py").write_text(VIOLATION)
    (pkg / "sub" / "c.py").write_text(VIOLATION)
    (pkg / "__pycache__").mkdir()
    (pkg / "__pycache__" / "junk.py").write_text("import random\nrandom.random()\n")
    report = lint_paths([str(pkg)], LintConfig(select=["R001"]))
    assert report.n_files == 3
    assert [f.path for f in report.findings] == \
        ["pkg/a.py", "pkg/b.py", "pkg/sub/c.py"]


def test_parse_error_is_a_finding(tmp_path):
    (tmp_path / "pyproject.toml").write_text("")
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    report = lint_paths([str(bad)], LintConfig(select=["R001"]))
    assert [f.rule_id for f in report.findings] == ["E000"]
    assert report.findings[0].severity == Severity.ERROR


def test_missing_path_raises():
    with pytest.raises(FileNotFoundError):
        lint_paths([os.path.join("definitely", "not", "here.py")])


def test_deterministic_output(tmp_path):
    (tmp_path / "pyproject.toml").write_text("")
    for name in ("m1.py", "m2.py"):
        (tmp_path / name).write_text(VIOLATION)
    # cache off: the JSON report carries the cache hit/miss counters
    config = LintConfig(select=["R001"], use_cache=False)
    runs = [format_json(lint_paths([str(tmp_path)], config))
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


# ------------------------------------------------------------- reporting
def test_json_report_shape():
    payload = json.loads(format_json(analyze(VIOLATION)))
    assert payload["version"] == 1
    assert payload["counts"]["error"] == 1
    finding = payload["findings"][0]
    assert finding["rule"] == "R001"
    assert finding["severity"] == "error"
    assert finding["line"] == 2


def test_human_report_mentions_location_and_summary():
    text = format_human(analyze(VIOLATION))
    assert "snippet.py:2:" in text
    assert "R001 error:" in text
    assert "1 finding(s)" in text


def test_to_dict_includes_suppressed():
    report = analyze(
        "import random\nx = random.random()  # repro: allow[R001] -- fixture\n"
    )
    payload = to_dict(report)
    assert payload["findings"] == []
    assert payload["suppressed"][0]["suppression_note"] == "fixture"


# ------------------------------------------------------- extension point
def test_custom_rule_registration_and_validation():
    class NoTodoRule(Rule):
        rule_id = "R901"
        name = "no-todo"
        severity = Severity.INFO
        description = "test-only rule"

        def check_module(self, module):
            for lineno, line in enumerate(module.lines, start=1):
                if "TODO" in line:
                    yield self.finding(module, lineno, "todo found")

    rule = NoTodoRule()
    tree = ast.parse("x = 1  # TODO later\n")
    module = ModuleInfo(path="m.py", source="x = 1  # TODO later\n", tree=tree)
    findings = list(rule.check_module(module))
    assert findings == [Finding("R901", Severity.INFO, "m.py", 1,
                                "todo found")]

    from repro.analysis import register_rule

    class BadId(Rule):
        rule_id = "X1"
        name = "x"
        description = "x"

    with pytest.raises(ValueError, match="R###"):
        register_rule(BadId)
