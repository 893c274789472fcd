"""`repro lint` CLI: exit codes, JSON output, and the shipped tree."""

import json
import os

import pytest

from repro.cli import main

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)

VIOLATION = "import random\nx = random.random()\n"


@pytest.fixture()
def violating_file(tmp_path):
    (tmp_path / "pyproject.toml").write_text("")
    path = tmp_path / "mod.py"
    path.write_text(VIOLATION)
    return str(path)


def test_lint_exits_nonzero_on_error(violating_file, capsys):
    assert main(["lint", violating_file]) == 1
    out = capsys.readouterr().out
    assert "R001 error:" in out
    assert "1 finding(s)" in out


def test_lint_exits_zero_on_clean_file(tmp_path, capsys):
    (tmp_path / "pyproject.toml").write_text("")
    clean = tmp_path / "ok.py"
    clean.write_text("import numpy as np\nrng = np.random.default_rng(0)\n")
    assert main(["lint", str(clean)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_lint_json_output_parses(violating_file, capsys):
    assert main(["lint", "--format=json", violating_file]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["error"] == 1
    assert payload["findings"][0]["rule"] == "R001"


def test_lint_warning_passes_default_fails_strict(tmp_path, capsys):
    (tmp_path / "pyproject.toml").write_text("")
    stale = tmp_path / "stale.py"
    stale.write_text("x = 1  # repro: allow[R001] -- stale suppression\n")
    assert main(["lint", str(stale)]) == 0       # warning < fail-on=error
    assert main(["lint", "--strict", str(stale)]) == 1
    assert main(["lint", "--fail-on=warning", str(stale)]) == 1
    capsys.readouterr()


def test_lint_select_and_ignore(violating_file, capsys):
    assert main(["lint", "--select=R004", violating_file]) == 0
    assert main(["lint", "--ignore=R001", violating_file]) == 0
    capsys.readouterr()


def test_lint_unknown_rule_id_is_usage_error(violating_file, capsys):
    assert main(["lint", "--select=R999", violating_file]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_lint_missing_path_is_usage_error(capsys):
    assert main(["lint", os.path.join("no", "such", "dir")]) == 2
    assert "lint:" in capsys.readouterr().err


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("R001", "R002", "R003", "R004",
                    "R005", "R006", "R007", "R008"):
        assert rule_id in out


def test_lint_verbose_prints_suppressed(tmp_path, capsys):
    (tmp_path / "pyproject.toml").write_text("")
    path = tmp_path / "mod.py"
    path.write_text(
        "import random\nx = random.random()  # repro: allow[R001] -- fixture\n"
    )
    assert main(["lint", "--verbose", str(path)]) == 0
    assert "(suppressed)" in capsys.readouterr().out


def test_lint_project_mode_exit_and_stats_line(violating_file, capsys):
    assert main(["lint", "--no-cache", violating_file]) == 1
    out = capsys.readouterr().out
    assert "R001 error:" in out
    assert "project graph:" in out


def test_lint_project_json_carries_graph_stats(violating_file, capsys):
    main(["lint", "--no-cache", "--format", "json", violating_file])
    data = json.loads(capsys.readouterr().out)
    assert "project" in data
    assert data["project"]["files"] == 1
    assert "cache" not in data["project"]  # --no-cache: no counters


def test_lint_project_writes_and_reuses_cache(tmp_path, capsys):
    (tmp_path / "pyproject.toml").write_text("")
    path = tmp_path / "mod.py"
    path.write_text("def f():\n    return 1\n")
    assert main(["lint", str(path)]) == 0
    cache = tmp_path / ".repro-lint-cache.json"
    assert cache.is_file()
    capsys.readouterr()
    assert main(["lint", "--format", "json", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["project"]["cache"] == {"hits": 1, "misses": 0}


def test_shipped_tree_is_lint_clean_strict(capsys):
    """Acceptance criterion: `repro lint --strict src/repro` exits 0 with
    every rule enabled, the cross-file rules R009-R012 included.  The
    cache is off so the test never writes the repo's own cache file."""
    src = os.path.join(REPO_ROOT, "src", "repro")
    assert main(["lint", "--strict", "--no-cache", src]) == 0, \
        capsys.readouterr().out


def test_shipped_tree_is_project_lint_clean_strict(capsys):
    """Acceptance criterion: `make lint`'s tree, `src/repro` plus the
    examples that drive executors and pool payloads, lints clean with
    every rule and no cache."""
    paths = [os.path.join(REPO_ROOT, "src", "repro"),
             os.path.join(REPO_ROOT, "examples")]
    assert main(["lint", "--strict", "--no-cache", "--format", "json",
                 *paths]) == 0, capsys.readouterr().out
    data = json.loads(capsys.readouterr().out)
    assert data["findings"] == []
    assert data["project"]["files"] > 0
