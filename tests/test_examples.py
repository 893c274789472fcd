"""Examples stay runnable: import every script, execute the fast ones."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


def _load(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_example_exists():
    expected = {
        "quickstart", "mab_flow_tuning", "doomed_run_guard",
        "signoff_correlation", "metrics_campaign", "design_cost_explorer",
        "robot_engineers", "flow_outcome_prediction", "partitioned_design",
        "no_human_in_the_loop",
    }
    assert expected <= set(ALL_EXAMPLES)


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_imports_and_has_main(name):
    module = _load(name)
    assert callable(getattr(module, "main", None)), f"{name} lacks main()"
    assert module.__doc__, f"{name} lacks a module docstring"


def test_quickstart_runs(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["quickstart.py", "0.5"])
    _load("quickstart").main()
    out = capsys.readouterr().out
    assert "final QoR" in out
    assert "verdict" in out


def test_design_cost_explorer_runs(capsys):
    _load("design_cost_explorer").main()
    out = capsys.readouterr().out
    assert "footnote-1 anchors" in out
    assert "Design Capability Gap" in out


def test_metrics_campaign_runs(capsys):
    _load("metrics_campaign").main()
    out = capsys.readouterr().out
    assert out.count("[seed ]") == 10
    assert out.count("[mined]") == 6
    assert "improvement ratio vs seed phase" in out
