"""Budgets: declaration validation and the campaign ledger."""

import pytest

from repro.dse import Budget, DSEEngine
from repro.dse.budget import BudgetTracker


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(max_runs=0)
    with pytest.raises(ValueError):
        Budget(max_runtime_proxy=0.0)
    assert Budget().unlimited
    assert not Budget(max_runs=5).unlimited


def test_tracker_run_and_proxy_exhaustion():
    tracker = BudgetTracker(Budget(max_runs=3))
    assert not tracker.exhausted
    tracker.charge_runs(3)
    assert tracker.exhausted

    tracker = BudgetTracker(Budget(max_runtime_proxy=100.0))
    tracker.charge_proxy(99.0)
    assert not tracker.exhausted
    tracker.charge_proxy(1.0)
    assert tracker.exhausted


def test_unlimited_tracker_never_exhausts():
    tracker = BudgetTracker(Budget())
    tracker.charge_runs(10**6)
    tracker.charge_proxy(1e12)
    assert not tracker.exhausted


def test_run_budget_stops_explorer_at_round_boundary(small_spec):
    """max_runs=3 with 3-wide rounds: exactly one round executes."""
    result = DSEEngine(
        strategy="explorer", budget=Budget(max_runs=3),
        params={"n_rounds": 4, "n_concurrent": 3},
    ).run(small_spec, seed=6)
    assert result.n_runs == 3
    assert len(result.trace) == 1


def test_proxy_budget_stops_sweep_between_batches(small_spec):
    tight = DSEEngine(
        strategy="sweep", budget=Budget(max_runtime_proxy=1.0),
        params={"limit": 6, "n_concurrent": 2},
    ).run(small_spec, seed=6)
    assert tight.n_runs == 2  # first batch runs, then the ledger trips
    open_ended = DSEEngine(
        strategy="sweep", params={"limit": 6, "n_concurrent": 2},
    ).run(small_spec, seed=6)
    assert open_ended.n_runs == 6
    # the executed prefix is bit-identical: a budget truncates, never skews
    assert open_ended.all_scores[:2] == tight.all_scores
