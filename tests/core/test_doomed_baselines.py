"""Logistic doomed-run baseline and predictor comparison."""

import pytest

from repro.bench.corpus import RouterLogCorpus
from repro.core.doomed import LogisticDoomBaseline, MDPCardLearner, evaluate_policy
from repro.core.doomed.evaluate import stop_iteration


@pytest.fixture(scope="module")
def corpora():
    train = RouterLogCorpus.artificial(n=250, seed=31)
    test = RouterLogCorpus.cpu_floorplans(n=200, seed=32, n_base_maps=3)
    return train, test


def test_logistic_baseline_fits_and_evaluates(corpora):
    train, test = corpora
    baseline = LogisticDoomBaseline(seed=0).fit(train)
    ev = evaluate_policy(baseline, test, consecutive=2)
    assert ev.n_logs == len(test)
    assert ev.error_rate < 0.5


def test_logistic_baseline_separates_examples(corpora):
    train, test = corpora
    baseline = LogisticDoomBaseline(seed=0).fit(train)
    doomed = next(log for log in test if not log.success and log.final_drvs > 5000)
    healthy = next(log for log in test if log.success and log.final_drvs == 0)
    t = len(doomed.drvs) - 1
    t2 = len(healthy.drvs) - 1
    assert baseline.doom_probability(doomed.drvs, t) > baseline.doom_probability(
        healthy.drvs, t2
    )


def test_logistic_baseline_consecutive_semantics(corpora):
    train, _ = corpora
    baseline = LogisticDoomBaseline(seed=0).fit(train)
    doomed_series = [50_000, 100_000, 200_000, 400_000, 800_000]
    t1 = stop_iteration(baseline, doomed_series, consecutive=1)
    t2 = stop_iteration(baseline, doomed_series, consecutive=2)
    assert t1 is not None and t2 is not None
    assert t2 >= t1
    with pytest.raises(ValueError):
        stop_iteration(baseline, doomed_series, consecutive=0)


def test_logistic_baseline_validation(corpora):
    train, _ = corpora
    with pytest.raises(ValueError):
        LogisticDoomBaseline(threshold=0.0)
    with pytest.raises(RuntimeError):
        LogisticDoomBaseline().doom_probability([1, 2, 3], 1)
    with pytest.raises(ValueError):
        LogisticDoomBaseline().fit([])
    good_only = [log for log in train if log.success]
    with pytest.raises(ValueError):
        LogisticDoomBaseline().fit(good_only)


def test_mdp_competitive_with_baseline(corpora):
    """The sequential MDP model must be competitive with (usually better
    than) the per-observation logistic baseline at the paper's operating
    point (2-3 consecutive STOPs)."""
    train, test = corpora
    card = MDPCardLearner().fit(train)
    baseline = LogisticDoomBaseline(seed=0).fit(train)
    mdp_err = min(
        evaluate_policy(card, test, k).error_rate for k in (2, 3)
    )
    logistic_err = min(
        evaluate_policy(baseline, test, k).error_rate for k in (2, 3)
    )
    assert mdp_err <= logistic_err + 0.05
