"""Doomed-run prediction: binning, strategy card, MDP learning, errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.corpus import RouterLog, RouterLogCorpus
from repro.core.doomed import (
    GO,
    STOP,
    HMMDoomPredictor,
    KillPolicy,
    MDPCardLearner,
    StateSpace,
    StrategyCard,
    bin_slope,
    bin_violations,
    evaluate_policy,
)
from repro.core.doomed.card import apply_fill_in_rules
from repro.core.doomed.evaluate import stop_iteration


# ------------------------------------------------------------------ binning
def test_violation_bins_log_scale():
    assert bin_violations(0) == 0
    assert bin_violations(1) == 1
    assert bin_violations(2) == 2
    assert bin_violations(3) == 2
    assert bin_violations(1000) == 10
    assert bin_violations(10**9) == 18  # capped


def test_violation_bin_monotone():
    values = [0, 1, 5, 20, 100, 500, 3000, 50_000]
    bins = [bin_violations(v) for v in values]
    assert bins == sorted(bins)


def test_negative_violations_rejected():
    with pytest.raises(ValueError):
        bin_violations(-1)


def test_slope_bins_signed():
    assert bin_slope(0) == 0
    assert bin_slope(10) > 0
    assert bin_slope(-10) < 0
    assert bin_slope(-(2**20)) == -12  # capped down
    assert bin_slope(2**20) == 4  # capped up


def test_slope_bin_antisymmetric_small():
    for d in (1, 5, 100):
        assert bin_slope(d) == -bin_slope(-d) or bin_slope(d) <= 4


def test_state_space_roundtrip():
    space = StateSpace()
    for vb in (0, 5, 18):
        for sb in (-12, 0, 4):
            state = vb * space.n_slope_bins + (sb + space.max_down)
            assert space.unpack(state) == (vb, sb)
    with pytest.raises(IndexError):
        space.unpack(space.n_states)


def test_trajectory_states_length():
    space = StateSpace()
    drvs = [1000, 800, 600, 500]
    states = space.trajectory_states(drvs)
    assert len(states) == 3
    assert space.trajectory_states([5]) == []


# ------------------------------------------------------------ strategy card
def _empty_card(space=None):
    space = space or StateSpace()
    return StrategyCard(
        space,
        np.zeros(space.n_states, dtype=int),
        np.zeros(space.n_states, dtype=bool),
    )


def test_card_shape_validation():
    space = StateSpace()
    with pytest.raises(ValueError):
        StrategyCard(space, np.zeros(3), np.zeros(space.n_states, dtype=bool))
    bad = np.zeros(space.n_states, dtype=int)
    bad[0] = 7
    with pytest.raises(ValueError):
        StrategyCard(space, bad, np.zeros(space.n_states, dtype=bool))


def test_fill_in_rules_match_footnote5():
    card = apply_fill_in_rules(_empty_card())
    space = card.space
    grid = card.as_grid()
    # rule (iii): very large violations -> STOP regardless of slope
    assert (grid[15, :] == STOP).all()
    # rule (i): large violations, positive slope -> STOP
    vb, sb = 10, 2
    assert grid[vb, sb + space.max_down] == STOP
    # rule (iv): small violations, falling -> GO
    assert grid[2, -5 + space.max_down] == GO
    # rule (ii): small violations, large positive slope -> STOP
    assert grid[2, 3 + space.max_down] == STOP


def test_fill_in_preserves_visited_states():
    space = StateSpace()
    actions = np.zeros(space.n_states, dtype=int)
    visited = np.zeros(space.n_states, dtype=bool)
    # mark a "very large violations" state as visited GO
    state = space.state_of(10**6, -5)
    visited[state] = True
    card = apply_fill_in_rules(StrategyCard(space, actions, visited))
    assert card.actions[state] == GO  # kept despite rule (iii)


def test_card_action_lookup():
    card = apply_fill_in_rules(_empty_card())
    assert card.action(10**6, 100) == STOP
    assert card.action(5, -3) == GO
    counts = card.counts()
    assert counts["go"] + counts["stop"] == card.space.n_states


# ------------------------------------------------------------- MDP learning
@pytest.fixture(scope="module")
def corpora():
    train = RouterLogCorpus.artificial(n=250, seed=5)
    test = RouterLogCorpus.cpu_floorplans(n=200, seed=6, n_base_maps=3)
    return train, test


@pytest.fixture(scope="module")
def card(corpora):
    train, _ = corpora
    return MDPCardLearner().fit(train)


def test_learner_produces_mixed_card(card):
    counts = card.counts()
    assert counts["go"] > 0
    assert counts["stop"] > 0
    assert counts["visited"] > 10


def test_card_paper_shape(card):
    """Fig 10: STOP in the very-high-DRV right half, GO at low DRV, GO at
    moderately-large DRV with negative slope."""
    space = card.space
    grid = card.as_grid()
    # very large violations: overwhelmingly STOP
    high = grid[14:, :]
    assert (high == STOP).mean() > 0.8
    # low violations, falling: overwhelmingly GO
    low = grid[1:5, : space.max_down]
    assert (low == GO).mean() > 0.6
    # moderately large violations with clearly negative slope: mostly GO
    mid = grid[6:9, 2:space.max_down - 2]
    assert (mid == GO).mean() > 0.5


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        MDPCardLearner().fit([])


def test_evaluation_error_decreases_with_consecutive_stops(card, corpora):
    _, test = corpora
    e1 = evaluate_policy(card, test, 1)
    e2 = evaluate_policy(card, test, 2)
    e3 = evaluate_policy(card, test, 3)
    assert e1.type1_errors >= e2.type1_errors >= e3.type1_errors
    assert e3.error_rate <= e1.error_rate
    assert e3.error_rate < 0.15  # single digits, like the paper's 4.2%


def test_evaluation_saves_iterations(card, corpora):
    _, test = corpora
    ev = evaluate_policy(card, test, 2)
    if ev.correct_stops:
        assert ev.iterations_saved > 0
    assert ev.total_errors == ev.type1_errors + ev.type2_errors
    assert "total error" in ev.summary_row()


def test_stop_iteration_semantics():
    space = StateSpace()
    actions = np.full(space.n_states, GO, dtype=int)
    # STOP whenever violations are large
    for state in range(space.n_states):
        vb, _ = space.unpack(state)
        if vb >= 10:
            actions[state] = STOP
    card = StrategyCard(space, actions, np.ones(space.n_states, dtype=bool))
    rising = [100, 500, 50_000, 500_000]  # bins 8, 9, 16, 19: STOP from t=2
    assert stop_iteration(card, rising, consecutive=1) == 2
    assert stop_iteration(card, rising, consecutive=2) == 3
    falling = [500, 100, 20, 0]
    assert stop_iteration(card, falling, consecutive=1) is None
    with pytest.raises(ValueError):
        stop_iteration(card, rising, consecutive=0)


def test_kill_policy(card):
    callback = KillPolicy(card, consecutive=2)
    assert callback([50, 10, 2]) is False
    assert callback([10_000, 80_000, 300_000, 900_000]) in (True, False)
    doomed_history = [10**5, 10**6, 10**7, 10**8]
    assert callback(doomed_history) is True


def test_live_pruning_in_router(card):
    """The card wired into the real router stops a doomed run early."""
    from repro.eda.routing import DetailedRouter

    cong = np.full((16, 16), 1.4)
    callback = KillPolicy(card, consecutive=2)
    result = DetailedRouter(max_iterations=20).route(cong, seed=3, stop_callback=callback)
    assert result.stopped_early
    assert result.iterations_run < 20


# ---------------------------------------------------------------- HMM route
def test_hmm_predictor_separates(corpora):
    train, test = corpora
    predictor = HMMDoomPredictor(seed=0).fit(train.logs[:150])
    ev = evaluate_policy(predictor, test.logs[:100], consecutive=2)
    assert ev.error_rate < 0.5  # learns something real
    doomed = [log for log in test.logs if not log.success][0]
    ok = [log for log in test.logs if log.success][0]
    assert predictor.doom_score(doomed.drvs) > predictor.doom_score(ok.drvs)


def test_hmm_predictor_validation(corpora):
    train, _ = corpora
    with pytest.raises(ValueError):
        HMMDoomPredictor(margin=-1.0)
    with pytest.raises(RuntimeError):
        HMMDoomPredictor().doom_score([1, 2, 3])
    only_good = [log for log in train.logs if log.success]
    with pytest.raises(ValueError):
        HMMDoomPredictor().fit(only_good)


@settings(max_examples=15, deadline=None)
@given(
    drvs=st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=25)
)
def test_property_stop_iteration_bounds(drvs):
    """A stop decision, when made, happens inside the trajectory."""
    card = apply_fill_in_rules(_empty_card())
    t = stop_iteration(card, drvs, consecutive=1)
    if t is not None:
        assert 1 <= t < len(drvs)
