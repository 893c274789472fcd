"""Surrogate proposer: training gates, determinism, guided proposals."""

import numpy as np
import pytest

from repro.core.parallel import FlowExecutor
from repro.dse import DSEEngine, SurrogateProposer, default_flow_space
from repro.metrics import MetricsCollector, MetricsServer


def test_constructor_validation():
    with pytest.raises(ValueError):
        SurrogateProposer(model="neural")
    with pytest.raises(ValueError):
        SurrogateProposer(min_fit=3)
    with pytest.raises(ValueError):
        SurrogateProposer(n_candidates=1)


def test_not_ready_falls_back_to_blind_perturbation():
    space = default_flow_space()
    proposer = SurrogateProposer()
    donor = space.sample(np.random.default_rng(0))
    assert not proposer.ready
    blind = space.perturb(donor, np.random.default_rng(5))
    proposed = proposer.propose(space, donor, np.random.default_rng(5))
    assert proposed == blind  # same rng stream, same point


def test_fit_gates_on_min_rows_and_new_data():
    space = default_flow_space()
    proposer = SurrogateProposer(min_fit=4, random_state=1)
    rng = np.random.default_rng(2)
    for _ in range(3):
        point = space.sample(rng)
        features = proposer.point_features(space, point)
        proposer.observe(features, features[0])
    assert not proposer.maybe_fit()  # 3 rows < min_fit
    proposer.observe(proposer.point_features(space, space.sample(rng)), 0.5)
    assert proposer.maybe_fit()
    assert proposer.ready and proposer.n_fits == 1
    assert np.isfinite(proposer.fit_score)
    assert not proposer.maybe_fit()  # no new rows, no refit


def test_non_finite_observations_are_dropped():
    proposer = SurrogateProposer(min_fit=4)
    proposer.observe([1.0] * 6, -np.inf)
    proposer.observe([1.0] * 6, np.nan)
    assert proposer._X == []


def test_guided_proposal_is_deterministic_and_model_argmax():
    """Train on 'higher utilization is better'; the proposer must pick
    the highest-utilization candidate of its draw, reproducibly."""
    space = default_flow_space()
    rng = np.random.default_rng(3)
    proposer = SurrogateProposer(min_fit=8, n_candidates=8, random_state=0)
    for _ in range(32):
        point = space.sample(rng)
        features = proposer.point_features(space, point)
        proposer.observe(features, float(point["utilization"]))
    assert proposer.maybe_fit()

    donor = space.sample(np.random.default_rng(1))
    first = proposer.propose(space, donor, np.random.default_rng(9))
    again = proposer.propose(space, donor, np.random.default_rng(9))
    assert first == again
    # the pick is exactly the model argmax over the candidate draw
    rng_check = np.random.default_rng(9)
    candidates = [space.perturb(donor, rng_check) for _ in range(8)]
    predicted = np.asarray(proposer._model.predict(
        np.asarray([proposer.point_features(space, c) for c in candidates])
    ), dtype=float)
    assert first == candidates[int(np.argmax(predicted))]


def test_engine_campaign_trains_surrogate_from_metrics(small_spec):
    """End to end: a collecting campaign feeds the proposer from the
    METRICS run vectors and lands dse.surrogate_fit."""
    server = MetricsServer()
    surrogate = SurrogateProposer(min_fit=4, random_state=0)
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, cache=None,
                          collector=collector) as executor:
            result = DSEEngine(
                strategy="explorer", executor=executor, surrogate=surrogate,
                params={"n_rounds": 3, "n_concurrent": 4},
            ).run(small_spec, seed=2)
        collector.flush()
    assert surrogate.n_fits >= 1
    assert result.surrogate_fit is not None
    assert server.run_vector("dse-explorer-2")["dse.surrogate_fit"] == \
        pytest.approx(result.surrogate_fit)


def test_surrogate_changes_the_campaign_but_not_its_accounting(small_spec):
    """A guided explorer consumes a different rng stream (documented),
    yet still runs the same number of jobs under the same budget."""
    blind = DSEEngine(
        strategy="explorer", params={"n_rounds": 2, "n_concurrent": 3},
    ).run(small_spec, seed=4)
    guided = DSEEngine(
        strategy="explorer", surrogate=SurrogateProposer(min_fit=4),
        params={"n_rounds": 2, "n_concurrent": 3},
    ).run(small_spec, seed=4)
    assert guided.n_runs == blind.n_runs == 6
    assert np.isfinite(guided.best_score)


def _collected_surrogate_campaign(spec, kill_policy, n_workers):
    surrogate = SurrogateProposer(min_fit=4, random_state=0)
    with MetricsCollector(MetricsServer(), cross_process=True) as collector:
        with FlowExecutor(n_workers=n_workers, cache=True,
                          collector=collector) as executor:
            result = DSEEngine(
                strategy="explorer", executor=executor, surrogate=surrogate,
                kill_policy=kill_policy,
                params={"n_rounds": 10, "n_concurrent": 3},
            ).run(spec, seed=3)
    return (result.best_score, result.surrogate_fit, result.n_killed,
            result.trace)


def test_surrogate_campaign_is_repeatable_across_worker_counts(mcu_spec,
                                                               mdp_policy):
    """The surrogate refits on the server at every round boundary; the
    engine flushes the collector first, so the refit sees every record
    of the round at any worker count and the campaign repeats exactly."""
    serial = _collected_surrogate_campaign(mcu_spec, mdp_policy, 1)
    assert serial[1] is not None
    for _ in range(3):
        assert _collected_surrogate_campaign(mcu_spec, mdp_policy, 2) == serial
