"""Determinism under parallelism: every campaign layer must produce
bit-identical results and traces at any worker count.

Each test runs the same campaign through a serial executor
(``n_workers=1``) and a 4-worker process pool and compares full
results.  This is the property that makes "n_concurrent licenses" a
pure throughput knob, as in the paper's experiments.
"""

import numpy as np
import pytest

from repro.bench.characterize import characterize
from repro.core.bandit import FlowArmEnvironment, ThompsonSampling
from repro.core.parallel import FlowExecutor
from repro.core.search import BisectionProblem
from repro.dse import DSEEngine


@pytest.fixture(scope="module")
def pool4():
    with FlowExecutor(n_workers=4, cache=None) as executor:
        yield executor


def _explore(spec, seed, executor):
    return DSEEngine(
        strategy="explorer", executor=executor,
        params={"n_concurrent": 3, "n_rounds": 2},
    ).run(spec, seed=seed)


def _schedule(policy, env, n_iterations, n_concurrent, executor=None):
    return DSEEngine(
        strategy="bandit", executor=executor,
        params={"n_iterations": n_iterations, "n_concurrent": n_concurrent},
    ).run((policy, env))


def test_explorer_is_worker_count_invariant(small_spec, pool4):
    serial = _explore(small_spec, 6, FlowExecutor(n_workers=1, cache=None))
    parallel = _explore(small_spec, 6, pool4)
    assert serial.trace == parallel.trace
    assert serial.best_score == parallel.best_score
    assert serial.best_result == parallel.best_result
    assert (serial.n_runs, serial.n_pruned) == (parallel.n_runs, parallel.n_pruned)


def test_bandit_schedule_is_worker_count_invariant(small_spec, pool4):
    def campaign(executor):
        env = FlowArmEnvironment(small_spec, [0.5, 0.7], seed=3)
        policy = ThompsonSampling(2, seed=4)
        return _schedule(policy, env, 3, 2, executor), env

    serial_result, serial_env = campaign(FlowExecutor(n_workers=1, cache=None))
    parallel_result, parallel_env = campaign(pool4)
    assert serial_result.records == parallel_result.records
    assert serial_result.all_scores == parallel_result.all_scores
    assert serial_result.trace == parallel_result.trace
    # the environment trace (every QoR) matches too
    assert len(serial_env.history) == len(parallel_env.history)
    for a, b in zip(serial_env.history, parallel_env.history):
        assert a.result == b.result


def test_bandit_executor_path_matches_plain_pulls(small_spec):
    """The executor path must equal the historical serial pull() loop."""
    env_plain = FlowArmEnvironment(small_spec, [0.5, 0.7], seed=3)
    plain = _schedule(ThompsonSampling(2, seed=4), env_plain, 2, 2)
    env_exec = FlowArmEnvironment(small_spec, [0.5, 0.7], seed=3)
    threaded = _schedule(ThompsonSampling(2, seed=4), env_exec, 2, 2,
                         FlowExecutor(n_workers=1, cache=None))
    assert plain.records == threaded.records


@pytest.fixture(scope="module")
def problem():
    return BisectionProblem.random_community(
        n_nodes=64, n_communities=8, p_in=0.6, p_out=0.06, seed=1
    )


def test_random_multistart_is_worker_count_invariant(problem, pool4):
    def run(executor):
        return DSEEngine(strategy="random", executor=executor,
                         params={"n_starts": 6}).run(problem, seed=2)

    serial = run(FlowExecutor(n_workers=1, cache=None))
    parallel = run(pool4)
    assert serial.best_score == parallel.best_score
    assert serial.all_scores == parallel.all_scores
    assert np.array_equal(serial.best_assign, parallel.best_assign)


def test_adaptive_multistart_is_worker_count_invariant(problem, pool4):
    def run(executor):
        return DSEEngine(
            strategy="multistart", executor=executor,
            params={"n_initial": 4, "n_adaptive_rounds": 2,
                    "starts_per_round": 2, "elite_size": 2},
        ).run(problem, seed=7)

    serial = run(FlowExecutor(n_workers=1, cache=None))
    parallel = run(pool4)
    assert serial.all_scores == parallel.all_scores
    assert np.array_equal(serial.best_assign, parallel.best_assign)
    assert serial.n_runs == parallel.n_runs == 4 + 2 * 2


def test_characterize_is_worker_count_invariant(pool4):
    serial = characterize(n_charts=4, n_stages=5, seed=5,
                          executor=FlowExecutor(n_workers=1, cache=None))
    parallel = characterize(n_charts=4, n_stages=5, seed=5, executor=pool4)
    assert [r.sizer for r in serial] == [r.sizer for r in parallel]
    for a, b in zip(serial, parallel):
        assert a.qualities == b.qualities


def test_cached_campaign_matches_uncached(small_spec):
    """Cache hits must be observationally identical to fresh runs."""
    cached = FlowExecutor(n_workers=1, cache=True)
    first = _explore(small_spec, 9, cached)
    second = _explore(small_spec, 9, cached)  # identical campaign
    assert first.best_result == second.best_result
    assert first.trace == second.trace
    assert cached.stats.cache_hit_rate >= 0.45  # second pass was ~free
