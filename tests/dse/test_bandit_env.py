"""Executor handling across bandit environments (the silently-ignored
executor bug): serial-only environments must warn, flow environments
must actually use the pool — and never warn."""

import warnings

import pytest

from repro.core.bandit import (
    FlowArmEnvironment,
    SyntheticBanditEnvironment,
    ThompsonSampling,
)
from repro.core.parallel import FlowExecutor
from repro.dse import DSEEngine
from repro.eda.flow import FlowOptions


def test_synthetic_env_warns_when_given_an_executor():
    env = SyntheticBanditEnvironment([0.5, 0.9], seed=0)
    with FlowExecutor(n_workers=1, cache=None) as executor:
        with pytest.warns(RuntimeWarning,
                          match="executes pulls serially"):
            outcomes = env.pull_batch([0, 1], executor=executor)
    assert len(outcomes) == 2  # the batch still runs (serially)


def test_synthetic_env_is_quiet_without_executor():
    env = SyntheticBanditEnvironment([0.5, 0.9], seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        env.pull_batch([0, 1])


def test_scheduler_surfaces_the_warning(small_spec):
    """The full bandit campaign path warns too — a campaign that
    believes it is parallel finds out it is not."""
    env = SyntheticBanditEnvironment([0.4, 0.8], seed=1)
    with FlowExecutor(n_workers=1, cache=None) as executor:
        with pytest.warns(RuntimeWarning, match="executor is ignored"):
            result = DSEEngine(
                strategy="bandit", executor=executor,
                params={"n_iterations": 2, "n_concurrent": 2},
            ).run((ThompsonSampling(2, seed=2), env))
    assert len(result.records) == 4


def test_flow_env_uses_the_executor_without_warning(small_spec):
    env = FlowArmEnvironment(small_spec, [0.5, 0.7], seed=3)
    with FlowExecutor(n_workers=1, cache=None) as executor:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = env.pull_batch([0, 1], executor=executor)
    assert len(outcomes) == 2
    assert executor.stats.jobs_submitted == 2  # the pool really ran the pulls


def _kill_bandit(spec, policy, executor):
    base = FlowOptions(synth_effort=0.2, utilization=0.85, router_effort=0.4,
                       router_max_iterations=40)
    env = FlowArmEnvironment(spec, [0.5, 0.8], base_options=base, seed=5)
    result = DSEEngine(
        strategy="bandit", executor=executor, kill_policy=policy,
        params={"n_iterations": 3, "n_concurrent": 2},
    ).run((ThompsonSampling(2, seed=6), env))
    return result, env


def test_kill_bandit_without_executor_matches_a_serial_executor(mcu_spec,
                                                                mdp_policy):
    """Without an executor the pulls run on a serial one the campaign
    makes: the same killed runs, records and history as through a
    caller's, and the engine reports the same executor accounting."""
    plain, plain_env = _kill_bandit(mcu_spec, mdp_policy, None)
    with FlowExecutor(n_workers=1, cache=None) as executor:
        served, served_env = _kill_bandit(mcu_spec, mdp_policy, executor)
    assert plain.records == served.records
    assert plain_env.history == served_env.history
    assert executor.stats.kills > 0
    for field in ("n_killed", "kill_proxy_saved", "runtime_proxy_executed",
                  "stage_hits"):
        assert getattr(plain, field) == getattr(served, field), field
    assert plain.n_killed == executor.stats.kills
    assert plain.runtime_proxy_executed > 0


def test_flow_env_records_a_crashed_pull_without_executor(small_spec,
                                                          monkeypatch):
    import repro.core.parallel.executor as executor_module
    from tests.core.test_parallel import _crash_always

    monkeypatch.setattr(executor_module, "run_flow_job", _crash_always)
    env = FlowArmEnvironment(small_spec, [0.5, 0.7], seed=3)
    (reward, info), = env.pull_batch([1])
    assert reward == 0.0
    assert not info.success and info.result is None
    assert "license server exploded" in info.error
    assert env.history == [info]
