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
