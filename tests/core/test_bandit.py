"""Bandit policies, environments, batched campaigns, regret."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandit import (
    EpsilonGreedy,
    GaussianThompsonSampling,
    Softmax,
    SyntheticBanditEnvironment,
    ThompsonSampling,
    UCB1,
    UniformRandom,
    cumulative_regret,
    expected_total_regret,
)
from repro.dse import DSEEngine


def schedule(policy, env, n_iterations=40, n_concurrent=5):
    """One batched bandit campaign through the DSE engine."""
    return DSEEngine(
        strategy="bandit",
        params={"n_iterations": n_iterations, "n_concurrent": n_concurrent},
    ).run((policy, env))


ALL_POLICIES = [
    lambda n, s: ThompsonSampling(n, seed=s),
    lambda n, s: GaussianThompsonSampling(n, seed=s),
    lambda n, s: Softmax(n, temperature=0.1, seed=s),
    lambda n, s: EpsilonGreedy(n, epsilon=0.1, seed=s),
    lambda n, s: UCB1(n, seed=s),
    lambda n, s: UniformRandom(n, seed=s),
]


@pytest.mark.parametrize("factory", ALL_POLICIES)
def test_policy_selects_valid_arms(factory):
    policy = factory(5, 0)
    for _ in range(50):
        arm = policy.select()
        assert 0 <= arm < 5
        policy.update(arm, 0.5)


@pytest.mark.parametrize("factory", ALL_POLICIES)
def test_policy_converges_to_best_arm(factory):
    """With clearly separated arms, >=half the late pulls hit the best."""
    policy = factory(3, 42)
    rng = np.random.default_rng(7)
    probs = [0.05, 0.5, 0.95]
    late_hits = 0
    for t in range(400):
        arm = policy.select()
        reward = 1.0 if rng.random() < probs[arm] else 0.0
        policy.update(arm, reward)
        if t >= 300 and arm == 2:
            late_hits += 1
    if not isinstance(policy, UniformRandom):
        assert late_hits >= 50


def test_update_validation():
    policy = ThompsonSampling(3, seed=0)
    with pytest.raises(IndexError):
        policy.update(5, 0.5)
    with pytest.raises(ValueError):
        policy.update(0, 1.5)


def test_thompson_posterior_tracks_mean():
    policy = ThompsonSampling(2, seed=0)
    for _ in range(200):
        policy.update(0, 1.0)
        policy.update(1, 0.0)
    post = policy.posterior_mean()
    assert post[0] > 0.9
    assert post[1] < 0.1


def test_ucb_explores_all_arms_first():
    policy = UCB1(4, seed=0)
    first_arms = []
    for _ in range(4):
        arm = policy.select()
        first_arms.append(arm)
        policy.update(arm, 0.5)
    assert sorted(first_arms) == [0, 1, 2, 3]


def test_policy_parameter_validation():
    with pytest.raises(ValueError):
        ThompsonSampling(0)
    with pytest.raises(ValueError):
        EpsilonGreedy(3, epsilon=2.0)
    with pytest.raises(ValueError):
        Softmax(3, temperature=0.0)
    with pytest.raises(ValueError):
        GaussianThompsonSampling(3, obs_std=0.0)


# ------------------------------------------------------------- environment
def test_synthetic_environment_rewards():
    env = SyntheticBanditEnvironment([1.0, 0.0], values=[0.5, 1.0], seed=0)
    r, info = env.pull(0)
    assert r == 0.5 and info["success"]
    r, info = env.pull(1)
    assert r == 0.0 and not info["success"]
    assert np.allclose(env.true_means, [0.5, 0.0])


def test_environment_validation():
    with pytest.raises(ValueError):
        SyntheticBanditEnvironment([])
    with pytest.raises(ValueError):
        SyntheticBanditEnvironment([0.5], values=[2.0])
    with pytest.raises(ValueError):
        SyntheticBanditEnvironment([1.5])


# ---------------------------------------------------------------- campaign
def test_scheduler_budget_accounting():
    env = SyntheticBanditEnvironment([0.2, 0.8], seed=1)
    policy = ThompsonSampling(2, seed=2)
    result = schedule(policy, env, n_iterations=10, n_concurrent=3)
    assert len(result.records) == result.n_runs == 30
    assert result.n_iterations == 10
    assert policy.total_pulls == 30
    assert result.all_scores == [r.reward for r in result.records]
    assert result.n_runs - result.n_failed == sum(r.success for r in result.records)


def test_scheduler_arm_mismatch_rejected():
    env = SyntheticBanditEnvironment([0.5, 0.5], seed=0)
    with pytest.raises(ValueError):
        schedule(ThompsonSampling(3, seed=0), env)


def test_best_reward_trace_monotone():
    env = SyntheticBanditEnvironment([0.3, 0.9], seed=3)
    result = schedule(ThompsonSampling(2, seed=4), env, 20, 2)
    trace = result.trace
    assert len(trace) == 20
    assert all(a <= b for a, b in zip(trace, trace[1:]))
    assert trace[-1] == result.best_score == max(result.all_scores)


# ------------------------------------------------------------------ regret
def test_regret_zero_for_oracle():
    env = SyntheticBanditEnvironment([0.2, 0.9], seed=9)

    class Oracle(UniformRandom):
        def select(self):
            return 1

    result = schedule(Oracle(2, seed=0), env, 10, 2)
    assert expected_total_regret(result, env.true_means) == 0.0


def test_regret_positive_for_uniform():
    env = SyntheticBanditEnvironment([0.2, 0.9], seed=10)
    result = schedule(UniformRandom(2, seed=1), env, 20, 2)
    regret = cumulative_regret(result, env.true_means)
    assert regret[-1] > 0
    assert all(a <= b + 1e-12 for a, b in zip(regret, regret[1:]))


def test_thompson_beats_uniform_on_regret():
    def total(policy_cls, seed):
        env = SyntheticBanditEnvironment([0.1, 0.5, 0.9], seed=seed)
        result = schedule(policy_cls(3, seed=seed + 1), env)
        return expected_total_regret(result, env.true_means)

    ts = np.mean([total(ThompsonSampling, s) for s in range(5)])
    uni = np.mean([total(UniformRandom, s) for s in range(5)])
    assert ts < uni


def test_thompson_robustness_claim():
    """The paper: TS is more robust than softmax/eps-greedy across a wide
    range of settings.  Measured as worst-case regret over instances."""

    instances = [
        [0.9, 0.7, 0.5, 0.3],
        [0.55, 0.5, 0.45, 0.4],
        [0.05, 0.1, 0.15, 0.95],
        [0.2, 0.2, 0.2, 0.25],
    ]

    def worst_case(factory):
        worsts = []
        for probs in instances:
            regrets = []
            for seed in range(4):
                env = SyntheticBanditEnvironment(probs, seed=seed)
                result = schedule(factory(4, seed + 1), env)
                regrets.append(expected_total_regret(result, env.true_means))
            worsts.append(np.mean(regrets))
        return max(worsts)

    ts = worst_case(lambda n, s: ThompsonSampling(n, seed=s))
    sm = worst_case(lambda n, s: Softmax(n, temperature=0.1, seed=s))
    eg = worst_case(lambda n, s: EpsilonGreedy(n, epsilon=0.1, seed=s))
    assert ts <= sm * 1.05 or ts <= eg * 1.05  # robust vs at least one
    assert ts < max(sm, eg)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_property_rewards_bounded(seed):
    env = SyntheticBanditEnvironment([0.3, 0.6, 0.9], seed=seed)
    policy = ThompsonSampling(3, seed=seed)
    result = schedule(policy, env, 10, 2)
    assert all(0.0 <= r.reward <= 1.0 for r in result.records)
