"""Extended bandit policies: Bayes-UCB and sliding-window Thompson."""

import numpy as np
import pytest

from repro.core.bandit import (
    BayesUCB,
    SlidingWindowThompson,
    SyntheticBanditEnvironment,
    ThompsonSampling,
    UniformRandom,
    expected_total_regret,
)
from repro.core.bandit.policies import _norm_ppf
from repro.dse import DSEEngine


def schedule(policy, env, n_iterations):
    """A 5-license batched bandit campaign through the DSE engine."""
    return DSEEngine(
        strategy="bandit",
        params={"n_iterations": n_iterations, "n_concurrent": 5},
    ).run((policy, env))


def test_norm_ppf_known_values():
    assert _norm_ppf(0.5) == pytest.approx(0.0, abs=1e-9)
    assert _norm_ppf(0.975) == pytest.approx(1.959964, abs=1e-3)
    assert _norm_ppf(0.025) == pytest.approx(-1.959964, abs=1e-3)
    assert _norm_ppf(0.999) == pytest.approx(3.0902, abs=1e-2)
    with pytest.raises(ValueError):
        _norm_ppf(0.0)


@pytest.mark.parametrize("cls,kwargs", [
    (BayesUCB, {}),
    (SlidingWindowThompson, {"window": 30}),
])
def test_new_policies_converge(cls, kwargs):
    policy = cls(3, seed=0, **kwargs)
    rng = np.random.default_rng(1)
    probs = [0.1, 0.4, 0.9]
    late = 0
    for t in range(400):
        arm = policy.select()
        policy.update(arm, 1.0 if rng.random() < probs[arm] else 0.0)
        if t >= 300 and arm == 2:
            late += 1
    assert late >= 60  # concentrated on the best arm


def test_bayes_ucb_beats_uniform():
    def total(cls, seed):
        env = SyntheticBanditEnvironment([0.2, 0.5, 0.9], seed=seed)
        res = schedule(cls(3, seed=seed + 1), env, 40)
        return expected_total_regret(res, env.true_means)

    bucb = np.mean([total(BayesUCB, s) for s in range(6)])
    unif = np.mean([total(UniformRandom, s) for s in range(6)])
    assert bucb < unif / 2


def test_policy_validation():
    with pytest.raises(ValueError):
        BayesUCB(3, prior=0.0)
    with pytest.raises(ValueError):
        SlidingWindowThompson(3, window=1)


class _FlippingEnv(SyntheticBanditEnvironment):
    """Best arm moves from 0 to 5 at a fixed pull count (tool update)."""

    def __init__(self, seed, flip_at=500):
        super().__init__([0.9] + [0.15] * 5, seed=seed)
        self.t = 0
        self.flip_at = flip_at

    def pull(self, arm):
        self.t += 1
        if self.t == self.flip_at:
            probs = np.full(6, 0.15)
            probs[5] = 0.9
            self.success_probs = probs
        return super().pull(arm)


def test_sliding_window_recovers_from_drift():
    """After a regime change, the windowed posterior re-adapts while the
    full-history posterior stays anchored to stale evidence."""

    def recovery_reward(cls, seed, **kw):
        env = _FlippingEnv(seed)
        policy = cls(6, seed=seed + 1, **kw)
        result = schedule(policy, env, 200)
        window = [r.reward for r in result.records if 110 <= r.iteration < 150]
        return float(np.mean(window))

    ts = np.mean([recovery_reward(ThompsonSampling, s) for s in range(5)])
    sw = np.mean([recovery_reward(SlidingWindowThompson, s, window=60) for s in range(5)])
    assert sw > ts + 0.2


def test_sliding_window_bounded_memory():
    policy = SlidingWindowThompson(2, window=10, seed=0)
    for _ in range(50):
        arm = policy.select()
        policy.update(arm, 1.0)
    assert len(policy._recent) == 10
