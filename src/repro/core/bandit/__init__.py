"""Multi-armed-bandit tool-run scheduling (paper Sec 3.1, Fig 7).

Per the paper (and its ref [25]): arms are flow option bundles — here,
target design frequencies — with unknown reward distributions; a budget
of T iterations with N concurrent tool runs (licenses) per iteration is
spent by a sampling policy that balances exploration and exploitation.
Thompson Sampling is the paper's recommended policy; softmax and
ε-greedy are the compared alternatives, plus UCB1 and uniform baselines.
A campaign runs a ``(policy, environment)`` pair through the DSE
engine: ``DSEEngine(strategy="bandit", params={"n_iterations": T,
"n_concurrent": N}).run((policy, env), seed=...)``.
"""

from repro.core.bandit.policies import (
    BanditPolicy,
    BayesUCB,
    EpsilonGreedy,
    GaussianThompsonSampling,
    SlidingWindowThompson,
    Softmax,
    ThompsonSampling,
    UCB1,
    UniformRandom,
)
from repro.core.bandit.environment import (
    BanditEnvironment,
    FlowArmEnvironment,
    SyntheticBanditEnvironment,
)
from repro.core.bandit.regret import BanditRunRecord, cumulative_regret, expected_total_regret

__all__ = [
    "BanditPolicy",
    "ThompsonSampling",
    "BayesUCB",
    "SlidingWindowThompson",
    "GaussianThompsonSampling",
    "Softmax",
    "EpsilonGreedy",
    "UCB1",
    "UniformRandom",
    "BanditEnvironment",
    "FlowArmEnvironment",
    "SyntheticBanditEnvironment",
    "BanditRunRecord",
    "cumulative_regret",
    "expected_total_regret",
]
