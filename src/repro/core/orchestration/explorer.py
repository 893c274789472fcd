"""Flow scoring and stage 4 of ML insertion (paper Fig 5(b)).

- :func:`default_score` ranks flow runs for every trajectory campaign;
  it is the ``"score"`` objective of :mod:`repro.dse`.  Stages 2 and 3
  (concurrent trajectory search that clones the winners, and pruning
  via doomed-run predictors) are the engine's ``"explorer"`` strategy
  and its ``kill_policy``:
  ``DSEEngine(strategy="explorer", kill_policy=...).run(spec, seed=...)``.
- Stage 4 (*reinforcement learning*): :class:`FlowRepairAgent` learns a
  tabular Q-policy over flow-repair actions (which knob to escalate
  given the failure signature) from its own rollouts.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.eda.flow import FlowOptions, FlowResult, SPRFlow
from repro.eda.synthesis import DesignSpec


def default_score(result: FlowResult) -> float:
    """Higher is better: successful runs score by achieved frequency per
    area; failures score negative by how badly they failed."""
    if result.success:
        return result.achieved_ghz * 1000.0 / max(1.0, result.area)
    penalty = 0.0
    if not result.timing_met:
        penalty += min(1.0, -min(0.0, result.wns) / 1000.0)
    if not result.routed:
        penalty += min(1.0, result.final_drvs / 10000.0)
    return -penalty


class FlowRepairAgent:
    """Stage-4: tabular Q-learning of flow-repair actions.

    State: (timing bucket, routing bucket) of the last run.  Actions:
    which knob to escalate.  Reward: improvement in the exploration
    score minus a fixed per-run cost.  After training the greedy policy
    is a learned escalation ladder — the robots' hand-coded ladder,
    discovered from experience instead.
    """

    ACTIONS = (
        "more_opt",
        "more_synth_effort",
        "lower_utilization",
        "more_router_effort",
        "lower_target",
    )

    def __init__(
        self,
        alpha: float = 0.4,
        gamma: float = 0.8,
        epsilon: float = 0.3,
        run_cost: float = 0.05,
    ):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if not 0 <= gamma < 1:
            raise ValueError("gamma must be in [0, 1)")
        self.alpha = alpha
        self.gamma = gamma
        self.epsilon = epsilon
        self.run_cost = run_cost
        self.q: Dict[Tuple[int, int], np.ndarray] = {}

    @staticmethod
    def state_of(result: FlowResult) -> Tuple[int, int]:
        if result.timing_met:
            timing = 0
        elif result.wns > -200:
            timing = 1
        else:
            timing = 2
        if result.routed:
            routing = 0
        elif result.final_drvs < 2000:
            routing = 1
        else:
            routing = 2
        return timing, routing

    def _q_row(self, state: Tuple[int, int]) -> np.ndarray:
        if state not in self.q:
            self.q[state] = np.zeros(len(self.ACTIONS))
        return self.q[state]

    def apply_action(self, options: FlowOptions, action: str) -> FlowOptions:
        if action == "more_opt":
            return options.with_(opt_passes=options.opt_passes + 4,
                                 opt_cells_per_pass=options.opt_cells_per_pass + 16)
        if action == "more_synth_effort":
            return options.with_(synth_effort=min(1.0, options.synth_effort + 0.25))
        if action == "lower_utilization":
            return options.with_(utilization=max(0.4, options.utilization - 0.08))
        if action == "more_router_effort":
            return options.with_(router_effort=min(1.0, options.router_effort + 0.2))
        if action == "lower_target":
            return options.with_(target_clock_ghz=max(0.1, options.target_clock_ghz - 0.04))
        raise ValueError(f"unknown action {action!r}")

    def train(
        self,
        spec: DesignSpec,
        start_options: FlowOptions,
        n_episodes: int = 6,
        steps_per_episode: int = 4,
        seed: int = 0,
    ) -> Dict[Tuple[int, int], str]:
        """Q-learning rollouts; returns the learned greedy policy."""
        rng = np.random.default_rng(seed)
        flow = SPRFlow()
        for _ in range(n_episodes):
            options = start_options
            result = flow.run(spec, options, seed=int(rng.integers(0, 2**31 - 1)))
            state = self.state_of(result)
            score = default_score(result)
            for _ in range(steps_per_episode):
                if state == (0, 0):
                    break  # flow is healthy; nothing to repair
                row = self._q_row(state)
                if rng.random() < self.epsilon:
                    action_idx = int(rng.integers(0, len(self.ACTIONS)))
                else:
                    action_idx = int(np.argmax(row))
                options = self.apply_action(options, self.ACTIONS[action_idx])
                result = flow.run(spec, options, seed=int(rng.integers(0, 2**31 - 1)))
                new_state = self.state_of(result)
                new_score = default_score(result)
                reward = (new_score - score) - self.run_cost
                future = float(np.max(self._q_row(new_state)))
                row[action_idx] += self.alpha * (
                    reward + self.gamma * future - row[action_idx]
                )
                state, score = new_state, new_score
        return self.policy()

    def policy(self) -> Dict[Tuple[int, int], str]:
        """Greedy action per visited state."""
        return {
            state: self.ACTIONS[int(np.argmax(row))] for state, row in self.q.items()
        }
