"""Learning the strategy card by MDP policy iteration (paper ref [30]).

The MDP: states are (violation bin, slope bin) cells plus three
absorbing states — SUCCESS (run finished clean), FAIL (run finished
with too many DRVs) and STOPPED.  The GO action follows the empirical
transition frequencies of the training corpus, including each
trajectory's terminal hand-off into SUCCESS/FAIL.  Rewards follow the
paper: "a small negative reward for a non-stop state, a large positive
reward for termination with low DRV" — plus a penalty for riding a run
into failure.  STOP moves to the STOPPED absorbing state at zero
reward.  Policy iteration then yields a GO/STOP action per state, and
footnote-5 rules fill the unvisited cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from repro.bench.corpus import RouterLog
from repro.core.doomed.card import GO, STOP, StrategyCard, apply_fill_in_rules
from repro.core.doomed.features import StateSpace
from repro.ml.mdp import FiniteMDP, policy_iteration


@dataclass
class MDPCardLearner:
    """Fit a :class:`StrategyCard` from a corpus of router logs.

    Reward shape: ``iteration_cost`` per GO step (schedule/licenses are
    not free), ``success_reward`` on reaching a clean finish,
    ``fail_penalty`` on riding a run into failure.  ``gamma`` close to 1
    makes the policy care about run outcomes, not just the next step.

    The default rewards deliberately make the raw policy *oversensitive*
    (it stops too quickly), matching the paper's observation; accuracy
    is then recovered by requiring consecutive STOP signals.
    """

    space: StateSpace = StateSpace()
    iteration_cost: float = 1.0
    success_reward: float = 100.0
    fail_penalty: float = 200.0
    gamma: float = 0.99
    fill_in: bool = True

    def fit_from_store(self, store, design=None, campaign=None,
                       since=None) -> StrategyCard:
        """Fit from DRV trajectories persisted in a metrics store —
        the full archive by default, or one design/campaign slice."""
        from repro.core.doomed.warehouse import router_logs_from_store

        return self.fit(router_logs_from_store(
            store, design=design, campaign=campaign, since=since))

    def fit(self, logs: Iterable[RouterLog]) -> StrategyCard:
        transitions, rewards, visited = self._model(logs)
        mdp = FiniteMDP(transitions, rewards, gamma=self.gamma)
        _, policy = policy_iteration(mdp)
        card = StrategyCard(self.space, policy[:self.space.n_states], visited)
        if self.fill_in:
            card = apply_fill_in_rules(card)
        return card

    def _model(self, logs: Iterable[RouterLog]):
        """(transitions, rewards, visited) of the corpus's MDP."""
        n_grid = self.space.n_states
        success_state = n_grid
        fail_state = n_grid + 1
        stopped_state = n_grid + 2
        n_states = n_grid + 3

        # every GO step of the corpus as a (state, next state) pair: a
        # trajectory's states hand off in turn, its last one to the
        # run's outcome
        sources: List[int] = []
        targets: List[int] = []
        n_logs = 0
        for log in logs:
            n_logs += 1
            states = self.space.trajectory_states(log.drvs)
            if not states:
                continue
            sources += states
            targets += states[1:]
            targets.append(success_state if log.success else fail_state)
        if n_logs == 0:
            raise ValueError("training corpus is empty")
        source = np.array(sources, dtype=np.intp)
        counts = np.zeros((n_states, n_states))
        # whole-number adds: exact in any order
        np.add.at(counts, (source, np.array(targets, dtype=np.intp)), 1.0)
        visited = np.zeros(n_grid, dtype=bool)
        visited[source] = True

        transitions = np.zeros((2, n_states, n_states))
        rewards = np.zeros((2, n_states))

        # GO: empirical transitions; unvisited states self-loop (their
        # action is later overwritten by the fill-in rules anyway)
        row_sums = counts[:n_grid].sum(axis=1)
        seen = np.flatnonzero(row_sums > 0)
        unseen = np.flatnonzero(row_sums == 0)
        transitions[GO, seen] = counts[seen] / row_sums[seen, None]
        transitions[GO, unseen, unseen] = 1.0
        rewards[GO, :n_grid] = (
            -self.iteration_cost
            + transitions[GO, :n_grid, success_state] * self.success_reward
            - transitions[GO, :n_grid, fail_state] * self.fail_penalty
        )
        # absorbing states self-loop under both actions at zero reward
        for s in (success_state, fail_state, stopped_state):
            transitions[GO, s, s] = 1.0
        # STOP: jump to STOPPED from anywhere
        transitions[STOP, :, stopped_state] = 1.0
        for s in (success_state, fail_state, stopped_state):
            transitions[STOP, s, :] = 0.0
            transitions[STOP, s, s] = 1.0
        return transitions, rewards, visited
