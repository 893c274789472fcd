"""Frozen copy of the per-predictor doomed-run loops (the golden
reference for the shared stop rule, scorer and kill hook).

Before the predictors shared one consecutive-STOP rule, each carried
its own: the strategy card's module-level ``stop_iteration`` /
``evaluate_policy`` / ``make_stop_callback``, and the HMM and logistic
predictors' ``stop_iteration`` / ``evaluate`` methods.  They are kept
here verbatim.  The predictor classes subclass the live ones, so
fitting, ``doom_score`` and ``doom_probability`` are the live code and
only the loops are frozen.  :func:`mdp_model` is the strategy-card
learner's per-state MDP build from before it counted transitions with
one ``np.add.at``.  Not a test module — no ``test_`` prefix, so pytest
does not collect it.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.bench.corpus import RouterLog
from repro.core.doomed import hmm_predictor, logistic_baseline
from repro.core.doomed.card import GO, STOP, StrategyCard
from repro.core.doomed.evaluate import DoomedEvaluation


def stop_iteration(
    card: StrategyCard, drvs, consecutive: int = 1
) -> Optional[int]:
    """Iteration index at which the policy would terminate the run.

    Replays the DRV series; returns None when the run is allowed to
    finish.  Termination requires ``consecutive`` STOP signals in a row
    (the paper's accuracy fix).
    """
    if consecutive < 1:
        raise ValueError("consecutive must be >= 1")
    streak = 0
    for t in range(1, len(drvs)):
        action = card.action(drvs[t], drvs[t] - drvs[t - 1])
        if action == STOP:
            streak += 1
            if streak >= consecutive:
                return t
        else:
            streak = 0
    return None


def evaluate_policy(
    card: StrategyCard, logs: Iterable[RouterLog], consecutive: int = 1
) -> DoomedEvaluation:
    """Type-1/Type-2 error accounting for one consecutive-STOP setting."""
    n = type1 = type2 = correct = saved = 0
    for log in logs:
        n += 1
        stop_at = stop_iteration(card, log.drvs, consecutive)
        if stop_at is not None:
            if log.success:
                type1 += 1
            else:
                correct += 1
                saved += (len(log.drvs) - 1) - stop_at
        else:
            if not log.success:
                type2 += 1
    if n == 0:
        raise ValueError("evaluation corpus is empty")
    return DoomedEvaluation(
        n_logs=n,
        type1_errors=type1,
        type2_errors=type2,
        correct_stops=correct,
        iterations_saved=saved,
        consecutive_stops_required=consecutive,
    )


def make_stop_callback(card: StrategyCard, consecutive: int = 3):
    """A live stop hook for :class:`~repro.eda.routing.DetailedRouter`.

    The returned callable takes the DRV history so far and returns True
    when the policy has emitted ``consecutive`` STOPs in a row — wire it
    into ``DetailedRouter(...).route(..., stop_callback=...)`` or
    ``SPRFlow(stop_callback=...)`` to prune doomed runs in production.
    """
    if consecutive < 1:
        raise ValueError("consecutive must be >= 1")

    def callback(history) -> bool:
        return stop_iteration(card, history, consecutive) is not None

    return callback


def mdp_model(learner, logs: Iterable[RouterLog]):
    """(transitions, rewards, visited) of ``MDPCardLearner``, one state
    at a time."""
    n_grid = learner.space.n_states
    success_state = n_grid
    fail_state = n_grid + 1
    stopped_state = n_grid + 2
    n_states = n_grid + 3

    counts = np.zeros((n_states, n_states))
    visited = np.zeros(n_grid, dtype=bool)
    n_logs = 0
    for log in logs:
        n_logs += 1
        states = learner.space.trajectory_states(log.drvs)
        if not states:
            continue
        for s in states:
            visited[s] = True
        for a, b in zip(states[:-1], states[1:]):
            counts[a, b] += 1.0
        terminal = success_state if log.success else fail_state
        counts[states[-1], terminal] += 1.0
    if n_logs == 0:
        raise ValueError("training corpus is empty")

    transitions = np.zeros((2, n_states, n_states))
    rewards = np.zeros((2, n_states))
    row_sums = counts.sum(axis=1)
    for s in range(n_grid):
        if row_sums[s] > 0:
            transitions[GO, s] = counts[s] / row_sums[s]
        else:
            transitions[GO, s, s] = 1.0
        p_succ = transitions[GO, s, success_state]
        p_fail = transitions[GO, s, fail_state]
        rewards[GO, s] = (
            -learner.iteration_cost
            + p_succ * learner.success_reward
            - p_fail * learner.fail_penalty
        )
    for s in (success_state, fail_state, stopped_state):
        transitions[GO, s, s] = 1.0
    transitions[STOP, :, stopped_state] = 1.0
    for s in (success_state, fail_state, stopped_state):
        transitions[STOP, s, :] = 0.0
        transitions[STOP, s, s] = 1.0
    return transitions, rewards, visited


class HMMDoomPredictor(hmm_predictor.HMMDoomPredictor):
    """The live HMM predictor with its frozen loop and scorer."""

    def stop_iteration(self, drvs, consecutive: int = 1) -> Optional[int]:
        """First iteration at which the predictor would stop the run."""
        if consecutive < 1:
            raise ValueError("consecutive must be >= 1")
        streak = 0
        for t in range(self.min_prefix, len(drvs)):
            if self.doom_score(drvs[: t + 1]) > self.margin:
                streak += 1
                if streak >= consecutive:
                    return t
            else:
                streak = 0
        return None

    def evaluate(self, logs: Iterable[RouterLog], consecutive: int = 1):
        """Type-1/Type-2 accounting, mirroring the MDP evaluation."""
        from repro.core.doomed.evaluate import DoomedEvaluation

        n = type1 = type2 = correct = saved = 0
        for log in logs:
            n += 1
            stop_at = self.stop_iteration(log.drvs, consecutive)
            if stop_at is not None:
                if log.success:
                    type1 += 1
                else:
                    correct += 1
                    saved += (len(log.drvs) - 1) - stop_at
            else:
                if not log.success:
                    type2 += 1
        if n == 0:
            raise ValueError("evaluation corpus is empty")
        return DoomedEvaluation(
            n_logs=n,
            type1_errors=type1,
            type2_errors=type2,
            correct_stops=correct,
            iterations_saved=saved,
            consecutive_stops_required=consecutive,
        )


class LogisticDoomBaseline(logistic_baseline.LogisticDoomBaseline):
    """The live logistic baseline with its frozen loop and scorer."""

    def stop_iteration(self, drvs, consecutive: int = 1) -> Optional[int]:
        if consecutive < 1:
            raise ValueError("consecutive must be >= 1")
        streak = 0
        for t in range(1, len(drvs)):
            if self.doom_probability(drvs, t) > self.threshold:
                streak += 1
                if streak >= consecutive:
                    return t
            else:
                streak = 0
        return None

    def evaluate(self, logs: Iterable[RouterLog], consecutive: int = 1):
        """Type-1/Type-2 accounting, mirroring the MDP evaluation."""
        from repro.core.doomed.evaluate import DoomedEvaluation

        n = type1 = type2 = correct = saved = 0
        for log in logs:
            n += 1
            stop_at = self.stop_iteration(log.drvs, consecutive)
            if stop_at is not None:
                if log.success:
                    type1 += 1
                else:
                    correct += 1
                    saved += (len(log.drvs) - 1) - stop_at
            else:
                if not log.success:
                    type2 += 1
        if n == 0:
            raise ValueError("evaluation corpus is empty")
        return DoomedEvaluation(
            n_logs=n,
            type1_errors=type1,
            type2_errors=type2,
            correct_stops=correct,
            iterations_saved=saved,
            consecutive_stops_required=consecutive,
        )
