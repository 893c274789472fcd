"""The GO/STOP strategy card (paper Fig 10).

A strategy card maps every (violation bin, slope bin) state to GO or
STOP — "'hit' analogizes to continuing the tool run for another
iteration, and 'stay' analogizes to terminating the tool run."
Training logfiles never cover the whole grid, so unobserved states are
filled programmatically with the paper's footnote-5 rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.doomed.features import StateSpace

GO = 0
STOP = 1


@dataclass
class StrategyCard:
    """Per-state GO/STOP decisions over a :class:`StateSpace`."""

    space: StateSpace
    actions: np.ndarray  # (n_states,) of GO/STOP
    visited: np.ndarray  # (n_states,) bool: state seen in training data

    def __post_init__(self):
        self.actions = np.asarray(self.actions, dtype=int)
        self.visited = np.asarray(self.visited, dtype=bool)
        if self.actions.shape != (self.space.n_states,):
            raise ValueError("actions must have one entry per state")
        if self.visited.shape != (self.space.n_states,):
            raise ValueError("visited must have one entry per state")
        bad = set(np.unique(self.actions)) - {GO, STOP}
        if bad:
            raise ValueError(f"invalid actions {bad}")

    def action(self, violations: float, delta: float) -> int:
        """GO/STOP for a raw observation."""
        return int(self.actions[self.space.state_of(violations, delta)])

    def stop_signal(self, drvs, t: int) -> bool:
        """The card's raw STOP signal after iteration ``t``."""
        return self.action(drvs[t], drvs[t] - drvs[t - 1]) == STOP

    def as_grid(self) -> np.ndarray:
        """(n_violation_bins, n_slope_bins) action grid for plotting."""
        return self.actions.reshape(
            self.space.n_violation_bins, self.space.n_slope_bins
        )

    def counts(self) -> Dict[str, int]:
        return {
            "go": int(np.sum(self.actions == GO)),
            "stop": int(np.sum(self.actions == STOP)),
            "visited": int(self.visited.sum()),
        }


def apply_fill_in_rules(
    card: StrategyCard,
    large_violation_bin: int = 9,
    very_large_violation_bin: int = 13,
    large_positive_slope: int = 2,
) -> StrategyCard:
    """Fill unvisited states with the paper's footnote-5 rules.

    "(i) large violations and positive slope should be STOP, (ii) small
    violations and large positive slope should be STOP, (iii) very
    large violations should be STOP, and (iv) everything else should be
    GO."  Visited states keep their learned action.
    """
    actions = card.actions.copy()
    for state in range(card.space.n_states):
        if card.visited[state]:
            continue
        vb, sb = card.space.unpack(state)
        if vb >= large_violation_bin and sb > 0:
            actions[state] = STOP  # rule (i)
        elif vb < large_violation_bin and sb >= large_positive_slope:
            actions[state] = STOP  # rule (ii)
        elif vb >= very_large_violation_bin:
            actions[state] = STOP  # rule (iii)
        else:
            actions[state] = GO  # rule (iv)
    return StrategyCard(card.space, actions, card.visited)
