"""Pull records and regret accounting (paper footnote 3).

A bandit campaign (``DSEEngine(strategy="bandit")``) logs one
:class:`BanditRunRecord` per pull in ``DSEResult.records``.

"Let r* be the reward for the optimal arm at any step j.  Then the
regret for that step is r* - r_{a_j} and the expected total regret is
E[sum_j r* - r_{a_j}]."  These helpers compute realized and expected
regret for a campaign against known true arm means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class BanditRunRecord:
    """One pull: where it happened and what came back."""

    iteration: int
    slot: int
    arm: int
    reward: float
    success: bool


def cumulative_regret(result, true_means: Sequence[float]) -> np.ndarray:
    """Expected regret accumulated after each pull of a bandit
    campaign's :class:`~repro.dse.result.DSEResult`.

    Uses the *expected* per-step regret mu* - mu_{a_j} (the standard
    pseudo-regret), which is what bandit guarantees bound.
    """
    means = np.asarray(true_means, dtype=float)
    if means.ndim != 1 or means.size == 0:
        raise ValueError("true_means must be a non-empty vector")
    mu_star = means.max()
    records = sorted(result.records, key=lambda r: (r.iteration, r.slot))
    per_step = np.array([mu_star - means[r.arm] for r in records])
    return np.cumsum(per_step)


def expected_total_regret(result, true_means: Sequence[float]) -> float:
    """Total pseudo-regret of the whole campaign."""
    regret = cumulative_regret(result, true_means)
    return float(regret[-1]) if regret.size else 0.0
