"""The campaign outcome: :class:`DSEResult`.

Every strategy returns one dataclass: the best-so-far ``trace``, the
per-candidate ``all_scores``, the run and failure counts, the method
tag (the strategy's registry name) and the executor's saved-work
accounting.  Strategy-specific payloads ride in optional fields —
``best_assign`` and ``total_moves`` for the landscape searchers,
``records`` (one :class:`~repro.core.bandit.regret.BanditRunRecord`
per pull), ``n_iterations`` and ``n_concurrent`` for the bandit,
``records`` (every run's outcome in run order) for the ``miner`` loop,
``pareto`` for flow campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.eda.flow import FlowResult


@dataclass
class DSEResult:
    """Outcome of one :meth:`~repro.dse.engine.DSEEngine.run` campaign.

    ``best_score`` and ``trace`` are raw objective values in the
    objective's natural units (costs stay costs); ranking direction
    lives in the objective, not the result.  ``runtime_proxy_executed``
    is the executor's actually-paid work delta for this campaign, and
    ``kill_proxy_saved`` the router proxy the online kill policy
    avoided on the ``n_killed`` terminated runs.  For a bandit campaign
    ``trace`` is the best single-pull reward after each iteration,
    ``sum(all_scores)`` the total reward and ``n_runs - n_failed`` the
    number of successful pulls.
    """

    method: str
    objective: str
    best_score: float
    best_result: Optional[FlowResult] = None
    best_assign: Optional[np.ndarray] = None
    trace: List[float] = field(default_factory=list)
    all_scores: List[float] = field(default_factory=list)
    n_runs: int = 0
    n_failed: int = 0
    n_pruned: int = 0
    n_killed: int = 0
    total_runtime_proxy: float = 0.0
    runtime_proxy_executed: float = 0.0
    kill_proxy_saved: float = 0.0
    stage_hits: int = 0
    total_moves: int = 0
    n_iterations: int = 0
    n_concurrent: int = 0
    failures: List = field(default_factory=list)
    records: List = field(default_factory=list)
    pareto: List[FlowResult] = field(default_factory=list)
    surrogate_fit: Optional[float] = None
