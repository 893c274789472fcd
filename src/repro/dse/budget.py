"""Campaign budgets: runs and simulated tool cost.

A :class:`Budget` declares the limits; a :class:`BudgetTracker` is the
mutable per-campaign ledger strategies charge against.  All limits are
optional — the default budget is unlimited, in which case a campaign
is bounded by its strategy's own round/iteration counts.

Both limits count charged work, never the clock, and strategies check
them *between* batches: a campaign stops at the same batch boundary on
any machine and at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Budget:
    """Declarative campaign limits (None = unlimited).

    ``max_runs`` counts charged work units — flow runs for flow
    strategies, local searches for multistart, thread-stages for the
    annealing strategies.  Runs are charged per launched batch and the
    ledger is checked between batches, so a campaign can overshoot
    ``max_runs`` by up to one batch less one run.
    ``max_runtime_proxy`` bounds the summed simulated tool cost of
    delivered results (each result's ``runtime_proxy``, cache hits
    counted in full), the machine-independent runtime currency of the
    substrate.
    """

    max_runs: Optional[int] = None
    max_runtime_proxy: Optional[float] = None

    def __post_init__(self):
        if self.max_runs is not None and self.max_runs < 1:
            raise ValueError("max_runs must be >= 1")
        if self.max_runtime_proxy is not None and self.max_runtime_proxy <= 0:
            raise ValueError("max_runtime_proxy must be positive")

    @property
    def unlimited(self) -> bool:
        return self.max_runs is None and self.max_runtime_proxy is None


class BudgetTracker:
    """The running ledger one campaign charges against."""

    def __init__(self, budget: Budget):
        self.budget = budget
        self.runs = 0
        self.runtime_proxy = 0.0

    def charge_runs(self, n: int = 1) -> None:
        self.runs += n

    def charge_proxy(self, amount: float) -> None:
        self.runtime_proxy += amount

    @property
    def exhausted(self) -> bool:
        budget = self.budget
        if budget.max_runs is not None and self.runs >= budget.max_runs:
            return True
        return (budget.max_runtime_proxy is not None
                and self.runtime_proxy >= budget.max_runtime_proxy)
