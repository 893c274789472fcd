"""Campaign budgets: runs, simulated tool cost, wall clock.

A :class:`Budget` declares the limits; a :class:`BudgetTracker` is the
mutable per-campaign ledger strategies charge against.  All limits are
optional — the default budget is unlimited, in which case a campaign
is bounded by its strategy's own round/iteration counts.

Determinism note: only ``max_wall_s`` consults the clock, and
strategies check it *between* batches — a wall-exhausted campaign stops
at a batch boundary, so the runs it did execute are still bit-identical
at any worker count; only how many batches ran may differ by machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Budget:
    """Declarative campaign limits (None = unlimited).

    ``max_runs`` counts charged work units — flow runs for flow
    strategies, local searches for multistart, thread-stages for the
    annealing strategies.  ``max_runtime_proxy`` bounds the summed
    simulated tool cost of delivered results, the machine-independent
    runtime currency of the substrate.
    """

    max_runs: Optional[int] = None
    max_runtime_proxy: Optional[float] = None
    max_wall_s: Optional[float] = None

    def __post_init__(self):
        if self.max_runs is not None and self.max_runs < 1:
            raise ValueError("max_runs must be >= 1")
        if self.max_runtime_proxy is not None and self.max_runtime_proxy <= 0:
            raise ValueError("max_runtime_proxy must be positive")
        if self.max_wall_s is not None and self.max_wall_s <= 0:
            raise ValueError("max_wall_s must be positive")

    @property
    def unlimited(self) -> bool:
        return (self.max_runs is None and self.max_runtime_proxy is None
                and self.max_wall_s is None)


class BudgetTracker:
    """The running ledger one campaign charges against."""

    def __init__(self, budget: Budget):
        self.budget = budget
        self.runs = 0
        self.runtime_proxy = 0.0
        self._t0 = time.perf_counter()

    def charge_runs(self, n: int = 1) -> None:
        self.runs += n

    def charge_proxy(self, amount: float) -> None:
        self.runtime_proxy += amount

    @property
    def wall_s(self) -> float:
        return time.perf_counter() - self._t0

    @property
    def exhausted(self) -> bool:
        budget = self.budget
        if budget.max_runs is not None and self.runs >= budget.max_runs:
            return True
        if (budget.max_runtime_proxy is not None
                and self.runtime_proxy >= budget.max_runtime_proxy):
            return True
        if budget.max_wall_s is not None and self.wall_s >= budget.max_wall_s:
            return True
        return False
