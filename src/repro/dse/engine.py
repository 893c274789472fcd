"""The declarative design-space-exploration engine.

One entrypoint for every searcher: a :class:`DSEEngine` binds a
:class:`~repro.dse.space.SearchSpace`, an
:class:`~repro.dse.objective.Objective`, a :class:`~repro.dse.budget.Budget`
and a registered strategy, runs the campaign, and returns a
:class:`~repro.dse.result.DSEResult`.  Strategy parameters (rounds,
threads, iterations ...) travel in ``params``; each strategy documents
its keys and defaults.

Two campaign-level services plug in here rather than per strategy:

* an optional online **kill policy** (:mod:`repro.dse.kill`) becomes
  the executor ``stop_callback`` — doomed runs are terminated
  mid-route;
* the executor's accounting (kills and the proxy they saved, the work
  actually executed, stage-cache hits) is read back from
  :class:`~repro.core.parallel.ExecutorStats` into the result as this
  campaign's deltas, whatever the strategy;
* an optional **surrogate proposer** (:mod:`repro.dse.surrogate`)
  trains on the campaign's METRICS run vectors and biases candidate
  generation in the strategies that refill populations.

When the engine's executor carries a metrics collector, the campaign
summary is emitted as first-class ``dse.*`` records.
"""

from __future__ import annotations

import math
from copy import copy
from typing import Callable, Dict, Optional

from repro.core.parallel import ExecutorStats
from repro.dse.budget import Budget, BudgetTracker
from repro.dse.objective import Objective, resolve_objective
from repro.dse.registry import get_strategy, load_builtin_strategies
from repro.dse.result import DSEResult
from repro.dse.space import SearchSpace, default_flow_space
from repro.dse.surrogate import SurrogateProposer


class DSEContext:
    """Everything a strategy sees: the declarative triple plus the
    campaign's shared services."""

    def __init__(self, space: SearchSpace, objective: Objective,
                 tracker: BudgetTracker, seed, params: Dict,
                 executor=None, stop_callback: Optional[Callable] = None,
                 surrogate: Optional[SurrogateProposer] = None):
        self.space = space
        self.objective = objective
        self.tracker = tracker
        self.seed = seed
        self.params = params
        self.executor = executor
        self.stop_callback = stop_callback
        self.surrogate = surrogate

    def get_executor(self):
        """The campaign executor, creating (and keeping) a serial one
        when the caller supplied none — the engine reads kill stats off
        it after the strategy returns."""
        if self.executor is None:
            from repro.core.parallel import FlowExecutor

            self.executor = FlowExecutor(n_workers=1)
        return self.executor

    @property
    def server(self):
        """The live MetricsServer behind the executor's collector, when
        one is collecting (surrogate training data source).

        The collector is flushed first, so the server holds every
        record of every job that has returned: a surrogate refit at a
        round boundary trains on the same rows at any worker count.  A
        warehouse-backed server exposes *all* persisted campaigns, so a
        refit mid-campaign trains on the full archive, not just this
        session's runs; use
        :meth:`~repro.dse.surrogate.SurrogateProposer.fit_from_store`
        to pre-train before the first round."""
        collector = getattr(self.executor, "collector", None)
        if collector is None:
            return None
        collector.flush()
        return collector.server


class DSEEngine:
    """Declarative campaign runner: space x objective x budget x strategy."""

    def __init__(self, space: Optional[SearchSpace] = None,
                 objective="score", budget: Optional[Budget] = None,
                 strategy: str = "explorer", executor=None,
                 kill_policy: Optional[Callable] = None,
                 surrogate: Optional[SurrogateProposer] = None,
                 params: Optional[Dict] = None):
        load_builtin_strategies()
        self.space = space if space is not None else default_flow_space()
        self.objective = resolve_objective(objective)
        self.budget = budget if budget is not None else Budget()
        self.strategy = get_strategy(strategy)
        self.executor = executor
        self.kill_policy = kill_policy
        self.surrogate = surrogate
        self.params = dict(params or {})

    def run(self, task, seed=0) -> DSEResult:
        """Run the campaign over ``task`` (a DesignSpec for flow
        strategies, a BisectionProblem for landscape ones, or a
        ``(policy, environment)`` pair for the bandit)."""
        tracker = BudgetTracker(self.budget)
        ctx = DSEContext(
            space=self.space,
            objective=self.objective,
            tracker=tracker,
            seed=seed,
            params=self.params,
            executor=self.executor,
            stop_callback=self.kill_policy,
            surrogate=self.surrogate,
        )
        # a strategy may create the executor (get_executor): it starts at zero
        before = ExecutorStats() if ctx.executor is None else copy(ctx.executor.stats)
        result = self.strategy.run(task, ctx)
        if ctx.executor is not None:
            after = ctx.executor.stats
            result.n_killed = after.kills - before.kills
            result.kill_proxy_saved = after.kill_proxy_saved - before.kill_proxy_saved
            result.runtime_proxy_executed = (
                after.runtime_proxy_executed - before.runtime_proxy_executed)
            result.stage_hits = after.stage_hits - before.stage_hits
        if self.surrogate is not None:
            result.surrogate_fit = self.surrogate.fit_score
        self._report(task, seed, result, ctx)
        return result

    # ---------------------------------------------------------------- metrics
    def _report(self, task, seed, result: DSEResult, ctx: DSEContext) -> None:
        """Emit the campaign summary as ``dse.*`` records when the
        executor carries a collector."""
        collector = getattr(ctx.executor, "collector", None)
        if collector is None:
            return
        from repro.metrics.transmitter import Transmitter

        collector.start()
        if isinstance(task, tuple):  # (policy, env): the env's design, if any
            task = getattr(task[1], "spec", None)
        design = getattr(task, "name", None) or "landscape"
        run_id = f"dse-{result.method}-{0 if seed is None else int(seed)}"
        tx = Transmitter(collector.queue, design, run_id, tool="dse")
        tx.send("dse.runs", result.n_runs)
        tx.send("dse.failed", result.n_failed)
        tx.send("dse.pruned", result.n_pruned)
        tx.send("dse.killed", result.n_killed)
        tx.send("dse.kill_proxy_saved", result.kill_proxy_saved)
        tx.send("dse.runtime_proxy", result.total_runtime_proxy)
        if math.isfinite(result.best_score):
            tx.send("dse.best_score", result.best_score)
        if result.surrogate_fit is not None:
            tx.send("dse.surrogate_fit", result.surrogate_fit)
        tx.flush()
