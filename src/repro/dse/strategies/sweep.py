"""The "sweep" strategy: evaluate an explicit candidate list.

Unlike the adaptive strategies, a sweep's candidate set is fixed up
front — either passed verbatim via ``params["points"]`` or enumerated
from the search space — and every point gets exactly one flow run with
a seed pre-drawn from the campaign rng in point order.  Because the
evaluated set does not depend on run outcomes, two sweeps over the
same points and seed are directly comparable run for run: this is the
strategy the kill-policy benchmark uses to show runtime saved at
identical QoR.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.parallel import FlowExecutionError, FlowJob
from repro.dse.registry import Strategy, register_strategy
from repro.dse.result import DSEResult
from repro.eda.flow import FlowResult


@register_strategy
class SweepStrategy(Strategy):
    """One run per candidate point, in batches of ``n_concurrent``.

    Params: ``points`` (list of search-space dicts; default enumerates
    the space), ``limit`` (enumeration cap, default 64) and
    ``n_concurrent`` (batch width, default 5).
    """

    name = "sweep"

    def run(self, task, ctx) -> DSEResult:
        n_concurrent = int(ctx.params.get("n_concurrent", 5))
        if n_concurrent < 1:
            raise ValueError("n_concurrent must be >= 1")
        space, objective = ctx.space, ctx.objective
        points = ctx.params.get("points")
        if points is None:
            points = space.enumerate(limit=int(ctx.params.get("limit", 64)))
        points = [dict(p) for p in points]
        if not points:
            raise ValueError("sweep needs at least one candidate point")
        rng = np.random.default_rng(ctx.seed)
        # all seeds pre-drawn in point order: the executed set is fixed
        # before any outcome is known
        seeds = [int(rng.integers(0, 2**31 - 1)) for _ in points]
        executor = ctx.get_executor()
        result = DSEResult(method=self.name, objective=objective.name,
                           best_score=-np.inf, n_concurrent=n_concurrent)
        best_key = -np.inf
        front: List[FlowResult] = []
        for lo in range(0, len(points), n_concurrent):
            if ctx.tracker.exhausted:
                break
            batch = points[lo:lo + n_concurrent]
            jobs = [
                FlowJob(task, space.to_flow_options(point), seed)
                for point, seed in zip(batch, seeds[lo:lo + n_concurrent])
            ]
            outcomes = executor.run_jobs(jobs, stop_callback=ctx.stop_callback)
            for point, run in zip(batch, outcomes):
                result.n_runs += 1
                ctx.tracker.charge_runs(1)
                if isinstance(run, FlowExecutionError):
                    result.n_failed += 1
                    result.failures.append(run)
                    result.all_scores.append(-np.inf)
                    continue
                result.total_runtime_proxy += run.runtime_proxy
                ctx.tracker.charge_proxy(run.runtime_proxy)
                key = objective.key(run)
                result.all_scores.append(key)
                front = objective.update_front(front, run)
                if ctx.surrogate is not None:
                    ctx.surrogate.observe(
                        ctx.surrogate.point_features(space, point), key)
                if key > best_key:
                    best_key = key
                    result.best_result = run
                    result.best_score = objective.value(run)
                result.trace.append(result.best_score)
        result.pareto = front
        return result
