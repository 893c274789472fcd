"""The "explorer" strategy: GWTW over whole flow trajectories.

Stage 2 of the paper's ML insertion (Fig 5(b)): ``n_concurrent`` flow
trajectories run per round and perturbed copies of the winners replace
the losers.  With a kill policy it is stage 3 as well: doomed runs
release their licenses early.  Without a surrogate the rng stream is
fixed: trajectories sample in slot order, per-round run seeds are
pre-drawn before any launch, and each refill perturbation costs
exactly three rng draws, so a campaign is bit-identical at any worker
count and with or without caches.  A surrogate changes the draw
pattern (several candidate perturbations per refill slot), so it is
opt-in per campaign.

With an executor's ``stage_cache=True`` a fresh seed per slot per round
changes every stage's derived step seeds, so the prefix cache only pays
off here on revisited ``(trajectory, seed)`` points, like the whole-run
cache; the engine's ``runtime_proxy_executed`` and ``stage_hits``
report the saved work either way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.parallel import FlowExecutionError, FlowJob
from repro.core.parallel.executor import _kill_proxy_saved
from repro.dse.registry import Strategy, register_strategy
from repro.dse.result import DSEResult
from repro.eda.flow import FlowResult


@register_strategy
class TrajectoryStrategy(Strategy):
    """Clone-the-winners search over the flow-option tree.

    Params: ``n_concurrent`` (licenses per round, >= 2, default 5),
    ``n_rounds`` (6), ``survivor_fraction`` in (0, 1) (0.4).
    """

    name = "explorer"

    def run(self, task, ctx) -> DSEResult:
        n_concurrent = int(ctx.params.get("n_concurrent", 5))
        n_rounds = int(ctx.params.get("n_rounds", 6))
        survivor_fraction = float(ctx.params.get("survivor_fraction", 0.4))
        if n_concurrent < 2:
            raise ValueError("need at least 2 concurrent runs to clone winners")
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if not 0.0 < survivor_fraction < 1.0:
            raise ValueError("survivor_fraction must be in (0, 1)")
        space, objective = ctx.space, ctx.objective
        rng = np.random.default_rng(ctx.seed)
        executor = ctx.get_executor()
        trajectories = [space.sample(rng) for _ in range(n_concurrent)]
        result = DSEResult(method=self.name, objective=objective.name,
                           best_score=-np.inf)
        best_key = -np.inf
        front: List[FlowResult] = []
        for _ in range(n_rounds):
            if ctx.tracker.exhausted:
                break
            # seeds drawn in slot order *before* launching keep the rng
            # stream independent of the worker count
            seeds = [int(rng.integers(0, 2**31 - 1)) for _ in trajectories]
            jobs = [
                FlowJob(task, space.to_flow_options(trajectory), job_seed)
                for trajectory, job_seed in zip(trajectories, seeds)
            ]
            outcomes = executor.run_jobs(jobs, stop_callback=ctx.stop_callback)
            scored: List[Tuple[float, Dict, Optional[FlowResult]]] = []
            for trajectory, run in zip(trajectories, outcomes):
                result.n_runs += 1
                ctx.tracker.charge_runs(1)
                if isinstance(run, FlowExecutionError):
                    result.n_failed += 1
                    result.failures.append(run)
                    scored.append((-np.inf, trajectory, None))
                    continue
                result.total_runtime_proxy += run.runtime_proxy
                ctx.tracker.charge_proxy(run.runtime_proxy)
                if _kill_proxy_saved(run) is not None:
                    result.n_pruned += 1
                key = objective.key(run)
                scored.append((key, trajectory, run))
                front = objective.update_front(front, run)
                if ctx.surrogate is not None:
                    ctx.surrogate.observe(
                        ctx.surrogate.point_features(space, trajectory), key)
            scored.sort(key=lambda t: t[0], reverse=True)
            if scored[0][0] > best_key:
                best_key = scored[0][0]
                result.best_result = scored[0][2]
                result.best_score = (objective.value(scored[0][2])
                                     if scored[0][2] is not None else scored[0][0])
            result.trace.append(result.best_score)
            if ctx.surrogate is not None:
                ctx.surrogate.maybe_fit(server=ctx.server,
                                        objective_name=objective.name)
            # winners survive; losers are replaced by perturbed winners
            n_survive = max(1, int(n_concurrent * survivor_fraction))
            survivors = [t for _, t, _ in scored[:n_survive]]
            trajectories = list(survivors)
            while len(trajectories) < n_concurrent:
                donor = survivors[int(rng.integers(0, len(survivors)))]
                if ctx.surrogate is not None and ctx.surrogate.ready:
                    trajectories.append(ctx.surrogate.propose(space, donor, rng))
                else:
                    trajectories.append(space.perturb(donor, rng))
        result.pareto = front
        return result
