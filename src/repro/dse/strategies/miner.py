"""The "miner" strategy: METRICS 2.0's closed loop (paper Sec 4, Fig 11).

The paper's retrospective item (iii): "a reimplementation of METRICS
should feed predictions and guidance back into the design flow, which
would then adapt tool/flow parameters midstream without human
intervention."  This strategy is that loop: a seed batch of
exploratory runs populates the METRICS server, then every further run
applies the data miner's recommendation for the campaign objective,
mined again after each result.

It mines ``ctx.server``, the server behind the executor's metrics
collector, which is the only reporting path: a campaign without a
collector is rejected before any run, and the server is flushed before
every recommendation.  Settings and run seeds come from the campaign
rng in a fixed order (per seed point: five uniforms in the exploratory
ranges, the target scale, then the run seed; then one run seed per
adaptive run), so a campaign is bit-identical at any worker count.
The seed batch runs across the executor's workers; adaptive runs are
sequential, since each needs the previous result mined.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.parallel import FlowJob
from repro.dse.registry import Strategy, register_strategy
from repro.dse.result import DSEResult
from repro.dse.strategies.runs import record_run
from repro.eda.flow import FlowOptions
from repro.metrics.miner import FLOW_RUN_METRIC, MIN_MINED_RUNS, DataMiner
from repro.metrics.wrappers import OPTION_METRICS

#: FlowOptions field -> the range a mined value is clipped to
_ATTR_BOUNDS = {
    "synth_effort": (0.0, 1.0),
    "utilization": (0.4, 0.9),
    "cts_effort": (0.0, 1.0),
    "router_effort": (0.2, 1.0),
    "opt_guardband": (0.0, 120.0),
    "target_clock_ghz": (0.1, 2.0),
}


@register_strategy
class MinerStrategy(Strategy):
    """Seed batch, then one run per miner recommendation.

    Params: ``n_seed`` (exploratory runs, default 10), ``n_adaptive``
    (miner-guided runs, 6) and ``base_options`` (the settings the
    exploratory ranges scale and the recommendations update, default
    ``FlowOptions()``).  Flow runs of the design already in the server
    (earlier campaigns in a warehouse) count toward the miner's
    eight-run minimum.  ``DSEResult.records`` holds every run's outcome
    in run order, so ``records[:n_seed]`` is the seed phase.
    """

    name = "miner"

    def run(self, task, ctx) -> DSEResult:
        n_seed = int(ctx.params.get("n_seed", 10))
        n_adaptive = int(ctx.params.get("n_adaptive", 6))
        base = ctx.params.get("base_options") or FlowOptions()
        server = ctx.server
        if server is None:
            raise ValueError("the miner strategy mines the METRICS server: "
                             "run it on an executor with a MetricsCollector")
        prior = {record.run_id for record in
                 server.query(design=task.name, metric=FLOW_RUN_METRIC)}
        if n_seed + len(prior) < MIN_MINED_RUNS:
            raise ValueError(
                f"need at least {MIN_MINED_RUNS} seed runs for the miner "
                f"(the server holds {len(prior)} flow runs of this design)"
            )
        rng = np.random.default_rng(ctx.seed)
        seed_points: List[Tuple[FlowOptions, int]] = []
        for _ in range(n_seed):
            options = base.with_(
                synth_effort=float(rng.uniform(0.2, 0.9)),
                utilization=float(rng.uniform(0.55, 0.85)),
                cts_effort=float(rng.uniform(0.3, 0.9)),
                router_effort=float(rng.uniform(0.4, 0.9)),
                opt_guardband=float(rng.uniform(0.0, 50.0)),
                target_clock_ghz=float(
                    base.target_clock_ghz * rng.uniform(0.85, 1.1)
                ),
            )
            seed_points.append((options, int(rng.integers(0, 2**31 - 1))))

        objective = ctx.objective
        executor = ctx.get_executor()
        result = DSEResult(method=self.name, objective=objective.name,
                           best_score=-np.inf)
        best_key = -np.inf

        def run_batch(points: List[Tuple[FlowOptions, int]]) -> None:
            nonlocal best_key
            jobs = [FlowJob(task, options, seed) for options, seed in points]
            for run in executor.run_jobs(jobs, stop_callback=ctx.stop_callback):
                result.records.append(run)
                best_key = record_run(result, ctx, run, best_key)

        if not ctx.tracker.exhausted:
            run_batch(seed_points)
        for _ in range(n_adaptive):
            if ctx.tracker.exhausted:
                break
            advice = DataMiner(ctx.server, seed=ctx.seed).recommend_options(
                objective=objective, design=task.name)
            run_batch([(_materialize(base, advice.options),
                        int(rng.integers(0, 2**31 - 1)))])
        return result


def _materialize(base: FlowOptions, mined: Dict[str, float]) -> FlowOptions:
    """``base`` with each mined setting, clipped to its bounds."""
    return base.with_(**{
        attr: float(np.clip(mined[metric], *_ATTR_BOUNDS[attr]))
        for metric, attr in OPTION_METRICS if metric in mined
    })
