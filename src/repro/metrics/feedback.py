"""The feedback path: predictions drive the flow without a human.

The paper's retrospective item (iii): "a reimplementation of METRICS
should feed predictions and guidance back into the design flow, which
would then adapt tool/flow parameters midstream without human
intervention."  :class:`AdaptiveFlowSession` is that loop: seed runs
populate the server, the miner recommends settings, the flow runs them,
and each result immediately improves the next recommendation.

Runs go through a :class:`~repro.core.parallel.FlowExecutor` (a
private serial one when the caller passes none): the seed phase runs as
one batch across its workers (adaptive runs stay sequential — each
needs the miner refreshed with the previous result).  Option settings
and run seeds are drawn from the session rng in a fixed order, so
campaign results are bit-identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.parallel import FlowExecutionError, FlowExecutor, FlowJob
from repro.eda.flow import FlowOptions, FlowResult
from repro.eda.synthesis import DesignSpec
from repro.metrics.miner import DataMiner
from repro.metrics.server import MetricsServer
from repro.metrics.transmitter import Transmitter
from repro.metrics.wrappers import make_run_id, report_flow_metrics

#: miner option names -> FlowOptions attributes
_OPTION_ATTR = {
    "option.synth_effort": "synth_effort",
    "option.utilization": "utilization",
    "option.cts_effort": "cts_effort",
    "option.router_effort": "router_effort",
    "option.opt_guardband": "opt_guardband",
    "flow.target_ghz": "target_clock_ghz",
}

#: objectives recoverable straight off a FlowResult when the server has
#: no record (e.g. histories built before metrics collection existed)
_RESULT_FALLBACK = {
    "flow.area": lambda r: r.area,
    "flow.achieved_ghz": lambda r: r.achieved_ghz,
    "flow.runtime": lambda r: r.runtime_proxy,
    "signoff.power": lambda r: r.power,
    "signoff.wns": lambda r: r.wns,
    "signoff.tns": lambda r: r.tns,
}


@dataclass
class AdaptiveFlowSession:
    """A self-improving flow campaign on one design.

    ``run_campaign`` executes ``n_seed`` exploratory runs (random
    settings in sensible ranges) followed by ``n_adaptive`` runs at the
    miner's recommendation, refreshed after every result.
    """

    spec: DesignSpec
    objective: str = "flow.area"
    minimize: bool = True
    server: MetricsServer = field(default_factory=MetricsServer)
    seed: int = 0
    history: List[FlowResult] = field(default_factory=list)
    run_ids: List[str] = field(default_factory=list)  # parallel to history
    failures: List[Exception] = field(default_factory=list)
    n_seed_runs: int = 0  # set by run_campaign; history[:n_seed_runs] are seeds

    def run_campaign(
        self,
        n_seed: int = 10,
        n_adaptive: int = 6,
        base_options: Optional[FlowOptions] = None,
        executor=None,
    ) -> FlowResult:
        """Returns the best successful result (or the best overall).

        With an ``executor`` (:class:`~repro.core.parallel.FlowExecutor`),
        seed runs execute as one batch across its workers; without one
        they run on a private serial executor with no result cache.  If
        the executor carries a :class:`~repro.metrics.MetricsCollector`,
        it must feed this session's server (worker-side reporting); bare
        executors are reported coordinator-side instead.  A run that
        fails to execute lands in ``failures`` and the campaign goes on.

        When the session's server is warehouse-backed and already holds
        prior runs of this design (earlier campaigns), those runs count
        toward the miner's minimum — a session resuming over history may
        seed with fewer (even zero) fresh exploratory runs.
        """
        prior_runs = len(self._prior_design_runs())
        if n_seed + prior_runs < 8:
            raise ValueError(
                "need at least 8 seed runs for the miner "
                f"(warehouse holds {prior_runs} prior runs of this design)"
            )
        if executor is None:
            executor = FlowExecutor(n_workers=1, cache=None)
        elif (executor.collector is not None
                and executor.collector.server is not self.server):
            raise ValueError(
                "executor's metrics collector must feed this session's server"
            )
        rng = np.random.default_rng(self.seed)
        base = base_options or FlowOptions()

        # all settings and run seeds are drawn before anything executes,
        # in the exact draw order of the historical serial loop
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
        self._run_points(seed_points, executor)
        self.n_seed_runs = len(self.history)

        miner = DataMiner(self.server, seed=self.seed)
        minimize = self._effective_minimize()
        for _ in range(n_adaptive):
            self._sync_collector(executor)
            rec = miner.recommend_options(
                objective=self.objective,
                minimize=minimize,
                design=self.spec.name,
            )
            options = self._materialize(base, rec.options)
            self._run_points(
                [(options, int(rng.integers(0, 2**31 - 1)))], executor
            )
        self._sync_collector(executor)
        return self.best_result()

    # ------------------------------------------------------------------
    def _prior_design_runs(self) -> List[str]:
        """Run ids of this design already in the server's store — history
        from earlier campaigns when the store is a warehouse."""
        try:
            return self.server.runs(self.spec.name)
        except Exception:  # noqa: BLE001 - a cold/empty store has no history
            return []

    def _run_points(self, points, executor) -> None:
        """Execute (options, seed) points and record results + run ids."""
        jobs = [FlowJob(self.spec, options, s) for options, s in points]
        report_here = executor.collector is None
        for (options, run_seed), outcome in zip(points, executor.run_jobs(jobs)):
            if isinstance(outcome, FlowExecutionError):
                self.failures.append(outcome)  # recorded, campaign continues
                continue
            run_id = make_run_id(self.spec, options, run_seed)
            if report_here:
                with Transmitter(self.server, outcome.design, run_id,
                                 tool="spr_flow") as tx:
                    report_flow_metrics(tx, outcome)
            self.history.append(outcome)
            self.run_ids.append(run_id)

    @staticmethod
    def _sync_collector(executor) -> None:
        """Wait for in-flight worker records before mining the server."""
        if executor.collector is not None:
            executor.collector.flush()

    def _materialize(self, base: FlowOptions, mined: Dict[str, float]) -> FlowOptions:
        updates = {}
        for metric, attr in _OPTION_ATTR.items():
            if metric in mined:
                updates[attr] = float(np.clip(
                    mined[metric],
                    *_ATTR_BOUNDS[attr],
                ))
        return base.with_(**updates)

    # ------------------------------------------------------------------
    def _effective_minimize(self) -> bool:
        """Achieved frequency is always a maximize objective (kept from
        the historical special case); everything else honors the flag."""
        if self.objective == "flow.achieved_ghz":
            return False
        return self.minimize

    def _objective_of(self, index: int) -> float:
        """The configured objective's value for ``history[index]``,
        preferring the server's run vector over result attributes."""
        if index < len(self.run_ids):
            try:
                vec = self.server.run_vector(self.run_ids[index])
            except KeyError:
                vec = {}
            if self.objective in vec:
                return float(vec[self.objective])
        extract = _RESULT_FALLBACK.get(self.objective)
        if extract is None:
            raise KeyError(
                f"objective {self.objective!r} not collected for run {index}"
            )
        return float(extract(self.history[index]))

    def best_result(self) -> FlowResult:
        """The best run by the configured objective (successful runs
        preferred), ranked on the server's collected run vectors."""
        if not self.history:
            raise RuntimeError("campaign has not run")
        indices = [i for i, r in enumerate(self.history) if r.success]
        pool = indices or list(range(len(self.history)))
        sign = 1.0 if self._effective_minimize() else -1.0
        best = min(pool, key=lambda i: sign * self._objective_of(i))
        return self.history[best]

    def improvement(self) -> float:
        """Best adaptive-phase objective over best seed-phase objective,
        over successful runs (< 1.0 means the feedback loop helped,
        whatever the objective's direction)."""
        if self.n_seed_runs == 0 or len(self.history) <= self.n_seed_runs:
            raise RuntimeError("campaign has not run")
        seeds = [i for i in range(self.n_seed_runs) if self.history[i].success]
        adaptive = [i for i in range(self.n_seed_runs, len(self.history))
                    if self.history[i].success]
        if not seeds or not adaptive:
            return 1.0
        if self._effective_minimize():
            numerator = min(self._objective_of(i) for i in adaptive)
            denominator = min(self._objective_of(i) for i in seeds)
        else:  # maximize: invert the ratio so < 1.0 still means "helped"
            numerator = max(self._objective_of(i) for i in seeds)
            denominator = max(self._objective_of(i) for i in adaptive)
        if denominator == 0.0:
            return 1.0
        return numerator / denominator


_ATTR_BOUNDS = {
    "synth_effort": (0.0, 1.0),
    "utilization": (0.4, 0.9),
    "cts_effort": (0.0, 1.0),
    "router_effort": (0.2, 1.0),
    "opt_guardband": (0.0, 120.0),
    "target_clock_ghz": (0.1, 2.0),
}
