"""The METRICS data miner.

The original system's validation: "mining and sensitivity analyses with
respect to final design QOR enabled prediction of best design-specific
tool option settings" and "METRICS was also used to prescribe
achievable clock frequency for given designs".  Both are reproduced
here on top of the server's run table, using the in-house ML kit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.metrics.server import MetricsServer
from repro.metrics.store import dense_table
from repro.metrics.wrappers import OPTION_METRICS, RunVectorView
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import RidgeRegression
from repro.ml.metrics import r2_score
from repro.ml.scaling import StandardScaler

#: metrics describing the design itself (usable as predictor features)
DESIGN_METRICS = ("synth.instances", "synth.depth", "synth.area")

#: the metric that marks a flow run: every flow reporter (the
#: executor's workers, ``InstrumentedFlow``, the log wrapper) sends the
#: run's target clock, and campaign summaries (``dse.*``), warehouse
#: operations (``warehouse.*``) and jobs that failed before reporting
#: (``exec.*`` only) never do
FLOW_RUN_METRIC = "flow.target_ghz"

#: flow runs a learned answer (recommendation, anomalies) needs
MIN_MINED_RUNS = 8

#: uniform candidate settings the recommendation searches, besides the
#: observed ones
_N_CANDIDATES = 400


@dataclass
class OptionRecommendation:
    """The miner's advice: option settings and their predicted QoR."""

    options: Dict[str, float]
    predicted_objective: float
    model_r2: float


class DataMiner:
    """Learns QoR models from collected runs and answers flow questions.

    ``server`` is anything that answers the store query API — a live
    :class:`MetricsServer` or a warehouse backend
    (:class:`~repro.metrics.store.SqliteStore`) opened directly, so the
    miner can work over *all* prior campaigns, not just this session's.
    ``campaign=`` on the analysis methods narrows any query to one
    campaign; the default mines full history."""

    def __init__(self, server: MetricsServer, seed: Optional[int] = None):
        self.server = server
        self.seed = seed

    # ------------------------------------------------------------------
    def _table(self, design: Optional[str], campaign: Optional[str] = None):
        """The dense run table over the *flow* runs of the selection.

        A campaign also files runs that are not flows under the design
        (its ``dse-*`` summary, a job that failed before reporting);
        their vectors share no metric with a flow's, so the density
        rule of :func:`~repro.metrics.store.dense_table` would empty
        the table if they stayed in it."""
        run_ids, vectors = [], []
        for run_id in self.server.runs(design, campaign=campaign):
            vector = self.server.run_vector(run_id)
            if FLOW_RUN_METRIC in vector:
                run_ids.append(run_id)
                vectors.append(vector)
        if not run_ids:
            raise ValueError("no flow runs collected")
        names, matrix = dense_table(vectors)
        index = {name: i for i, name in enumerate(names)}
        return run_ids, vectors, matrix, index

    def sensitivity(
        self, objective: str = "flow.area", design: Optional[str] = None,
        campaign: Optional[str] = None,
    ) -> Dict[str, float]:
        """|correlation| of each option metric with the objective.

        The simple screen the original METRICS ran: which knobs move
        this design's QoR at all?"""
        _, _, matrix, index = self._table(design, campaign)
        if objective not in index:
            raise KeyError(f"objective {objective!r} not collected")
        y = matrix[:, index[objective]]
        out = {}
        for option, _ in OPTION_METRICS:
            if option not in index:
                continue
            x = matrix[:, index[option]]
            if np.std(x) == 0 or np.std(y) == 0:
                out[option] = 0.0
            else:
                out[option] = float(abs(np.corrcoef(x, y)[0, 1]))
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    # ------------------------------------------------------------------
    def recommend_options(
        self,
        objective="area",
        design: Optional[str] = None,
        campaign: Optional[str] = None,
    ) -> OptionRecommendation:
        """Best option settings for an engine objective (a name of
        :data:`~repro.dse.objective.OBJECTIVES` or an instance), from a
        learned model.

        Fits a random forest (options -> ``objective.value``) on every
        collected flow run whose value is finite, failed runs included,
        each read through its :class:`~repro.metrics.wrappers.RunVectorView`
        (a ``pareto`` value is ``-inf`` for a failed run, so only its
        successful runs train it); a second forest on ``flow.success``,
        over every flow run, rejects candidates predicted to fail.  The
        search keeps the predicted minimum of a ``"min"`` objective and
        the maximum of a ``"max"`` one, over candidate settings drawn
        from the observed option ranges plus the observed settings."""
        from repro.dse.objective import resolve_objective

        objective = resolve_objective(objective)
        _, vectors, matrix, index = self._table(design, campaign)
        present = [o for o, _ in OPTION_METRICS if o in index]
        if not present:
            raise ValueError("no option metrics collected")
        try:
            y = np.array([objective.value(RunVectorView(v)) for v in vectors])
        except KeyError:
            raise KeyError(f"objective {objective.name!r} not collected") from None
        trained = np.isfinite(y)
        if trained.sum() < MIN_MINED_RUNS:
            raise ValueError(
                f"need at least {MIN_MINED_RUNS} runs with a finite "
                f"{objective.name!r} to mine recommendations")
        X = matrix[:, [index[o] for o in present]]
        y = y[trained]
        model = RandomForestRegressor(n_estimators=40, max_depth=6, random_state=self.seed)
        model.fit(X[trained], y)
        r2 = r2_score(y, model.predict(X[trained]))

        success_model = None
        if "flow.success" in index:
            s = matrix[:, index["flow.success"]]
            if 0.0 < s.mean() < 1.0:
                success_model = RandomForestRegressor(
                    n_estimators=40, max_depth=6, random_state=self.seed
                )
                success_model.fit(X, s)

        rng = np.random.default_rng(self.seed)
        lo, hi = X.min(axis=0), X.max(axis=0)
        candidates = rng.uniform(lo, hi, size=(_N_CANDIDATES, X.shape[1]))
        # include the observed settings themselves
        candidates = np.vstack([candidates, X])
        pred = model.predict(candidates)
        minimize = objective.direction == "min"
        if success_model is not None:
            ok = success_model.predict(candidates) >= 0.5
            if ok.any():
                pred = np.where(ok, pred, np.inf if minimize else -np.inf)
        best = int(np.argmin(pred) if minimize else np.argmax(pred))
        return OptionRecommendation(
            options=dict(zip(present, candidates[best].tolist())),
            predicted_objective=float(pred[best]),
            model_r2=r2,
        )

    # ------------------------------------------------------------------
    def flag_anomalies(
        self,
        objective: str = "flow.area",
        design: Optional[str] = None,
        z_threshold: float = 3.0,
        campaign: Optional[str] = None,
    ) -> Dict[str, float]:
        """Runs whose objective deviates wildly from the learned model.

        The METRICS retrospective's "measure, to improve": a run whose
        QoR the option->QoR model cannot explain is either tool noise
        worth investigating or a setup mistake.  Returns
        {run_id: z-score} for flagged runs.
        """
        if z_threshold <= 0:
            raise ValueError("z_threshold must be positive")
        run_ids, _, matrix, index = self._table(design, campaign)
        present = [o for o, _ in OPTION_METRICS if o in index]
        if objective not in index or len(present) < 1:
            raise ValueError("server lacks the metrics needed for anomaly analysis")
        if len(run_ids) < MIN_MINED_RUNS:
            raise ValueError(f"need at least {MIN_MINED_RUNS} runs")
        X = matrix[:, [index[o] for o in present]]
        y = matrix[:, index[objective]]
        model = RandomForestRegressor(n_estimators=40, max_depth=6, random_state=self.seed)
        model.fit(X, y)
        residuals = y - model.predict(X)
        scale = float(np.std(residuals))
        if scale == 0.0:
            return {}
        z = residuals / scale
        return {
            run_ids[i]: float(z[i])
            for i in range(len(run_ids))
            if abs(z[i]) > z_threshold
        }

    # ------------------------------------------------------------------
    def prescribe_frequency(
        self, design_features: Dict[str, float], quantile: float = 0.5
    ) -> float:
        """Achievable clock frequency for a new design (METRICS
        validation use-case: clock planning guidance from the database).

        Fits achieved frequency against design-descriptor metrics over
        *successful* runs of all designs, then predicts for the given
        feature vector.  ``quantile`` shifts the prescription
        conservative (<0.5) or aggressive (>0.5) using the residual
        distribution."""
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        _, _, matrix, index = self._table(None)
        needed = [m for m in DESIGN_METRICS if m in index]
        if len(needed) < 2 or "flow.achieved_ghz" not in index:
            raise ValueError("server lacks the metrics needed for prescription")
        success = matrix[:, index["flow.success"]] > 0.5 if "flow.success" in index else np.ones(matrix.shape[0], bool)
        X = matrix[np.ix_(success, [index[m] for m in needed])]
        y = matrix[success, index["flow.achieved_ghz"]]
        if X.shape[0] < 5:
            raise ValueError("need at least 5 successful runs")
        scaler = StandardScaler()
        model = RidgeRegression(alpha=1.0)
        model.fit(scaler.fit_transform(X), y)
        residuals = y - model.predict(scaler.transform(X))
        query = np.array([[design_features[m] for m in needed]])
        base = float(model.predict(scaler.transform(query))[0])
        return base + float(np.quantile(residuals, quantile))
