"""Surrogate-guided candidate proposal (EDALearn-style guidance).

Mid-campaign, a :class:`SurrogateProposer` fits a ``repro.ml`` forest
or GBM regressor mapping option settings to the objective's ranking
key, then biases candidate generation: instead of one blind
perturbation per refill slot, several are drawn and the model's argmax
is kept.  Training rows come from the campaign's METRICS run vectors
when a :class:`~repro.metrics.MetricsServer` is collecting (the
schema'd ``option.*``/``flow.*`` metrics), else from the in-memory
observations the strategy feeds it.

The proposer is deterministic: models are seeded, candidate draws come
from the campaign rng, and ties break on the first candidate — but a
surrogate-guided campaign consumes a *different* rng stream than a
blind one, so it is opt-in per campaign (``DSEEngine(surrogate=...)``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor

#: (metric name in a run vector, FlowOptions field) — the feature basis
FEATURE_METRICS = (
    ("flow.target_ghz", "target_clock_ghz"),
    ("option.synth_effort", "synth_effort"),
    ("option.utilization", "utilization"),
    ("option.cts_effort", "cts_effort"),
    ("option.router_effort", "router_effort"),
    ("option.opt_guardband", "opt_guardband"),
)


def _vector_key(vector: Dict[str, float], objective_name: str) -> Optional[float]:
    """A run vector's higher-is-better objective key, or None when the
    vector cannot express this objective (then the proposer falls back
    to its in-memory observations)."""
    success = vector.get("flow.success", 0.0) > 0.5
    if objective_name == "score":
        area = vector.get("flow.area")
        ghz = vector.get("flow.achieved_ghz")
        if area is None or ghz is None:
            return None
        if success:
            return ghz * 1000.0 / max(1.0, area)
        wns = vector.get("signoff.wns", 0.0)
        drvs = vector.get("droute.final_drvs", 0.0)
        return -(min(1.0, -min(0.0, wns) / 1000.0) + min(1.0, drvs / 10000.0))
    if not success:
        return None  # constrained objectives train on successful runs only
    if objective_name == "area":
        area = vector.get("flow.area")
        return None if area is None else -area
    if objective_name == "power":
        power = vector.get("signoff.power")
        return None if power is None else -power
    if objective_name == "wns":
        return vector.get("signoff.wns")
    if objective_name == "frequency":
        return vector.get("flow.achieved_ghz")
    return None


class SurrogateProposer:
    """Train-on-the-fly surrogate that biases perturbation proposals."""

    def __init__(self, model: str = "forest", min_fit: int = 8,
                 n_candidates: int = 8, random_state: int = 0):
        if model not in ("forest", "gbm"):
            raise ValueError("model must be 'forest' or 'gbm'")
        if min_fit < 4:
            raise ValueError("min_fit must be >= 4")
        if n_candidates < 2:
            raise ValueError("n_candidates must be >= 2")
        self.model_kind = model
        self.min_fit = min_fit
        self.n_candidates = n_candidates
        self.random_state = random_state
        self._X: List[List[float]] = []
        self._y: List[float] = []
        self._model = None
        self._fit_rows = 0
        self.fit_score: Optional[float] = None  # training r2 of last fit
        self.n_fits = 0
        self.n_proposals = 0

    # ------------------------------------------------------------ features
    def point_features(self, space, point: Dict[str, object]) -> List[float]:
        """A search-space point in the fixed option-metric basis."""
        options = space.to_flow_options(point)
        return [float(getattr(options, attr)) for _, attr in FEATURE_METRICS]

    # ------------------------------------------------------------ training
    def observe(self, features: Sequence[float], key: float) -> None:
        """Record one (settings, objective key) pair from the campaign."""
        if np.isfinite(key):
            self._X.append([float(f) for f in features])
            self._y.append(float(key))

    def _server_rows(self, server, objective_name: str, design=None,
                     campaign=None, since=None):
        kwargs = {}
        if campaign is not None:
            kwargs["campaign"] = campaign
        if since is not None:
            kwargs["since"] = since
        X, y = [], []
        for run_id in server.runs(design, **kwargs):
            vector = server.run_vector(run_id)
            if any(metric not in vector for metric, _ in FEATURE_METRICS):
                continue
            key = _vector_key(vector, objective_name)
            if key is None or not np.isfinite(key):
                continue
            X.append([float(vector[metric]) for metric, _ in FEATURE_METRICS])
            y.append(float(key))
        return X, y

    def maybe_fit(self, server=None, objective_name: str = "score",
                  design=None) -> bool:
        """(Re)fit when enough new rows exist; returns True on a fit."""
        if server is not None:
            X, y = self._server_rows(server, objective_name, design)
            if len(X) < self.min_fit:
                X, y = self._X, self._y
        else:
            X, y = self._X, self._y
        return self._fit_rows_if_fresh(X, y)

    def fit_from_store(self, store, objective_name: str = "score",
                       design=None, campaign=None, since=None) -> bool:
        """Train on the full archive of a metrics store (all campaigns
        by default, or one design/campaign/since slice); returns True
        when a model was fitted.  Unlike :meth:`maybe_fit` there is no
        in-memory fallback — the warehouse is the corpus."""
        X, y = self._server_rows(store, objective_name, design,
                                 campaign=campaign, since=since)
        if len(X) < self.min_fit:
            return False
        return self._fit_rows_if_fresh(X, y)

    def _fit_rows_if_fresh(self, X, y) -> bool:
        if len(X) < self.min_fit or len(X) == self._fit_rows:
            return False
        if self.model_kind == "forest":
            model = RandomForestRegressor(
                n_estimators=24, max_depth=6, random_state=self.random_state)
        else:
            model = GradientBoostingRegressor(
                n_estimators=60, max_depth=3, random_state=self.random_state)
        arr_X = np.asarray(X, dtype=float)
        arr_y = np.asarray(y, dtype=float)
        model.fit(arr_X, arr_y)
        predicted = np.asarray(model.predict(arr_X), dtype=float)
        ss_res = float(np.sum((arr_y - predicted) ** 2))
        ss_tot = float(np.sum((arr_y - arr_y.mean()) ** 2))
        self.fit_score = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
        self._model = model
        self._fit_rows = len(X)
        self.n_fits += 1
        return True

    @property
    def ready(self) -> bool:
        return self._model is not None

    # ------------------------------------------------------------ proposal
    def propose(self, space, donor: Dict[str, object],
                rng: np.random.Generator) -> Dict[str, object]:
        """The predicted-best of ``n_candidates`` perturbations of
        ``donor`` (ties keep the earliest candidate)."""
        if self._model is None:
            return space.perturb(donor, rng)
        candidates = [space.perturb(donor, rng)
                      for _ in range(self.n_candidates)]
        X = np.asarray([self.point_features(space, c) for c in candidates])
        predicted = np.asarray(self._model.predict(X), dtype=float)
        self.n_proposals += 1
        return candidates[int(np.argmax(predicted))]
