"""Surrogate-guided candidate proposal (EDALearn-style guidance).

Mid-campaign, a :class:`SurrogateProposer` fits a ``repro.ml`` forest
or GBM regressor mapping option settings to the objective's ranking
key, then biases candidate generation: instead of one blind
perturbation per refill slot, several are drawn and the model's argmax
is kept.  Training rows come from the campaign's METRICS run vectors
when a :class:`~repro.metrics.MetricsServer` is collecting (each run's
reported options against ``objective.key`` of its
:class:`~repro.metrics.wrappers.RunVectorView`, the definition live
results are ranked by), else from the in-memory observations the
strategy feeds it.

The proposer is deterministic: models are seeded, candidate draws come
from the campaign rng, and ties break on the first candidate — but a
surrogate-guided campaign consumes a *different* rng stream than a
blind one, so it is opt-in per campaign (``DSEEngine(surrogate=...)``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dse.objective import resolve_objective
from repro.metrics.wrappers import OPTION_METRICS, RunVectorView
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor


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
        return [float(getattr(options, attr)) for _, attr in OPTION_METRICS]

    # ------------------------------------------------------------ training
    def observe(self, features: Sequence[float], key: float) -> None:
        """Record one (settings, objective key) pair from the campaign."""
        if np.isfinite(key):
            self._X.append([float(f) for f in features])
            self._y.append(float(key))

    def _server_rows(self, server, objective, design=None, campaign=None,
                     since=None):
        """(features, key) rows of the collected runs that report every
        option and can express the objective: ``objective.key`` of the
        run vector's :class:`~repro.metrics.wrappers.RunVectorView`,
        the definition a live result is ranked by."""
        objective = resolve_objective(objective)
        X, y = [], []
        for run_id in server.runs(design, campaign=campaign, since=since):
            vector = server.run_vector(run_id)
            if any(metric not in vector for metric, _ in OPTION_METRICS):
                continue
            try:
                key = objective.key(RunVectorView(vector))
            except KeyError:
                continue  # the vector lacks a field the objective reads
            if not np.isfinite(key):
                continue
            X.append([float(vector[metric]) for metric, _ in OPTION_METRICS])
            y.append(float(key))
        return X, y

    def maybe_fit(self, server=None, objective="score", design=None) -> bool:
        """(Re)fit when enough new rows exist; returns True on a fit."""
        if server is not None:
            X, y = self._server_rows(server, objective, design)
            if len(X) < self.min_fit:
                X, y = self._X, self._y
        else:
            X, y = self._X, self._y
        return self._fit_rows_if_fresh(X, y)

    def fit_from_store(self, store, objective="score", design=None,
                       campaign=None, since=None) -> bool:
        """Train on the full archive of a metrics store (all campaigns
        by default, or one design/campaign/since slice); returns True
        when a model was fitted.  Unlike :meth:`maybe_fit` there is no
        in-memory fallback — the warehouse is the corpus."""
        X, y = self._server_rows(store, objective, design,
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
