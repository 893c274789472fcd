"""Gradient-boosted regression trees (squared loss)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.trees import DecisionTreeRegressor, _as_2d, _descend, _require_count, _Table


class GradientBoostingRegressor:
    """Stagewise additive model of shallow regression trees.

    With squared loss each stage fits the current residuals; the
    contribution of each tree is damped by ``learning_rate``.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        random_state: Optional[int] = None,
    ):
        _require_count("n_estimators", n_estimators)
        _require_count("max_depth", max_depth)
        _require_count("min_samples_leaf", min_samples_leaf)
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self.estimators_: list[DecisionTreeRegressor] = []
        self.init_: float = 0.0

    def fit(self, X, y) -> "GradientBoostingRegressor":
        X = _as_2d(X)
        y = np.asarray(y, dtype=float).reshape(-1)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have different numbers of rows")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        rng = np.random.default_rng(self.random_state)
        self.init_ = float(np.mean(y))
        pred = np.full(y.shape, self.init_)
        self.estimators_ = []
        for _ in range(self.n_estimators):
            residual = y - pred
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X, residual)
            update = tree.predict(X)
            pred = pred + self.learning_rate * update
            self.estimators_.append(tree)
            if np.max(np.abs(residual)) < 1e-12:
                break
        self._table = _Table.stack([tree._table for tree in self.estimators_])
        return self

    def _stage_values(self, X) -> np.ndarray:
        """(stages, rows) tree outputs, from one walk of every stage."""
        if not self.estimators_:
            raise RuntimeError("model is not fitted; call fit() first")
        leaves = _descend(self._table, np.arange(len(self.estimators_)), X,
                          self.estimators_[0].n_features_)
        return self._table.value[leaves]

    def predict(self, X) -> np.ndarray:
        values = self._stage_values(X)
        pred = np.full(values.shape[1], self.init_)
        for update in values:
            pred = pred + self.learning_rate * update
        return pred

    def staged_predict(self, X):
        """Yield predictions after each boosting stage (for early-stop studies)."""
        values = self._stage_values(X)
        pred = np.full(values.shape[1], self.init_)
        for update in values:
            pred = pred + self.learning_rate * update
            yield pred.copy()
