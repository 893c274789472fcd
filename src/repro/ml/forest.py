"""Bagged tree ensembles (random forests)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.trees import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    _as_2d,
    _descend,
    _Grower,
    _is_count,
    _require_count,
)


class _BaseForest:
    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int = 8,
        min_samples_leaf: int = 1,
        max_features: Optional[str] = "sqrt",
        random_state: Optional[int] = None,
    ):
        _require_count("n_estimators", n_estimators)
        _require_count("max_depth", max_depth)
        _require_count("min_samples_leaf", min_samples_leaf)
        if max_features not in (None, "sqrt", "third") and not _is_count(max_features):
            raise ValueError("max_features must be 'sqrt', 'third', None or an "
                             f"integer >= 1, got {max_features!r}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.estimators_: list = []

    def _n_candidate_features(self, n_features: int) -> Optional[int]:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "third":
            return max(1, n_features // 3)
        return max(1, min(int(self.max_features), n_features))

    def fit(self, X, y):
        """Bootstrap every tree's rows and seed, in order, from one
        generator, then grow all the trees in lockstep."""
        X = _as_2d(X)
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have different numbers of rows")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        m = self._n_candidate_features(X.shape[1])
        idx = np.empty((self.n_estimators, n), dtype=np.int64)
        seeds = []
        for t in range(self.n_estimators):
            idx[t] = rng.integers(0, n, size=n)
            seeds.append(int(rng.integers(0, 2**31 - 1)))
        trees = [self._make_tree(m, seed) for seed in seeds]
        ys = np.stack([tree._prepare_y(y[i]) for tree, i in zip(trees, idx)])
        if ys.shape[1] != n:
            raise ValueError("X and y have different numbers of rows")
        n_classes = [tree._n_classes() for tree in trees]
        grower = _Grower(X[idx], ys, self.max_depth, 2, self.min_samples_leaf,
                         None if n_classes[0] is None else n_classes)
        self._table = grower.grow(seeds, m)
        for t, tree in enumerate(trees):
            tree._table, tree._index, tree.n_features_ = self._table, t, X.shape[1]
        self.estimators_ = trees
        return self

    def _leaves(self, X) -> np.ndarray:
        """(trees, rows) leaf ids of every tree, in one walk."""
        if not self.estimators_:
            raise RuntimeError("forest is not fitted; call fit() first")
        return _descend(self._table, np.arange(len(self.estimators_)), X,
                        self.estimators_[0].n_features_)


class RandomForestRegressor(_BaseForest):
    """Bootstrap-aggregated regression trees; prediction is the mean."""

    def _make_tree(self, max_features, seed):
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=max_features,
            random_state=seed,
        )

    def predict(self, X) -> np.ndarray:
        leaves = self._leaves(X)
        # a C-ordered (trees, rows) array averaged down axis 0: each
        # row's trees are summed in tree order
        return self._table.value[leaves].mean(axis=0)


class RandomForestClassifier(_BaseForest):
    """Bootstrap-aggregated classification trees; prediction by majority vote."""

    def _make_tree(self, max_features, seed):
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=max_features,
            random_state=seed,
        )

    def predict_proba(self, X) -> np.ndarray:
        leaves = self._leaves(X)
        # Align per-tree probabilities onto the union of classes.
        classes = self.classes_
        index = {c: i for i, c in enumerate(classes)}
        agg = np.zeros((leaves.shape[1], len(classes)))
        for tree, tree_leaves in zip(self.estimators_, leaves):
            agg[:, [index[c] for c in tree.classes_]] += tree._proba(tree_leaves)
        return agg / len(self.estimators_)

    @property
    def classes_(self) -> np.ndarray:
        if not self.estimators_:
            raise RuntimeError("forest is not fitted; call fit() first")
        all_classes = np.concatenate([t.classes_ for t in self.estimators_])
        return np.unique(all_classes)

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]
