"""Frozen copy of the recursive CART trees and the ensembles built on
them (the golden reference for the tree equivalence tests).

This is the literal ``repro.ml.trees`` the array builder replaced: a
``_Node`` object graph grown by ``_build``/``_best_split``, which call
``np.var`` twice per candidate threshold, and read back one row at a
time by ``_apply``; with the forest and boosting classes of the same
commit, unchanged except that they fit these trees.  Hyperparameter
validation is not part of the oracle.  Not a test module (no ``test_``
prefix), so pytest does not collect it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class _Node:
    """One tree node; leaves carry ``value`` and internal nodes a split."""

    value: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    class_counts: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _as_2d(X) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


class _BaseTree:
    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[int] = None,
        random_state: Optional[int] = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._root: Optional[_Node] = None
        self.n_features_: int = 0

    # Subclasses define: _leaf_value, _impurity
    def fit(self, X, y):
        X = _as_2d(X)
        y = self._prepare_y(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have different numbers of rows")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features_ = X.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        self._root = self._build(X, y, depth=0)
        return self

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return self._rng.choice(n_features, size=self.max_features, replace=False)

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = self._make_leaf(y)
        n = X.shape[0]
        if depth >= self.max_depth or n < self.min_samples_split:
            return node
        if self._impurity(y) <= 1e-12:
            return node
        best = self._best_split(X, y)
        if best is None:
            return node
        feature, threshold, mask = best
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        n = X.shape[0]
        best_gain = 1e-12
        best = None
        parent_imp = self._impurity(y)
        for feature in self._candidate_features(X.shape[1]):
            col = X[:, feature]
            order = np.argsort(col, kind="stable")
            sorted_col = col[order]
            sorted_y = y[order]
            # candidate thresholds: midpoints between distinct consecutive values
            distinct = np.nonzero(np.diff(sorted_col) > 0)[0]
            for idx in distinct:
                n_left = idx + 1
                n_right = n - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                imp_l = self._impurity(sorted_y[:n_left])
                imp_r = self._impurity(sorted_y[n_left:])
                gain = parent_imp - (n_left * imp_l + n_right * imp_r) / n
                if gain > best_gain:
                    threshold = 0.5 * (sorted_col[idx] + sorted_col[idx + 1])
                    best_gain = gain
                    best = (int(feature), float(threshold), col <= threshold)
        return best

    def _apply(self, X: np.ndarray) -> list:
        if self._root is None:
            raise RuntimeError("tree is not fitted; call fit() first")
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"feature-count mismatch: fitted with {self.n_features_}, got {X.shape[1]}"
            )
        leaves = []
        for row in X:
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            leaves.append(node)
        return leaves

    @property
    def depth_(self) -> int:
        """Actual depth of the fitted tree (0 for a single leaf)."""

        def rec(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(rec(node.left), rec(node.right))

        if self._root is None:
            raise RuntimeError("tree is not fitted")
        return rec(self._root)


class DecisionTreeRegressor(_BaseTree):
    """CART regression tree minimizing within-leaf variance."""

    def _prepare_y(self, y) -> np.ndarray:
        return np.asarray(y, dtype=float).reshape(-1)

    def _impurity(self, y: np.ndarray) -> float:
        return float(np.var(y)) if y.shape[0] else 0.0

    def _make_leaf(self, y: np.ndarray) -> _Node:
        return _Node(value=float(np.mean(y)))

    def predict(self, X) -> np.ndarray:
        X = _as_2d(X)
        return np.array([leaf.value for leaf in self._apply(X)])


class DecisionTreeClassifier(_BaseTree):
    """CART classification tree minimizing Gini impurity."""

    def _prepare_y(self, y) -> np.ndarray:
        y = np.asarray(y).reshape(-1)
        self.classes_, encoded = np.unique(y, return_inverse=True)
        return encoded.astype(int)

    def _impurity(self, y: np.ndarray) -> float:
        if y.shape[0] == 0:
            return 0.0
        counts = np.bincount(y, minlength=len(self.classes_))
        p = counts / y.shape[0]
        return float(1.0 - np.sum(p * p))

    def _make_leaf(self, y: np.ndarray) -> _Node:
        counts = np.bincount(y, minlength=len(self.classes_)).astype(float)
        return _Node(value=float(np.argmax(counts)), class_counts=counts)

    def predict(self, X) -> np.ndarray:
        X = _as_2d(X)
        idx = [int(leaf.value) for leaf in self._apply(X)]
        return self.classes_[idx]

    def predict_proba(self, X) -> np.ndarray:
        """Per-class probabilities from leaf class frequencies."""
        X = _as_2d(X)
        rows = []
        for leaf in self._apply(X):
            counts = leaf.class_counts
            total = counts.sum()
            rows.append(counts / total if total > 0 else counts)
        return np.stack(rows)


class _BaseForest:
    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int = 8,
        min_samples_leaf: int = 1,
        max_features: Optional[str] = "sqrt",
        random_state: Optional[int] = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
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
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, n_features))
        raise ValueError(f"unsupported max_features: {self.max_features!r}")

    def fit(self, X, y):
        X = _as_2d(X)
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have different numbers of rows")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        m = self._n_candidate_features(X.shape[1])
        self.estimators_ = []
        for _ in range(self.n_estimators):
            idx = rng.integers(0, n, size=n)
            tree = self._make_tree(m, int(rng.integers(0, 2**31 - 1)))
            tree.fit(X[idx], y[idx])
            self.estimators_.append(tree)
        return self


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
        if not self.estimators_:
            raise RuntimeError("forest is not fitted; call fit() first")
        preds = np.stack([t.predict(X) for t in self.estimators_])
        return preds.mean(axis=0)


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
        if not self.estimators_:
            raise RuntimeError("forest is not fitted; call fit() first")
        # Align per-tree probabilities onto the union of classes.
        classes = self.classes_
        index = {c: i for i, c in enumerate(classes)}
        X = _as_2d(X)
        agg = np.zeros((X.shape[0], len(classes)))
        for tree in self.estimators_:
            proba = tree.predict_proba(X)
            for j, c in enumerate(tree.classes_):
                agg[:, index[c]] += proba[:, j]
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
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
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
        return self

    def predict(self, X) -> np.ndarray:
        if not self.estimators_:
            raise RuntimeError("model is not fitted; call fit() first")
        X = _as_2d(X)
        pred = np.full(X.shape[0], self.init_)
        for tree in self.estimators_:
            pred = pred + self.learning_rate * tree.predict(X)
        return pred

    def staged_predict(self, X):
        """Yield predictions after each boosting stage (for early-stop studies)."""
        if not self.estimators_:
            raise RuntimeError("model is not fitted; call fit() first")
        X = _as_2d(X)
        pred = np.full(X.shape[0], self.init_)
        for tree in self.estimators_:
            pred = pred + self.learning_rate * tree.predict(X)
            yield pred.copy()
