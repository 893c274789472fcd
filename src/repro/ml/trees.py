"""CART decision trees (regression and classification).

Axis-aligned binary splits chosen greedily.  Regression splits minimize
within-node variance; classification splits minimize Gini impurity.

One array builder, :class:`_Grower`, grows every tree of an ensemble in
lockstep, and a fitted tree is a :class:`_Table` of nodes that
:func:`_descend` walks for all rows of all trees at once.  Both give the
bits of the classic recursive CART: the same ``np.mean``/``np.var``
reductions over the same rows in the same order, the same
first-maximum split and the same ``rng.choice`` draws.  The recursive
trees are frozen in ``tests/ml/trees_reference.py`` as the oracle, and
the numpy reduction facts the builder relies on are pinned in
``tests/ml/test_reduction_identities.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

#: a split must decrease impurity by more than this, and a node whose
#: impurity is at most this is a leaf
_MIN_GAIN = 1e-12


def _as_2d(X) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


def _is_count(value, minimum: int = 1) -> bool:
    """Whether ``value`` is an integer >= ``minimum`` (numpy integers
    are, bools are not)."""
    return (not isinstance(value, bool) and isinstance(value, (int, np.integer))
            and value >= minimum)


def _require_count(name: str, value, minimum: int = 1) -> None:
    if not _is_count(value, minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _segments(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Flat indices ``starts[i] + arange(sizes[i])``, concatenated."""
    offsets = np.cumsum(sizes) - sizes
    return np.arange(int(sizes.sum())) + np.repeat(starts - offsets, sizes)


def _grouped(keys: np.ndarray):
    """(key, positions) for each distinct value of ``keys``."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    bounds = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(),
              keys.size]
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            yield int(ordered[a]), order[a:b]


def _block(buf: np.ndarray, starts: np.ndarray, length: int) -> np.ndarray:
    """``buf[s:s + length]`` for every ``s`` in ``starts``, as one
    C-ordered block.  A reduction along axis 1 of such a block gives
    each row the bits of the 1-D call on its slice; a block gathered
    along axis 1 of a 2-D array is F-ordered and does not."""
    return buf[starts[:, None] + np.arange(length)]


def _var_of_slices(buf: np.ndarray, starts: np.ndarray,
                   sizes: np.ndarray) -> np.ndarray:
    """``np.var(buf[s:s + n])`` for every (s, n), grouped by length."""
    out = np.empty(starts.size)
    for size, group in _grouped(sizes):
        out[group] = np.var(_block(buf, starts[group], size), axis=1)
    return out


def _gini(counts: np.ndarray, sizes: np.ndarray, n_classes: np.ndarray) -> np.ndarray:
    """Gini impurity of class-count rows, each over its tree's own
    ``n_classes`` columns: ``1 - sum(p * p)`` with ``p = counts / n``."""
    out = np.empty(sizes.size)
    for n_cls, group in _grouped(n_classes):
        p = np.ascontiguousarray(counts[group, :n_cls]) / sizes[group, None]
        out[group] = 1.0 - np.sum(p * p, axis=1)
    return out


class _Table:
    """Node tables of one or more trees.

    Node ``i`` sends a row left when ``row[feature[i]] <= threshold[i]``.
    A leaf points both children at itself, so a walk of any length ends
    on it.  ``value`` is the leaf mean (regression) or class index
    (classification), ``counts`` a classifier's per-leaf class counts.
    Tree ``t`` starts at node ``roots[t]`` and is ``depths[t]`` deep.
    """

    def __init__(self, feature, threshold, left, right, value, counts,
                 roots, depths):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.counts = counts
        self.roots = roots
        self.depths = depths

    @classmethod
    def stack(cls, tables: Sequence["_Table"]) -> "_Table":
        """One table holding every tree of ``tables``, in order."""
        sizes = np.array([t.feature.size for t in tables])
        offsets = np.cumsum(sizes) - sizes
        return cls(
            np.concatenate([t.feature for t in tables]),
            np.concatenate([t.threshold for t in tables]),
            np.concatenate([t.left + o for t, o in zip(tables, offsets)]),
            np.concatenate([t.right + o for t, o in zip(tables, offsets)]),
            np.concatenate([t.value for t in tables]),
            None,
            np.concatenate([t.roots + o for t, o in zip(tables, offsets)]),
            np.concatenate([t.depths for t in tables]),
        )


def _descend(table: _Table, trees: np.ndarray, X, n_features: int) -> np.ndarray:
    """The leaf every row of ``X`` reaches in each of ``trees``, as a
    (trees, rows) array of node ids."""
    X = _as_2d(X)
    if X.shape[1] != n_features:
        raise ValueError(
            f"feature-count mismatch: fitted with {n_features}, got {X.shape[1]}"
        )
    rows = np.arange(X.shape[0])
    node = np.repeat(table.roots[trees][:, None], X.shape[0], axis=1)
    for _ in range(int(table.depths[trees].max())):
        go_left = X[rows, table.feature[node]] <= table.threshold[node]
        node = np.where(go_left, table.left[node], table.right[node])
    return node


class _Grower:
    """Grows ``T`` trees over a ``(T, n, p)`` block of rows in lockstep.

    Tree ``t`` owns block ``t``.  A node owns a segment of the
    permutation ``perm`` holding its rows in their original order, and a
    split stably partitions the segment into the left rows, then the
    right ones, so every reduction sees the rows in the recursive
    builder's order.  A step takes the ready node(s) of every tree.  A
    tree that samples candidate features draws them from its own
    generator, once per searched node, so its one ready node is the top
    of its depth-first stack (node, left subtree, right subtree) and the
    draws come in the recursive order; a tree that samples none has
    every pending node ready.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, max_depth: int,
                 min_samples_split: int, min_samples_leaf: int,
                 n_classes: Optional[Sequence[int]] = None):
        T, n, p = X.shape
        self.X = X.reshape(T * n, p)
        self.y = y.reshape(T * n)
        self.n_trees = T
        self.n_features = p
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.n_classes = None if n_classes is None else np.asarray(n_classes)
        self.perm = np.arange(T * n)
        # one row per node: segment start, segment size, depth, tree
        self.nodes = np.zeros((max(4 * T, 64), 4), dtype=np.int64)
        self.nodes[:T] = np.column_stack(
            [np.arange(T) * n, np.full(T, n), np.zeros(T, np.int64), np.arange(T)])
        self.n_nodes = T
        self.splits: List[tuple] = []  # (nodes, features, thresholds, left ids)

    def grow(self, seeds: Sequence[Optional[int]],
             n_draw: Optional[int] = None) -> _Table:
        """Grow every tree.  With ``n_draw`` below the feature count,
        each searched node of tree ``t`` draws ``n_draw`` candidate
        features from ``np.random.default_rng(seeds[t])``."""
        T = self.n_trees
        if n_draw is not None and n_draw < self.n_features:
            rngs = [np.random.default_rng(seed) for seed in seeds]
            stacks = [[t] for t in range(T)]
            while True:
                ready = [stack.pop() for stack in stacks if stack]
                if not ready:
                    break
                trees, left = self._step(np.array(ready), rngs, n_draw)
                for t, child in zip(trees.tolist(), left.tolist()):
                    stacks[t] += [child + 1, child]
        else:
            ready = np.arange(T)
            while ready.size:
                _, left = self._step(ready, None, None)
                ready = np.concatenate([left, left + 1])
        return self._table()

    # ------------------------------------------------------------ one step
    def _step(self, ready: np.ndarray, rngs: Optional[list],
              n_draw: Optional[int]):
        """Split every ready node the recursive builder splits; returns
        the tree and the left child id of each split (right = left + 1)."""
        start, size, depth, tree = self.nodes[ready].T
        keep = (depth < self.max_depth) & (size >= self.min_samples_split)
        ready, start, size, depth, tree = (
            a[keep] for a in (ready, start, size, depth, tree))
        impurity = self._node_impurity(start, size, tree)
        keep = ~(impurity <= _MIN_GAIN)  # a NaN impurity searches, never splits
        ready, start, size, depth, tree, impurity = (
            a[keep] for a in (ready, start, size, depth, tree, impurity))
        if rngs is None:
            features = np.broadcast_to(np.arange(self.n_features),
                                       (ready.size, self.n_features))
        else:
            features = np.array(
                [rngs[t].choice(self.n_features, size=n_draw, replace=False)
                 for t in tree.tolist()], dtype=np.int64).reshape(-1, n_draw)
        which, feature, threshold = self._best_splits(
            start, size, tree, impurity, features)
        return self._split(ready[which], start[which], size[which],
                           depth[which], tree[which], feature, threshold)

    def _node_impurity(self, start, size, tree) -> np.ndarray:
        ys = self.y[self.perm[_segments(start, size)]]
        if self.n_classes is None:
            return _var_of_slices(ys, np.cumsum(size) - size, size)
        C = int(self.n_classes.max())
        seg = np.repeat(np.arange(start.size), size)
        counts = np.bincount(seg * C + ys, minlength=start.size * C)
        return _gini(counts.reshape(start.size, C), size, self.n_classes[tree])

    def _best_splits(self, start, size, tree, impurity, features):
        """The first best (feature, threshold) of every node, in
        (drawn feature, threshold ascending) order, that beats
        ``_MIN_GAIN``: (node positions, features, thresholds)."""
        k, q = features.shape
        pair_node = np.repeat(np.arange(k), q)
        pair_feature = features.reshape(-1)
        pair_size = size[pair_node]
        pair_of = np.repeat(np.arange(k * q), pair_size)
        rows = self.perm[_segments(start[pair_node], pair_size)]
        values = self.X[rows, pair_feature[pair_of]]
        # stable sort of each (node, feature) column: ties keep row order
        order = np.lexsort((values, pair_of))
        values = values[order]
        ys = self.y[rows[order]]
        offset = np.cumsum(pair_size) - pair_size
        # candidate c splits its pair's sorted column between c and c + 1
        n_left = np.arange(values.size - 1) - offset[pair_of[:-1]] + 1
        n_all = pair_size[pair_of[:-1]]
        cand = np.flatnonzero((values[1:] > values[:-1])
                              & (n_left >= self.min_samples_leaf)
                              & (n_all - n_left >= self.min_samples_leaf))
        if not cand.size:
            return cand, cand, values[:0]
        pair = pair_of[cand]
        n_left, n_all = n_left[cand], n_all[cand]
        n_right = n_all - n_left
        node = pair_node[pair]
        if self.n_classes is None:
            imp = _var_of_slices(
                ys, np.concatenate([offset[pair], cand + 1]),
                np.concatenate([n_left, n_right]))
            imp_left, imp_right = imp[:cand.size], imp[cand.size:]
        else:
            C = int(self.n_classes.max())
            cum = np.zeros((ys.size + 1, C), dtype=np.int64)
            cum[np.arange(1, ys.size + 1), ys] = 1
            np.cumsum(cum, axis=0, out=cum)
            left = cum[cand + 1] - cum[offset[pair]]
            right = cum[offset[pair] + n_all] - cum[cand + 1]
            n_cls = self.n_classes[tree[node]]
            imp_left = _gini(left, n_left, n_cls)
            imp_right = _gini(right, n_right, n_cls)
        gain = impurity[node] - (n_left * imp_left + n_right * imp_right) / n_all
        gain[np.isnan(gain)] = -np.inf  # NaN > best is never true
        order = np.lexsort((-gain, node))  # stable: the first maximum leads
        first = order[np.r_[True, node[order[1:]] != node[order[:-1]]]]
        win = first[gain[first] > _MIN_GAIN]
        c = cand[win]
        return (node[win], pair_feature[pair[win]],
                0.5 * (values[c] + values[c + 1]))

    def _split(self, nodes, start, size, depth, tree, feature, threshold):
        seg = np.repeat(np.arange(nodes.size), size)
        flat = _segments(start, size)
        rows = self.perm[flat]
        goes_left = self.X[rows, feature[seg]] <= threshold[seg]
        self.perm[flat] = rows[np.argsort(2 * seg + ~goes_left, kind="stable")]
        n_left = np.bincount(seg[goes_left], minlength=nodes.size)
        children = np.empty((2 * nodes.size, 4), dtype=np.int64)
        children[0::2] = np.column_stack([start, n_left, depth + 1, tree])
        children[1::2] = np.column_stack(
            [start + n_left, size - n_left, depth + 1, tree])
        left = self._add(children)[0::2]
        self.splits.append((nodes, feature, threshold, left))
        return tree, left

    def _add(self, rows: np.ndarray) -> np.ndarray:
        first, end = self.n_nodes, self.n_nodes + len(rows)
        if end > len(self.nodes):
            grown = np.zeros((max(end, 2 * len(self.nodes)), 4), dtype=np.int64)
            grown[:first] = self.nodes[:first]
            self.nodes = grown
        self.nodes[first:end] = rows
        self.n_nodes = end
        return np.arange(first, end)

    # ------------------------------------------------------------ tables
    def _table(self) -> _Table:
        N = self.n_nodes
        start, size, depth, tree = self.nodes[:N].T
        feature = np.zeros(N, dtype=np.int64)
        threshold = np.zeros(N)
        left = np.arange(N)
        right = np.arange(N)
        for nodes, feat, thr, lid in self.splits:
            feature[nodes] = feat
            threshold[nodes] = thr
            left[nodes] = lid
            right[nodes] = lid + 1
        leaves = np.flatnonzero(left == np.arange(N))
        value = np.zeros(N)
        counts = None
        ys = self.y[self.perm[_segments(start[leaves], size[leaves])]]
        if self.n_classes is None:
            offsets = np.cumsum(size[leaves]) - size[leaves]
            for n, group in _grouped(size[leaves]):
                # an empty leaf (a split at an infinite threshold) gets
                # np.mean's NaN of an empty slice, sign bit and all
                value[leaves[group]] = np.mean(
                    _block(ys, offsets[group], n), axis=1)
        else:
            C = int(self.n_classes.max())
            seg = np.repeat(np.arange(leaves.size), size[leaves])
            counts = np.zeros((N, C))
            counts[leaves] = np.bincount(
                seg * C + ys, minlength=leaves.size * C).reshape(-1, C)
            value[leaves] = np.argmax(counts[leaves], axis=1)
        depths = np.zeros(self.n_trees, dtype=np.int64)
        np.maximum.at(depths, tree, depth)
        return _Table(feature, threshold, left, right, value, counts,
                      np.arange(self.n_trees), depths)


class _BaseTree:
    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[int] = None,
        random_state: Optional[int] = None,
    ):
        _require_count("max_depth", max_depth)
        _require_count("min_samples_split", min_samples_split, minimum=2)
        _require_count("min_samples_leaf", min_samples_leaf)
        if max_features is not None:
            _require_count("max_features", max_features)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._table: Optional[_Table] = None
        self._index = 0  # this tree's root in a (possibly shared) table
        self.n_features_: int = 0

    def fit(self, X, y):
        X = _as_2d(X)
        y = self._prepare_y(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have different numbers of rows")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features_ = X.shape[1]
        n_classes = self._n_classes()
        grower = _Grower(X[None], y[None], self.max_depth,
                         self.min_samples_split, self.min_samples_leaf,
                         None if n_classes is None else [n_classes])
        self._table = grower.grow([self.random_state], self.max_features)
        self._index = 0
        return self

    def _n_classes(self) -> Optional[int]:
        """Class count of a classifier's training labels; None for a
        regressor."""
        return None

    def _leaves(self, X) -> np.ndarray:
        if self._table is None:
            raise RuntimeError("tree is not fitted; call fit() first")
        return _descend(self._table, np.array([self._index]), X,
                        self.n_features_)[0]

    @property
    def depth_(self) -> int:
        """Actual depth of the fitted tree (0 for a single leaf)."""
        if self._table is None:
            raise RuntimeError("tree is not fitted")
        return int(self._table.depths[self._index])


class DecisionTreeRegressor(_BaseTree):
    """CART regression tree minimizing within-leaf variance."""

    def _prepare_y(self, y) -> np.ndarray:
        return np.asarray(y, dtype=float).reshape(-1)

    def predict(self, X) -> np.ndarray:
        leaves = self._leaves(X)
        return self._table.value[leaves]


class DecisionTreeClassifier(_BaseTree):
    """CART classification tree minimizing Gini impurity."""

    def _prepare_y(self, y) -> np.ndarray:
        y = np.asarray(y).reshape(-1)
        self.classes_, encoded = np.unique(y, return_inverse=True)
        return encoded.astype(int)

    def _n_classes(self) -> int:
        return len(self.classes_)

    def predict(self, X) -> np.ndarray:
        leaves = self._leaves(X)
        return self.classes_[self._table.value[leaves].astype(int)]

    def predict_proba(self, X) -> np.ndarray:
        """Per-class probabilities from leaf class frequencies."""
        return self._proba(self._leaves(X))

    def _proba(self, leaves: np.ndarray) -> np.ndarray:
        counts = self._table.counts[leaves, :len(self.classes_)]  # a copy
        total = counts.sum(axis=1, keepdims=True)
        return np.divide(counts, total, out=counts, where=total > 0)
