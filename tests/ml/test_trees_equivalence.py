"""The array CART builder against the frozen recursive trees.

Every model is fitted twice, by ``repro.ml`` and by the oracle in
``trees_reference.py`` (the recursive ``_Node`` builder and the forest
and boosting classes of the same commit), and must agree bit for bit:
the bytes of ``predict`` and ``predict_proba``, ``depth_`` and
``classes_``, tree by tree.  Tables are drawn at random: tie-heavy and
constant columns, constant targets, ``min_samples_leaf`` > 1, n from 2
to about 400, and +-inf, NaN or overflowing midpoints in X and y.  The
call shapes of the DSE surrogate (24 trees) and the option miner (40
trees, 416 candidates), both depth 6, are pinned explicitly.
"""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.trees import DecisionTreeClassifier, DecisionTreeRegressor
from tests.ml import trees_reference as ref

# the oracle and the builder both warn on NaN/inf tables (empty leaves,
# inf - inf); the warnings are not under test
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

MAX_FEATURES = ("sqrt", "third", None, 1, 2, 5)


def assert_same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def random_table(seed, n=None, n_features=None):
    """(X, y, fresh rows) with ties, constant columns and targets."""
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(2, 80))
    p = n_features or int(rng.integers(1, 7))
    X = rng.normal(size=(n, p))
    for j in range(p):
        style = int(rng.integers(4))
        if style == 0:
            X[:, j] = np.round(X[:, j])
        elif style == 1:
            X[:, j] = rng.integers(0, 3, size=n)
        elif style == 2 and rng.random() < 0.4:
            X[:, j] = 1.5
    y = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e4])
    if rng.random() < 0.3:
        y = np.round(y)
    if rng.random() < 0.1:
        y[:] = 2.0
    fresh = np.vstack([rng.normal(size=(40, p)), X[: min(n, 10)]])
    return X, y, fresh


def spoil(arr, rng, frac=0.12):
    """A copy of ``arr`` with some entries +-inf, NaN or near-overflow."""
    out = np.array(arr, dtype=float)
    mask = rng.random(out.shape) < frac
    pool = np.array([np.inf, -np.inf, np.nan, 1.6e308, -1.6e308])
    out[mask] = rng.choice(pool, size=int(mask.sum()))
    return out


def tree_params(rng, n_features):
    return dict(
        max_depth=int(rng.integers(1, 10)),
        min_samples_split=int(rng.integers(2, 6)),
        min_samples_leaf=int(rng.integers(1, 5)),
        max_features=(None if rng.random() < 0.5
                      else int(rng.integers(1, n_features + 1))),
        random_state=int(rng.integers(0, 1000)),
    )


def assert_trees_same(live, oracle, rows):
    assert live.depth_ == oracle.depth_
    assert_same(live.predict(rows), oracle.predict(rows))
    if hasattr(oracle, "predict_proba"):
        assert_same(live.classes_, oracle.classes_)
        assert_same(live.predict_proba(rows), oracle.predict_proba(rows))


def assert_forests_same(live, oracle, rows):
    assert len(live.estimators_) == len(oracle.estimators_)
    for a, b in zip(live.estimators_, oracle.estimators_):
        assert_trees_same(a, b, rows)
    assert_same(live.predict(rows), oracle.predict(rows))
    if hasattr(oracle, "predict_proba"):
        assert_same(live.classes_, oracle.classes_)
        assert_same(live.predict_proba(rows), oracle.predict_proba(rows))


# ------------------------------------------------------------ single trees
@pytest.mark.parametrize("seed", range(40))
def test_regression_tree_matches_reference(seed):
    X, y, fresh = random_table(seed)
    params = tree_params(np.random.default_rng(1000 + seed), X.shape[1])
    live = DecisionTreeRegressor(**params).fit(X, y)
    oracle = ref.DecisionTreeRegressor(**params).fit(X, y)
    assert_trees_same(live, oracle, np.vstack([X, fresh]))


@pytest.mark.parametrize("seed", range(30))
def test_classification_tree_matches_reference(seed):
    X, y, fresh = random_table(seed)
    rng = np.random.default_rng(2000 + seed)
    n_classes = int(rng.integers(1, 12))
    labels = np.floor(np.abs(y) * 3).astype(int) % n_classes
    if seed % 2:
        labels = np.array([f"class-{v}" for v in labels])
    params = tree_params(rng, X.shape[1])
    live = DecisionTreeClassifier(**params).fit(X, labels)
    oracle = ref.DecisionTreeClassifier(**params).fit(X, labels)
    assert_trees_same(live, oracle, np.vstack([X, fresh]))


def test_tree_on_two_rows_and_on_a_constant_table():
    for X, y in (([[0.0], [1.0]], [1.0, 2.0]),
                 (np.ones((30, 3)), np.arange(30.0)),
                 (np.arange(30.0).reshape(-1, 1), np.full(30, 4.0))):
        live = DecisionTreeRegressor().fit(X, y)
        oracle = ref.DecisionTreeRegressor().fit(X, y)
        assert_trees_same(live, oracle, np.asarray(X, dtype=float))


# ------------------------------------------------------------ forests
@pytest.mark.parametrize("max_features", MAX_FEATURES)
@pytest.mark.parametrize("seed", range(6))
def test_forest_regressor_matches_reference(seed, max_features):
    X, y, fresh = random_table(100 + seed)
    rng = np.random.default_rng(3000 + seed)
    params = dict(n_estimators=int(rng.integers(1, 9)),
                  max_depth=int(rng.integers(1, 9)),
                  min_samples_leaf=int(rng.integers(1, 4)),
                  max_features=max_features, random_state=seed)
    live = RandomForestRegressor(**params).fit(X, y)
    oracle = ref.RandomForestRegressor(**params).fit(X, y)
    assert_forests_same(live, oracle, np.vstack([X, fresh]))


@pytest.mark.parametrize("max_features", MAX_FEATURES)
@pytest.mark.parametrize("seed", range(4))
def test_forest_classifier_matches_reference(seed, max_features):
    X, y, fresh = random_table(200 + seed)
    labels = np.where(y > 0.5, "hi", np.where(y < -0.5, "lo", "mid"))
    params = dict(n_estimators=6, max_depth=5, max_features=max_features,
                  min_samples_leaf=1 + seed % 2, random_state=seed)
    live = RandomForestClassifier(**params).fit(X, labels)
    oracle = ref.RandomForestClassifier(**params).fit(X, labels)
    assert_forests_same(live, oracle, np.vstack([X, fresh]))


def test_forest_classifier_with_a_class_missing_from_a_bootstrap():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    labels = np.array(["common"] * 37 + ["rare", "rare", "odd"])
    params = dict(n_estimators=12, max_depth=6, random_state=3)
    live = RandomForestClassifier(**params).fit(X, labels)
    oracle = ref.RandomForestClassifier(**params).fit(X, labels)
    # the case under test: some trees saw fewer classes than the forest
    assert {len(t.classes_) for t in live.estimators_} != {3}
    assert_forests_same(live, oracle, np.vstack([X, rng.normal(size=(30, 3))]))


# ------------------------------------------------------------ boosting
@pytest.mark.parametrize("seed", range(8))
def test_gbm_matches_reference(seed):
    X, y, fresh = random_table(300 + seed)
    rng = np.random.default_rng(4000 + seed)
    params = dict(n_estimators=int(rng.integers(1, 40)),
                  learning_rate=float(rng.choice([0.05, 0.1, 0.5, 1.0])),
                  max_depth=int(rng.integers(1, 5)),
                  min_samples_leaf=int(rng.integers(1, 4)), random_state=seed)
    live = GradientBoostingRegressor(**params).fit(X, y)
    oracle = ref.GradientBoostingRegressor(**params).fit(X, y)
    rows = np.vstack([X, fresh])
    assert len(live.estimators_) == len(oracle.estimators_)
    assert live.init_ == oracle.init_
    assert_same(live.predict(rows), oracle.predict(rows))
    staged = list(live.staged_predict(rows))
    expected = list(oracle.staged_predict(rows))
    assert len(staged) == len(expected)
    for a, b in zip(staged, expected):
        assert_same(a, b)


# ------------------------------------------------------------ non-finite
@pytest.mark.parametrize("seed", range(12))
def test_non_finite_features_match_reference(seed):
    X, y, fresh = random_table(400 + seed)
    rng = np.random.default_rng(5000 + seed)
    X, fresh = spoil(X, rng), spoil(fresh, rng)
    params = tree_params(rng, X.shape[1])
    rows = np.vstack([X, fresh])
    assert_trees_same(DecisionTreeRegressor(**params).fit(X, y),
                      ref.DecisionTreeRegressor(**params).fit(X, y), rows)
    labels = (y > 0).astype(int)
    assert_trees_same(DecisionTreeClassifier(**params).fit(X, labels),
                      ref.DecisionTreeClassifier(**params).fit(X, labels), rows)
    forest = dict(n_estimators=5, max_depth=6, random_state=seed)
    assert_forests_same(RandomForestRegressor(**forest).fit(X, y),
                        ref.RandomForestRegressor(**forest).fit(X, y), rows)


@pytest.mark.parametrize("seed", range(8))
def test_non_finite_targets_match_reference(seed):
    X, y, fresh = random_table(500 + seed)
    rng = np.random.default_rng(6000 + seed)
    y = spoil(y, rng, frac=0.05)
    rows = np.vstack([X, fresh])
    params = tree_params(rng, X.shape[1])
    assert_trees_same(DecisionTreeRegressor(**params).fit(X, y),
                      ref.DecisionTreeRegressor(**params).fit(X, y), rows)
    forest = dict(n_estimators=6, max_depth=5, random_state=seed)
    assert_forests_same(RandomForestRegressor(**forest).fit(X, y),
                        ref.RandomForestRegressor(**forest).fit(X, y), rows)


# ------------------------------------------------------------ scale
@pytest.mark.parametrize("seed", range(3))
def test_large_tables_match_reference(seed):
    X, y, fresh = random_table(600 + seed, n=380 + 10 * seed, n_features=3)
    params = dict(max_depth=7, min_samples_leaf=1 + seed)
    assert_trees_same(DecisionTreeRegressor(**params).fit(X, y),
                      ref.DecisionTreeRegressor(**params).fit(X, y), fresh)
    forest = dict(n_estimators=3, max_depth=6, random_state=seed)
    assert_forests_same(RandomForestRegressor(**forest).fit(X, y),
                        ref.RandomForestRegressor(**forest).fit(X, y), fresh)


def test_surrogate_call_shape_matches_reference():
    """``SurrogateProposer``: 24 trees, depth 6, on a DSE history."""
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(48, 5))
    y = X @ rng.normal(size=5) + 0.1 * rng.normal(size=48)
    params = dict(n_estimators=24, max_depth=6, random_state=0)
    live = RandomForestRegressor(**params).fit(X, y)
    oracle = ref.RandomForestRegressor(**params).fit(X, y)
    assert_forests_same(live, oracle, rng.uniform(size=(64, 5)))


def test_miner_call_shape_matches_reference():
    """``DataMiner.recommend_options``: 40 trees, depth 6, on a 16 x 6
    option table, predicting 400 sampled candidates plus the table."""
    rng = np.random.default_rng(8)
    X = rng.uniform(0.3, 1.0, size=(16, 6))
    y = rng.normal(1000.0, 50.0, size=16)
    candidates = np.vstack([rng.uniform(X.min(axis=0), X.max(axis=0),
                                        size=(400, 6)), X])
    params = dict(n_estimators=40, max_depth=6, random_state=0)
    live = RandomForestRegressor(**params).fit(X, y)
    oracle = ref.RandomForestRegressor(**params).fit(X, y)
    assert_forests_same(live, oracle, candidates)
