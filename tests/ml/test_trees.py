"""Decision trees: splits, purity, depth control, probabilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.metrics import accuracy_score, r2_score
from repro.ml.trees import DecisionTreeClassifier, DecisionTreeRegressor


def test_regressor_fits_step_function_exactly():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1.0, 1.0, 5.0, 5.0])
    tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
    assert np.allclose(tree.predict(X), y)


def test_regressor_constant_target_single_leaf():
    X = np.arange(10).reshape(-1, 1).astype(float)
    y = np.full(10, 7.0)
    tree = DecisionTreeRegressor().fit(X, y)
    assert tree.depth_ == 0
    assert np.allclose(tree.predict(X), 7.0)


def test_max_depth_respected():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    y = rng.normal(size=200)
    tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
    assert tree.depth_ <= 3


def test_min_samples_leaf_respected():
    X = np.arange(10).reshape(-1, 1).astype(float)
    y = np.arange(10).astype(float)
    tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=4).fit(X, y)

    # collect leaf sample counts by prediction: every leaf mean must
    # average at least 4 original samples
    preds = tree.predict(X)
    _, counts = np.unique(preds, return_counts=True)
    assert counts.min() >= 4


def test_classifier_separable_data():
    X = np.array([[0.0], [0.1], [0.9], [1.0]])
    y = np.array(["a", "a", "b", "b"])
    clf = DecisionTreeClassifier(max_depth=2).fit(X, y)
    assert accuracy_score(y, clf.predict(X)) == 1.0


def test_classifier_probabilities_sum_to_one():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 2))
    y = (X[:, 0] > 0).astype(int)
    clf = DecisionTreeClassifier(max_depth=4).fit(X, y)
    proba = clf.predict_proba(X)
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert proba.min() >= 0.0


def test_classifier_string_labels_roundtrip():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array(["lo", "lo", "hi"])
    clf = DecisionTreeClassifier().fit(X, y)
    assert set(clf.predict(X)) <= {"lo", "hi"}


def test_unfitted_predict_raises():
    with pytest.raises(RuntimeError):
        DecisionTreeRegressor().predict([[1.0]])


def test_feature_mismatch_raises():
    tree = DecisionTreeRegressor().fit([[1.0, 2.0]] * 4, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        tree.predict([[1.0]])


def test_bad_hyperparameters_rejected():
    with pytest.raises(ValueError):
        DecisionTreeRegressor(max_depth=0)
    with pytest.raises(ValueError):
        DecisionTreeRegressor(min_samples_split=1)
    with pytest.raises(ValueError):
        DecisionTreeRegressor(min_samples_leaf=0)


@pytest.mark.parametrize("params", [
    {"max_depth": 2.5},
    {"max_depth": True},
    {"min_samples_split": 2.5},
    {"min_samples_leaf": 1.5},
    {"min_samples_leaf": True},
    {"max_features": 0},
    {"max_features": 1.5},
    {"max_features": True},
    {"max_features": "sqrt"},
])
def test_hyperparameters_the_tree_cannot_honour_are_rejected(params):
    with pytest.raises(ValueError):
        DecisionTreeRegressor(**params)
    with pytest.raises(ValueError):
        DecisionTreeClassifier(**params)


def test_regressor_improves_with_depth():
    rng = np.random.default_rng(2)
    X = rng.uniform(-3, 3, size=(300, 1))
    y = np.sin(X).ravel()
    shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
    deep = DecisionTreeRegressor(max_depth=8).fit(X, y)
    assert r2_score(y, deep.predict(X)) > r2_score(y, shallow.predict(X))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_predictions_within_target_range(seed):
    """A regression tree predicts leaf means, so predictions are always
    inside [min(y), max(y)]."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(50, 2))
    y = rng.normal(size=50)
    tree = DecisionTreeRegressor(max_depth=5).fit(X, y)
    preds = tree.predict(rng.normal(size=(50, 2)))
    assert preds.min() >= y.min() - 1e-9
    assert preds.max() <= y.max() + 1e-9
