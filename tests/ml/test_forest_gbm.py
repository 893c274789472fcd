"""Ensembles: forests and gradient boosting."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.metrics import accuracy_score, r2_score


@pytest.fixture(scope="module")
def regression_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    y = X[:, 0] * 2 - X[:, 1] + 0.3 * X[:, 2] * X[:, 3] + 0.05 * rng.normal(size=200)
    return X, y


def test_forest_regressor_fits(regression_data):
    X, y = regression_data
    model = RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.8


def test_forest_is_deterministic_given_seed(regression_data):
    X, y = regression_data
    a = RandomForestRegressor(n_estimators=10, random_state=42).fit(X, y).predict(X)
    b = RandomForestRegressor(n_estimators=10, random_state=42).fit(X, y).predict(X)
    assert np.array_equal(a, b)


def test_forest_seed_changes_predictions(regression_data):
    X, y = regression_data
    a = RandomForestRegressor(n_estimators=5, random_state=1).fit(X, y).predict(X)
    b = RandomForestRegressor(n_estimators=5, random_state=2).fit(X, y).predict(X)
    assert not np.array_equal(a, b)


def test_forest_classifier_accuracy():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(300, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    clf = RandomForestClassifier(n_estimators=20, random_state=0).fit(X, y)
    assert accuracy_score(y, clf.predict(X)) > 0.95


def test_forest_classifier_proba_normalized():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 2))
    y = (X[:, 0] > 0).astype(int)
    clf = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
    proba = clf.predict_proba(X)
    assert np.allclose(proba.sum(axis=1), 1.0)


def test_forest_max_features_options(regression_data):
    X, y = regression_data
    for mf in (None, "sqrt", "third", 2):
        model = RandomForestRegressor(n_estimators=4, max_features=mf, random_state=0)
        model.fit(X, y)
        assert len(model.estimators_) == 4
    with pytest.raises(ValueError):
        RandomForestRegressor(max_features="bogus").fit(X, y)


def test_forest_validation():
    with pytest.raises(ValueError):
        RandomForestRegressor(n_estimators=0)
    with pytest.raises(RuntimeError):
        RandomForestRegressor().predict([[1.0]])


@pytest.mark.parametrize("params", [
    {"n_estimators": 2.5},
    {"n_estimators": True},
    {"max_depth": 0},
    {"max_depth": 2.5},
    {"min_samples_leaf": 0},
    {"max_features": True},
    {"max_features": -3},
    {"max_features": 0},
    {"max_features": 2.5},
    {"max_features": "log2"},
])
def test_forest_rejects_hyperparameters_at_construction(params):
    with pytest.raises(ValueError):
        RandomForestRegressor(**params)
    with pytest.raises(ValueError):
        RandomForestClassifier(**params)


@pytest.mark.parametrize("params", [
    {"n_estimators": 2.0},
    {"n_estimators": True},
    {"max_depth": 0},
    {"max_depth": 1.5},
    {"min_samples_leaf": 0},
])
def test_gbm_rejects_hyperparameters_at_construction(params):
    with pytest.raises(ValueError):
        GradientBoostingRegressor(**params)


def test_numpy_integer_hyperparameters_are_accepted(regression_data):
    X, y = regression_data
    forest = RandomForestRegressor(
        n_estimators=np.int64(3), max_depth=np.int32(4),
        min_samples_leaf=np.int64(2), max_features=np.int64(2), random_state=0)
    assert forest.fit(X, y).predict(X).shape == (X.shape[0],)
    gbm = GradientBoostingRegressor(n_estimators=np.int64(3), max_depth=np.int64(2),
                                    min_samples_leaf=np.int32(1), random_state=0)
    assert gbm.fit(X, y).predict(X).shape == (X.shape[0],)


def test_gbm_beats_single_stage(regression_data):
    X, y = regression_data
    one = GradientBoostingRegressor(n_estimators=1, random_state=0).fit(X, y)
    many = GradientBoostingRegressor(n_estimators=80, random_state=0).fit(X, y)
    assert r2_score(y, many.predict(X)) > r2_score(y, one.predict(X))


def test_gbm_staged_predictions_improve(regression_data):
    X, y = regression_data
    model = GradientBoostingRegressor(n_estimators=30, random_state=0).fit(X, y)
    scores = [r2_score(y, pred) for pred in model.staged_predict(X)]
    assert scores[-1] > scores[0]
    assert len(scores) == len(model.estimators_)


def test_gbm_learning_rate_bounds():
    with pytest.raises(ValueError):
        GradientBoostingRegressor(learning_rate=0.0)
    with pytest.raises(ValueError):
        GradientBoostingRegressor(learning_rate=1.5)


def test_gbm_constant_target_early_stops():
    X = np.arange(20).reshape(-1, 1).astype(float)
    y = np.full(20, 3.0)
    model = GradientBoostingRegressor(n_estimators=50, random_state=0).fit(X, y)
    assert np.allclose(model.predict(X), 3.0)
    assert len(model.estimators_) < 50  # residuals hit zero immediately


def test_gbm_unfitted_raises():
    with pytest.raises(RuntimeError):
        GradientBoostingRegressor().predict([[1.0]])
    with pytest.raises(RuntimeError):
        list(GradientBoostingRegressor().staged_predict([[1.0]]))
