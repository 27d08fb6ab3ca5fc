"""Tests for the CART tree and Random Forest."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.forest import RandomForest, RandomForestConfig
from repro.ml.tree import DecisionTree, DecisionTreeConfig, _gini_from_counts


def separable(n=200, seed=0):
    """Labels determined by feature 0's sign; feature 1 is noise."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] > 0).astype(np.int64)
    return x, y


def xor_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 2))
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(np.int64)
    return x, y


def _reference_best_split(tree, x, y, indices, rng):
    """The per-feature split search the vectorised one replaced (test oracle).

    Takes ``x`` as ``(n, d)``; returns ``(feature, threshold, decrease)``.
    """
    config = tree.config
    n = indices.size
    labels = y[indices]
    n_pos = int(labels.sum())
    parent_gini = _gini_from_counts(np.array([n_pos]), np.array([n]))[0]
    if parent_gini == 0.0:
        return None
    k = config.resolve_max_features(tree._n_features)
    features = rng.choice(tree._n_features, size=k, replace=False)
    best = None
    best_decrease = 1e-12
    for feature in features:
        values = x[indices, feature]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        if sorted_values[0] == sorted_values[-1]:
            continue
        cum_pos = np.cumsum(labels[order])
        ranks = np.unique(
            np.linspace(
                config.min_samples_leaf - 1,
                n - config.min_samples_leaf - 1,
                num=min(config.n_thresholds, n),
            ).astype(np.int64)
        )
        ranks = ranks[(ranks >= 0) & (ranks < n - 1)]
        if ranks.size == 0:
            continue
        n_left = np.searchsorted(sorted_values, sorted_values[ranks], side="right")
        n_left = np.unique(n_left)
        n_left = n_left[
            (n_left >= config.min_samples_leaf)
            & (n - n_left >= config.min_samples_leaf)
        ]
        if n_left.size == 0:
            continue
        n_right = n - n_left
        pos_left = cum_pos[n_left - 1]
        pos_right = n_pos - pos_left
        gini_left = _gini_from_counts(pos_left, n_left)
        gini_right = _gini_from_counts(pos_right, n_right)
        child = (n_left * gini_left + n_right * gini_right) / n
        decrease = parent_gini - child
        pick = int(np.argmax(decrease))
        if decrease[pick] > best_decrease:
            best_decrease = float(decrease[pick])
            best = (
                int(feature),
                float(sorted_values[n_left[pick] - 1]),
                best_decrease,
            )
    return best


def _node_data(seed, n, d, distinct, constant_columns):
    """A node's features with ties (``distinct`` values per column) and constants."""
    rng = np.random.default_rng(seed)
    if distinct:
        x = rng.integers(0, distinct, size=(n, d)).astype(np.float64)
    else:
        x = rng.normal(size=(n, d))
    x[:, :constant_columns] = 2.5
    y = rng.integers(0, 2, size=n)
    return x, y


def _assert_same_split(config, x, y, indices, seed):
    tree = DecisionTree(config)
    tree._n_features = x.shape[1]
    rng_new = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    got = tree._best_split(np.ascontiguousarray(x.T), y, indices, rng_new)
    want = _reference_best_split(tree, x, y, indices, rng_ref)
    assert got == want
    # Both consumed the feature-sampling stream identically.
    assert rng_new.integers(1 << 62) == rng_ref.integers(1 << 62)


class TestVectorisedSplit:
    """The all-features split search equals the per-feature oracle exactly."""

    @settings(deadline=None, max_examples=300)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 10),
        d=st.integers(1, 6),
        distinct=st.sampled_from([0, 2, 3, 5]),
        constant_columns=st.integers(0, 2),
        min_samples_leaf=st.integers(1, 5),
        n_thresholds=st.integers(1, 12),
        max_features=st.sampled_from([None, "sqrt", 1, 2, 4]),
    )
    def test_small_nodes_match_oracle(
        self, seed, n, d, distinct, constant_columns, min_samples_leaf,
        n_thresholds, max_features,
    ):
        x, y = _node_data(seed, n, d, distinct, constant_columns)
        config = DecisionTreeConfig(
            min_samples_leaf=min_samples_leaf,
            n_thresholds=n_thresholds,
            max_features=max_features,
        )
        _assert_same_split(config, x, y, np.arange(n), seed)

    @pytest.mark.parametrize("n", [30, 93, 400])
    @pytest.mark.parametrize("distinct", [0, 4])
    @pytest.mark.parametrize("max_features", [None, "sqrt", 5])
    def test_bootstrap_nodes_match_oracle(self, n, distinct, max_features):
        x, y = _node_data(n + distinct, 1000, 48, distinct, 2)
        indices = np.random.default_rng(n).integers(0, 1000, size=n)
        config = DecisionTreeConfig(max_features=max_features)
        for seed in range(5):
            _assert_same_split(config, x, y, indices, seed)

    @pytest.mark.parametrize("shape", [(93, 192), (200, 30), (300, 48)])
    def test_whole_forest_matches_oracle(self, shape, monkeypatch):
        n, d = shape
        rng = np.random.default_rng(d)
        x = rng.normal(size=(n, d))
        x[:, 1] = rng.integers(0, 3, size=n)
        x[:, 2] = -1.0
        y = (x[:, 0] + 0.3 * x[:, 1] + rng.normal(0, 0.8, size=n) > 0).astype(np.int64)
        config = RandomForestConfig(n_estimators=4, max_depth=16, seed=7)
        fast = RandomForest(config).fit(x, y)
        monkeypatch.setattr(
            DecisionTree,
            "_best_split",
            lambda tree, xt, y_, idx, rng_: _reference_best_split(
                tree, xt.T, y_, idx, rng_
            ),
        )
        slow = RandomForest(config).fit(x, y)
        assert fast.predict_proba(x).tobytes() == slow.predict_proba(x).tobytes()
        assert (
            fast.feature_importances_.tobytes()
            == slow.feature_importances_.tobytes()
        )

    def test_pinned_forest_digest(self):
        """A fixed-seed forest, pinned to the bytes the per-feature search gave."""
        rng = np.random.default_rng(20240)
        x = rng.normal(size=(160, 24))
        x[:, 3] = rng.integers(0, 4, size=160)
        x[:, 7] = 1.5
        y = (x[:, 0] + 0.4 * x[:, 3] + rng.normal(0, 0.7, size=160) > 0.6).astype(
            np.int64
        )
        x_test = rng.normal(size=(40, 24))
        forest = RandomForest(
            RandomForestConfig(n_estimators=7, max_depth=9, seed=11)
        ).fit(x, y)
        blob = (
            forest.predict_proba(x_test).tobytes()
            + forest.feature_importances_.tobytes()
        )
        assert hashlib.sha256(blob).hexdigest() == (
            "469d413c11b3ee81c4c9e76a2120a3660ccadd9775fa99f9f27a93ac1ac1bf6c"
        )


class TestDecisionTree:
    def test_fits_separable(self):
        x, y = separable()
        tree = DecisionTree(DecisionTreeConfig(max_features=None)).fit(x, y)
        assert (tree.predict(x) == y).mean() > 0.97

    def test_fits_xor_with_depth(self):
        x, y = xor_data()
        tree = DecisionTree(
            DecisionTreeConfig(max_depth=6, max_features=None)
        ).fit(x, y)
        assert (tree.predict(x) == y).mean() > 0.9

    def test_depth_limit_respected(self):
        x, y = xor_data()
        tree = DecisionTree(
            DecisionTreeConfig(max_depth=2, max_features=None)
        ).fit(x, y)
        assert tree.depth() <= 2

    def test_pure_node_is_leaf(self):
        x = np.random.default_rng(0).normal(size=(50, 3))
        y = np.ones(50, dtype=np.int64)
        tree = DecisionTree().fit(x, y)
        assert tree.depth() == 0
        assert np.all(tree.predict_proba(x) == 1.0)

    def test_feature_importances_identify_signal(self):
        x, y = separable(400)
        tree = DecisionTree(DecisionTreeConfig(max_features=None)).fit(x, y)
        assert tree.feature_importances_.argmax() == 0
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_input_validation(self):
        tree = DecisionTree()
        with pytest.raises(ValueError):
            tree.fit(np.zeros((3, 2)), np.array([0, 1]))
        with pytest.raises(ValueError):
            tree.fit(np.zeros((2, 2)), np.array([0, 3]))
        with pytest.raises(RuntimeError):
            tree.predict(np.zeros((1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        x, y = separable(40)
        x[5, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            DecisionTree().fit(x, y)
        with pytest.raises(ValueError, match="finite"):
            RandomForest(RandomForestConfig(n_estimators=2)).fit(x, y)

    def test_predict_dimension_check(self):
        x, y = separable(50)
        tree = DecisionTree().fit(x, y)
        with pytest.raises(ValueError):
            tree.predict(np.zeros((2, 7)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeConfig(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeConfig(min_samples_split=1)

    def test_resolve_max_features(self):
        assert DecisionTreeConfig(max_features=None).resolve_max_features(10) == 10
        assert DecisionTreeConfig(max_features="sqrt").resolve_max_features(100) == 10
        assert DecisionTreeConfig(max_features=3).resolve_max_features(10) == 3
        with pytest.raises(ValueError):
            DecisionTreeConfig(max_features="bad").resolve_max_features(10)

    def test_min_samples_leaf_respected(self):
        x, y = separable(30)
        tree = DecisionTree(
            DecisionTreeConfig(min_samples_leaf=10, max_features=None)
        ).fit(x, y)
        # With a leaf floor of 10 on 30 samples the tree must stay shallow.
        assert tree.depth() <= 2

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10_000))
    def test_probabilities_in_unit_interval(self, seed):
        x, y = xor_data(60, seed)
        if y.min() == y.max():
            return
        tree = DecisionTree(DecisionTreeConfig(seed=seed)).fit(x, y)
        probs = tree.predict_proba(x)
        assert np.all((probs >= 0.0) & (probs <= 1.0))


class TestRandomForest:
    def test_beats_single_tree_on_noisy_data(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(500, 10))
        signal = x[:, 0] + 0.5 * x[:, 1]
        y = (signal + rng.normal(0, 1.0, 500) > 0).astype(np.int64)
        x_test = rng.normal(size=(300, 10))
        y_test = (x_test[:, 0] + 0.5 * x_test[:, 1] > 0).astype(np.int64)
        tree_acc = (
            DecisionTree(DecisionTreeConfig(seed=0)).fit(x, y).predict(x_test) == y_test
        ).mean()
        forest_acc = (
            RandomForest(RandomForestConfig(n_estimators=25, seed=0))
            .fit(x, y)
            .predict(x_test)
            == y_test
        ).mean()
        assert forest_acc >= tree_acc - 0.02

    def test_predict_proba_is_tree_mean(self):
        x, y = separable(100)
        forest = RandomForest(RandomForestConfig(n_estimators=5, seed=0)).fit(x, y)
        manual = np.mean([t.predict_proba(x) for t in forest.trees], axis=0)
        assert np.allclose(forest.predict_proba(x), manual)

    def test_deterministic(self):
        x, y = separable(100)
        a = RandomForest(RandomForestConfig(n_estimators=4, seed=5)).fit(x, y)
        b = RandomForest(RandomForestConfig(n_estimators=4, seed=5)).fit(x, y)
        assert np.allclose(a.predict_proba(x), b.predict_proba(x))

    def test_feature_importances_aggregated(self):
        x, y = separable(300)
        forest = RandomForest(RandomForestConfig(n_estimators=10, seed=0)).fit(x, y)
        assert forest.feature_importances_.argmax() == 0

    def test_component_importances(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 6))  # dim=2 per component
        y = (x[:, 0] > 0).astype(np.int64)
        forest = RandomForest(RandomForestConfig(n_estimators=8, seed=0)).fit(x, y)
        blocks = forest.component_importances(2)
        assert blocks.shape == (3,)
        assert blocks.argmax() == 0  # signal lives in the subject block
        with pytest.raises(ValueError):
            forest.component_importances(5)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForest().predict(np.zeros((1, 3)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RandomForestConfig(n_estimators=0)
