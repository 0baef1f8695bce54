import numpy as np
import pytest

from fcodt.baselines import BaselineKind, fit_baseline, fit_cart, fit_ridge_odt
from fcodt.datasets import Dataset, gen_sim1
from fcodt.tree import (
    LeafNode,
    ObliqueNode,
    SplitCriteria,
    best_threshold,
    fit_fc_odt,
    model_to_text,
    predict_batch,
)
from oracles import (
    best_threshold_bruteforce,
    cart_tree_bruteforce,
    residual_threshold_bruteforce,
)


def make_dataset(n=150, d=3, seed=0, sigma=0.5):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, d))
    y = np.where(X[:, 0] > 0, 2.0, -1.0) + X[:, 1] + sigma * rng.normal(size=n)
    return Dataset(X, y)


def assert_same_structure(model, oracle_node, slot=0):
    node = model.nodes[slot]
    if oracle_node["leaf"]:
        assert isinstance(node, LeafNode)
        assert node.residual_mean == pytest.approx(oracle_node["mean"], rel=1e-12)
        assert node.sample_count == oracle_node["count"]
        return
    assert isinstance(node, ObliqueNode)
    feature = int(np.argmax(node.projection[:-1]))
    assert feature == oracle_node["feature"]
    assert node.threshold == oracle_node["threshold"]
    assert node.gain == pytest.approx(oracle_node["gain"], rel=1e-9, abs=1e-12)
    assert_same_structure(model, oracle_node["left"], node.left)
    assert_same_structure(model, oracle_node["right"], node.right)


class TestCart:
    def test_single_feature_perfect_separation(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        crit = SplitCriteria(max_depth=1, min_samples_split=2, min_samples_leaf=1)
        model = fit_cart(Dataset(X, y), crit)
        root = model.nodes[0]
        assert isinstance(root, ObliqueNode)
        assert root.threshold == 2.5
        assert root.gain == pytest.approx(0.25)

    @pytest.mark.parametrize("seed", [*range(8), pytest.param(8, id="tied_columns")])
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        if seed < 8:
            n = int(rng.integers(12, 31))
            X = rng.normal(size=(n, int(rng.integers(1, 4))))
            y = rng.normal(size=n)
            depth = 2
        else:
            # small integer columns, the last a copy of the one the target
            # follows: gains tie across columns at several nodes of one
            # level, and the lower column wins; integer targets sum exactly
            # in any row order, so columns that split a node's rows alike
            # tie too
            n, depth = 64, 3
            X = rng.integers(0, 4, size=(n, 3)).astype(np.float64)
            X = np.column_stack([X, X[:, 1]])
            y = 2.0 * X[:, 1] + rng.integers(0, 3, size=n)
        crit = SplitCriteria(max_depth=depth, min_samples_split=6, min_samples_leaf=3)
        model = fit_cart(Dataset(X, y), crit)
        oracle = cart_tree_bruteforce(X, y, n, depth, 6, 3)
        assert_same_structure(model, oracle)

    def test_oblique_target_beats_cart(self):
        # y depends on x1 + x2: an axis-parallel tree needs more depth
        # than an oblique one
        cart_mse, ridge_mse = [], []
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            X = rng.uniform(-2, 2, size=(300, 4))
            y = (X[:, 0] + X[:, 1] > 0) * 3.0 + 0.1 * rng.normal(size=300)
            Xt = rng.uniform(-2, 2, size=(200, 4))
            yt = (Xt[:, 0] + Xt[:, 1] > 0) * 3.0
            crit = SplitCriteria(max_depth=2)
            cart = fit_cart(Dataset(X, y), crit)
            ridge = fit_ridge_odt(Dataset(X, y), 0.01, crit)
            cart_mse.append(np.mean((predict_batch(cart, Xt) - yt) ** 2))
            ridge_mse.append(np.mean((predict_batch(ridge, Xt) - yt) ** 2))
        assert np.mean(cart_mse) > np.mean(ridge_mse)

    @pytest.mark.parametrize("seed", range(4))
    def test_axis_parallel_projections(self, seed):
        ds = make_dataset(seed=seed)
        model = fit_cart(ds, SplitCriteria(max_depth=4, min_samples_split=10,
                                           min_samples_leaf=5))
        for node in model.nodes:
            if isinstance(node, ObliqueNode):
                nonzero = np.flatnonzero(node.projection[:-1])
                assert nonzero.size == 1
                assert node.projection[nonzero[0]] == 1.0
                assert node.projection[-1] == 0.0

    def test_root_gain_is_argmax_over_features(self):
        ds = make_dataset(seed=5, n=100)
        crit = SplitCriteria(max_depth=3, min_samples_split=10, min_samples_leaf=5)
        model = fit_cart(ds, crit)
        root = model.nodes[0]
        for j in range(ds.dim):
            found = best_threshold(ds.features[:, j], ds.targets, ds.n, crit)
            if found is not None:
                assert root.gain >= found[1] - 1e-12

    def test_leaf_occupancy(self):
        ds = make_dataset(seed=6, n=200)
        crit = SplitCriteria(max_depth=5, min_samples_split=20, min_samples_leaf=8)
        model = fit_cart(ds, crit)
        for node in model.nodes:
            if isinstance(node, LeafNode) and node.depth > 0:
                assert node.sample_count >= 8


def test_kind_must_be_a_baseline_kind():
    with pytest.raises(ValueError, match="^unknown baseline kind 'cart'$"):
        fit_baseline("cart", make_dataset(), 0.1)


class TestRidgeOdt:
    def test_same_root_split_as_fc(self):
        # no concatenation has happened at the root, so both variants fit
        # the same projection there; their thresholds differ because fc_odt's
        # children fit ridge projections to the residuals while ridge_odt's
        # predict their means, so each is checked against its own oracle on
        # the shared root scores
        ds = make_dataset(seed=7, n=200)
        crit = SplitCriteria(max_depth=1)
        fc = fit_fc_odt(ds, 0.3, crit)
        ro = fit_ridge_odt(ds, 0.3, crit)
        assert np.array_equal(fc.nodes[0].projection, ro.nodes[0].projection)
        root = fc.nodes[0].projection
        scores = ds.features @ root[:-1] + root[-1]
        for model, expect in (
                (fc, residual_threshold_bruteforce(scores, ds.features, ds.targets - scores,
                                                   0.3, ds.n, crit.min_samples_leaf)),
                (ro, best_threshold_bruteforce(scores, ds.targets, ds.n,
                                               crit.min_samples_leaf))):
            assert model.nodes[0].threshold == pytest.approx(expect[0], rel=1e-12)
            assert model.nodes[0].gain == pytest.approx(expect[1], rel=1e-9)

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(8).normal(size=(50, 3))
        model = fit_ridge_odt(Dataset(X, np.full(50, 2.5)), 0.1, SplitCriteria())
        assert len(model.nodes) == 1
        assert model.nodes[0].residual_mean == 2.5

    def test_mean_leaves_of_raw_targets(self):
        ds = make_dataset(seed=9, n=120)
        crit = SplitCriteria(max_depth=1)
        model = fit_ridge_odt(ds, 0.2, crit)
        root = model.nodes[0]
        scores = ds.features @ root.projection[:-1] + root.projection[-1]
        left = scores < root.threshold
        assert model.nodes[root.left].residual_mean == pytest.approx(
            ds.targets[left].mean())

    def test_fc_beats_ridge_on_sim1(self):
        fc_mse, ro_mse = [], []
        crit = SplitCriteria(max_depth=4)
        for seed in range(10):
            train = gen_sim1(2000, 0.01, 2000 + seed)
            test = gen_sim1(500, 0.0, 9000 + seed)
            fc = fit_fc_odt(train, 0.01, crit)
            ro = fit_ridge_odt(train, 0.01, crit)
            fc_mse.append(np.mean((predict_batch(fc, test.features) - test.clean_targets) ** 2))
            ro_mse.append(np.mean((predict_batch(ro, test.features) - test.clean_targets) ** 2))
        assert np.mean(fc_mse) < np.mean(ro_mse)

    def test_dispatch(self):
        ds = make_dataset(seed=10)
        crit = SplitCriteria(max_depth=2)
        a = fit_baseline(BaselineKind.RIDGE_ODT, ds, 0.1, crit)
        b = fit_ridge_odt(ds, 0.1, crit)
        assert model_to_text(a) == model_to_text(b)
        c = fit_baseline(BaselineKind.CART, ds, 0.0, crit)
        d = fit_cart(ds, crit)
        assert model_to_text(c) == model_to_text(d)
