"""The residual-path threshold search against brute-force child fits.

With ``residual_path`` on, each child fits its own ridge projection to the
residuals of its parent's projection, so a cut's gain is the drop from the
parent's residual sum of squares to the children's penalised ridge
residuals. The oracle refits both children at every candidate with lstsq.
"""

import numpy as np
import pytest

from fcodt import tree
from fcodt.baselines import fit_ridge_odt
from fcodt.datasets import Dataset
from fcodt.evaluation import grid_search_lambda
from fcodt.linalg import SingularSystemError
from fcodt.stumps import linear_impurity_decrease
from fcodt.tree import (
    ObliqueNode,
    SplitCriteria,
    best_residual_threshold,
    fit_fc_odt,
    fit_method_many,
    model_to_text,
    replay_training_data,
)
from oracles import residual_threshold_bruteforce, ridge_weights


def wavy_dataset(seed, n, d, sigma=0.3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] - 0.5 * X[:, -1] ** 2 + np.sin(2.0 * X[:, 0] * X[:, -1])
         + sigma * rng.normal(size=n))
    return Dataset(X, y)


def split_nodes(model):
    return [(slot, node) for slot, node in enumerate(model.nodes)
            if isinstance(node, ObliqueNode)]


class TestBestResidualThreshold:
    @pytest.mark.parametrize("trial", range(12))
    def test_matches_bruteforce(self, trial):
        rng = np.random.default_rng(700 + trial)
        n = int(rng.integers(12, 70))
        p = int(rng.integers(1, 5))
        X = rng.normal(size=(n, p))
        scores = X @ rng.normal(size=p) + 0.3 * rng.normal(size=n)
        r = X[:, 0] ** 2 + rng.normal(size=n)
        lam = [1e-3, 0.1, 1.0, 10.0][trial % 4]
        min_leaf = int(rng.integers(1, 6))
        crit = SplitCriteria(max_depth=2, min_samples_split=2 * min_leaf,
                             min_samples_leaf=min_leaf)
        got = best_residual_threshold(scores, X, r, lam, n + 7, crit)
        expect = residual_threshold_bruteforce(scores, X, r, lam, n + 7, min_leaf)
        assert got is not None and expect is not None
        assert got[0] == expect[0]
        assert got[1] == pytest.approx(expect[1], rel=1e-9, abs=1e-12)

    def test_no_residual_left_picks_first_cut(self):
        X = np.arange(8.0).reshape(-1, 1)
        crit = SplitCriteria(max_depth=1, min_samples_split=4, min_samples_leaf=2)
        thr, gain = best_residual_threshold(X[:, 0], X, np.zeros(8), 0.1, 8, crit)
        assert (thr, gain) == (1.5, 0.0)

    @pytest.mark.parametrize("features, lam, message", [
        (np.arange(8.0), 0.1, "features must be a matrix with one row per projection"),
        (np.arange(8.0).reshape(-1, 1), -1.0, "lambda must be finite and nonnegative, got -1.0"),
    ])
    def test_refused_inputs(self, features, lam, message):
        crit = SplitCriteria(max_depth=1, min_samples_split=4, min_samples_leaf=2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            best_residual_threshold(np.arange(8.0), features, np.arange(8.0) % 2, lam, 8, crit)

    def test_unpenalised_children_need_more_rows_than_features(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 3))
        scores = X[:, 0]
        r = rng.normal(size=40)
        crit = SplitCriteria(max_depth=1, min_samples_split=2, min_samples_leaf=1)
        thr, gain = best_residual_threshold(scores, X, r, 0.0, 40, crit)
        left = int(np.sum(scores < thr))
        assert 4 <= left <= 36
        expect = residual_threshold_bruteforce(scores, X, r, 0.0, 40, 4)
        assert thr == expect[0]
        assert gain == pytest.approx(expect[1], rel=1e-9)


class TestBatchedSearch:
    def test_nodes_across_chunk_boundaries(self, monkeypatch):
        # several large nodes in one search, with the bound on matrix
        # entries per LAPACK call so small that both the anchors and the
        # gaps of B rows take several calls
        rng = np.random.default_rng(31)
        p = 4
        nodes = []
        for n, lam in zip((300, 640, 900, 450), (1e-3, 0.1, 1.0, 10.0)):
            X = rng.normal(size=(n, p))
            scores = X @ rng.normal(size=p) + 0.3 * rng.normal(size=n)
            r = X[:, 0] ** 2 + rng.normal(size=n)
            nodes.append((scores, X, r, lam))
        crit = SplitCriteria(max_depth=2, min_samples_split=16, min_samples_leaf=8)

        def search():
            return tree._residual_cuts(
                [s for s, _, _, _ in nodes], [X for _, X, _, _ in nodes],
                [r for _, _, r, _ in nodes], np.array([lam for *_, lam in nodes]),
                np.array([2000] * len(nodes)), crit)

        unpatched = search()
        calls = {"anchor": [], "gap": []}
        innovations = tree._innovations

        def counted(gram, lam, tau, rows):
            calls["gap" if rows.shape[1] else "anchor"].append(gram.shape[0])
            return innovations(gram, lam, tau, rows)

        # 5 anchor pairs per call, and 1 gap pair: a pair of gap matrices
        # has more entries than the bound
        q = p + 2
        monkeypatch.setattr(tree, "_FACTOR_ENTRIES", 10 * q * q)
        monkeypatch.setattr(tree, "_innovations", counted)
        patched = search()
        assert len(calls["anchor"]) > 2 * len(nodes) and max(calls["anchor"]) == 10
        assert len(calls["gap"]) > 2 * len(nodes) and max(calls["gap"]) == 2
        assert patched == unpatched
        for (scores, X, r, lam), got in zip(nodes, patched):
            expect = residual_threshold_bruteforce(scores, X, r, lam, 2000,
                                                   crit.min_samples_leaf)
            assert got[0] == expect[0]
            assert got[1] == pytest.approx(expect[1], rel=1e-9, abs=1e-12)


class TestFcOdtSplits:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_split_matches_bruteforce(self, seed):
        rng = np.random.default_rng(600 + seed)
        n = int(rng.integers(40, 90))
        d = int(rng.integers(1, 4))
        lam = [0.05, 0.5, 5.0][seed % 3]
        ds = wavy_dataset(600 + seed, n, d)
        crit = SplitCriteria(max_depth=3, min_samples_split=12, min_samples_leaf=5)
        model = fit_fc_odt(ds, lam, crit)
        replay = replay_training_data(model, ds)
        nodes = split_nodes(model)
        assert nodes
        for slot, node in nodes:
            view = replay[slot]
            expect = residual_threshold_bruteforce(
                view.scores, view.features, view.incoming - view.scores, lam,
                ds.n, crit.min_samples_leaf)
            assert expect is not None
            assert node.threshold == pytest.approx(expect[0], rel=1e-12, abs=1e-12)
            assert node.gain == pytest.approx(expect[1], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_gain_is_linear_impurity_decrease_less_child_penalties(self, seed):
        # below the root, stumps.linear_impurity_decrease measures the same
        # drop in squared error with unpenalised residuals; the recorded
        # gain subtracts the children's ridge penalties lam |w|^2 as well
        rng = np.random.default_rng(4000 + seed)
        X = rng.normal(size=(200, 5))
        y = (X[:, 0] - 0.4 * X[:, 1] ** 2 + np.sin(1.5 * X[:, 2]) * X[:, 3]
             + 0.3 * rng.normal(size=200))
        ds = Dataset(X, y)
        lam = 1e-8
        model = fit_fc_odt(ds, lam, SplitCriteria(max_depth=3))
        decrease = linear_impurity_decrease(model, ds)
        replay = replay_training_data(model, ds)
        checked = 0
        for slot, node in split_nodes(model):
            if slot == 0:  # stumps measure the root against the zero function
                continue
            view = replay[slot]
            r = view.incoming - view.scores
            left = view.scores < node.threshold
            penalty = sum(lam * np.sum(ridge_weights(view.features[side], r[side], lam) ** 2)
                          for side in (left, ~left))
            assert node.gain + penalty / ds.n == pytest.approx(decrease[slot], rel=1e-9)
            checked += 1
        assert checked >= 2


class TestGrowingTogether:
    def test_many_equals_single(self):
        datasets = [wavy_dataset(50 + i, 120 + 40 * i, 3) for i in range(4)]
        lams = [1e-3, 0.1, 10.0, 1.0]
        crit = SplitCriteria(max_depth=4, min_samples_split=12, min_samples_leaf=5)
        together = fit_method_many("fc_odt", zip(datasets, lams), crit)
        alone = [fit_fc_odt(ds, lam, crit) for ds, lam in zip(datasets, lams)]
        assert [model_to_text(m) for m in together] == [model_to_text(m) for m in alone]
        together = fit_method_many("ridge_odt", zip(datasets, lams), crit)
        alone = [fit_ridge_odt(ds, lam, crit) for ds, lam in zip(datasets, lams)]
        assert [model_to_text(m) for m in together] == [model_to_text(m) for m in alone]

    def test_trees_of_different_widths(self):
        datasets = [wavy_dataset(70 + d, 150, d) for d in (1, 4, 2, 4)]
        crit = SplitCriteria(max_depth=3, min_samples_split=12, min_samples_leaf=5)
        together = fit_method_many("fc_odt", [(ds, 0.1) for ds in datasets], crit)
        alone = [fit_fc_odt(ds, 0.1, crit) for ds in datasets]
        assert [model_to_text(m) for m in together] == [model_to_text(m) for m in alone]

    def test_failure_stays_with_its_tree(self):
        good = wavy_dataset(5, 100, 2)
        bad = Dataset(np.zeros((0, 2)), np.zeros(0))
        out = fit_method_many("fc_odt", [(good, 0.1), (bad, 0.1), (good, -1.0)],
                              SplitCriteria(max_depth=2))
        assert model_to_text(out[0]) == model_to_text(
            fit_fc_odt(good, 0.1, SplitCriteria(max_depth=2)))
        assert isinstance(out[1], ValueError)
        assert isinstance(out[2], ValueError)

    def test_failure_during_growth_is_returned(self):
        # at lambda 0 the children's concatenated features are singular:
        # a tree grown alone gets the exception as its entry, and
        # fit_fc_odt raises it
        ds = wavy_dataset(8, 150, 2)
        crit = SplitCriteria(max_depth=2)
        out = fit_method_many("fc_odt", [(ds, 0.0)], crit)
        assert isinstance(out[0], SingularSystemError)
        with pytest.raises(SingularSystemError):
            fit_fc_odt(ds, 0.0, crit)
        out = fit_method_many("fc_odt", [(ds, 0.0), (ds, 0.1)], crit)
        assert isinstance(out[0], SingularSystemError)
        assert model_to_text(out[1]) == model_to_text(fit_fc_odt(ds, 0.1, crit))

    @pytest.mark.parametrize("method", ["fc_odt", "ridge_odt"])
    def test_failure_mid_growth_leaves_batch_mates_alone(self, monkeypatch, method):
        # at lambda 0 the failing tree's children have singular fits; it is
        # grown between two good trees of its width, so its failing level
        # is searched in one batch with theirs before each tree alone
        bad = wavy_dataset(8, 150, 2) if method == "fc_odt" else binary_column_dataset()
        goods = [wavy_dataset(5, 100, bad.dim), wavy_dataset(6, 160, bad.dim)]
        crit = SplitCriteria(max_depth=2)
        alone = [model_to_text(fit_method_many(method, [(ds, 0.1)], crit)[0]) for ds in goods]
        failed = []
        split_nodes = tree._split_nodes

        def recording(items, *args):
            try:
                return split_nodes(items, *args)
            except ValueError:
                failed.append(len(items))
                raise

        monkeypatch.setattr(tree, "_split_nodes", recording)
        out = fit_method_many(method, [(goods[0], 0.1), (bad, 0.0), (goods[1], 0.1)], crit)
        assert failed[0] > failed[-1]  # a shared batch failed, then the tree alone
        assert isinstance(out[1], SingularSystemError)
        assert [model_to_text(model) for model in out[::2]] == alone


def binary_column_dataset():
    """A 0/1 column between two normal ones: at lambda 0 a child of a cut
    on the 0/1 column holds that column constant, so its unpenalised fit
    is singular."""
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.normal(size=200), rng.integers(0, 2, size=200),
                         rng.normal(size=200)]).astype(np.float64)
    y = X[:, 0] + 4.0 * X[:, 1] + 0.1 * rng.normal(size=200)
    return Dataset(X, y)


class TestSingularChildFits:
    def test_root_search_refuses(self):
        with pytest.raises(SingularSystemError,
                           match="singular system in the child fits of the threshold search"):
            fit_fc_odt(binary_column_dataset(), 0.0, SplitCriteria(max_depth=1))

    def test_grid_search_refuses_when_every_lambda_fails(self):
        with pytest.raises(ValueError, match="grid search failed for every lambda"):
            grid_search_lambda(binary_column_dataset(), "fc_odt",
                               SplitCriteria(max_depth=1), [0.0], 2, 0)

    def test_grid_search_records_the_refusal(self, monkeypatch):
        # the four CV fits share one growth batch; its search fails, so
        # each tree is searched again alone and only the lambda 0 trees fail
        sizes = []
        split_nodes = tree._split_nodes

        def counting(items, *args):
            sizes.append(len(items))
            return split_nodes(items, *args)

        monkeypatch.setattr(tree, "_split_nodes", counting)
        lam, table = grid_search_lambda(binary_column_dataset(), "fc_odt",
                                        SplitCriteria(max_depth=1), [0.0, 0.1], 2, 0)
        assert lam == 0.1
        assert sizes == [4, 1, 1, 1, 1]
        assert [row["error"] for row in table] == [
            "SingularSystemError: singular system in the child fits of the threshold "
            "search"] * 2 + ["", ""]
        assert [row["mse"] == np.inf for row in table] == [True, True, False, False]
