import numpy as np
import pytest

from fcodt.datasets import Dataset, gen_sim1, gen_sim2
from fcodt.stumps import (
    compute_stumps,
    linear_impurity_decrease,
    path_linear_prediction,
    stump_diagnostics,
    stump_gram_matrix,
    verify_orthogonal_expansion,
)
from fcodt.tree import ObliqueNode, SplitCriteria, fit_fc_odt, replay_training_data
from oracles import projection_fit, stumps_reference


def random_dataset(n=200, d=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = X[:, 0] - 0.5 * X[:, 1] ** 2 + np.sin(X[:, 2]) + 0.3 * rng.normal(size=n)
    return Dataset(X, y)


def fitted(seed=0, lam=1e-8, max_depth=3):
    ds = random_dataset(seed=seed)
    crit = SplitCriteria(max_depth=max_depth, min_samples_split=20, min_samples_leaf=8)
    return fit_fc_odt(ds, lam, crit), ds


class TestStumpBasis:
    def test_unit_norms(self):
        model, ds = fitted(seed=1)
        basis = compute_stumps(model, ds)
        norms = np.sqrt(np.mean(basis.stumps ** 2, axis=0))
        assert np.max(np.abs(norms - 1.0)) < 1e-6

    def test_gram_is_identity(self):
        model, ds = fitted(seed=2)
        basis = compute_stumps(model, ds)
        gram = stump_gram_matrix(basis)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-6

    def test_gram_of_a_root_only_tree_is_empty(self):
        ds = random_dataset()
        model = fit_fc_odt(Dataset(ds.features, np.zeros(ds.n)), 1e-8)
        assert model.n_internal == 0
        gram = stump_gram_matrix(compute_stumps(model, ds))
        assert gram.shape == (0, 0) and gram.dtype == np.float64

    def test_one_column_per_internal_node(self):
        model, ds = fitted(seed=3)
        basis = compute_stumps(model, ds)
        assert basis.stumps.shape == (ds.n, model.n_internal - len(basis.dropped))

    @pytest.mark.parametrize("diagnostic", [
        compute_stumps, stump_diagnostics, verify_orthogonal_expansion,
        path_linear_prediction, linear_impurity_decrease], ids=lambda f: f.__name__)
    def test_requires_residual_concat_flags(self, diagnostic):
        ds = random_dataset(seed=4)
        plain = fit_fc_odt(ds, 1e-8, SplitCriteria(max_depth=2),
                           concatenate=False, residual_path=False)
        with pytest.raises(ValueError):
            diagnostic(plain, ds)

    @pytest.mark.parametrize("rows, node", [(1, 1), (0, 0)], ids=["one_row", "no_rows"])
    @pytest.mark.parametrize("diagnostic", [
        compute_stumps, stump_diagnostics, verify_orthogonal_expansion,
        linear_impurity_decrease], ids=lambda f: f.__name__)
    def test_data_missing_a_node_rejected(self, diagnostic, rows, node):
        model, ds = fitted(seed=3)
        table = Dataset(ds.features[:rows], ds.targets[:rows])
        with pytest.raises(ValueError, match=f"no row of the data reaches node {node}$"):
            diagnostic(model, table)

    def test_single_split_matches_lstsq_oracle(self):
        # hand-sized single split: the root stump must equal the combined
        # child least-squares fits, normalized, computed via an
        # independent lstsq route
        X = np.array([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]])
        y = np.array([-3.0, -1.2, -0.8, 1.1, 1.8, 3.5])
        ds = Dataset(X, y)
        crit = SplitCriteria(max_depth=1, min_samples_split=2, min_samples_leaf=1)
        model = fit_fc_odt(ds, 1e-8, crit)
        assert model.n_internal == 1
        basis = compute_stumps(model, ds)

        root = model.nodes[0]
        replay = replay_training_data(model, ds)
        delta = np.zeros(6)
        for child in (root.left, root.right):
            view = replay[child]
            delta[view.indices] = projection_fit(view.features, y[view.indices], 0.0)
        psi = delta / np.sqrt(np.mean(delta ** 2))
        assert np.max(np.abs(basis.stumps[:, 0] - psi)) < 1e-6

    def test_coefficients_match_linear_impurity_decrease(self):
        model, ds = fitted(seed=5)
        basis = compute_stumps(model, ds)
        decreases = linear_impurity_decrease(model, ds)
        for node_id, coef in zip(basis.node_ids, basis.coefficients):
            assert coef ** 2 == pytest.approx(decreases[node_id], rel=1e-6)

    def test_impurity_decrease_against_lstsq_oracle(self):
        model, ds = fitted(seed=6)
        basis = compute_stumps(model, ds)
        replay = replay_training_data(model, ds)
        y = ds.targets
        for node_id, coef in zip(basis.node_ids, basis.coefficients):
            node = model.nodes[node_id]
            idx = replay[node_id].indices
            if node_id == 0:
                parent_pred = np.zeros(idx.size)
            else:
                parent_pred = projection_fit(replay[node_id].features, y[idx], 0.0)
            child_pred = np.zeros(ds.n)
            for child in (node.left, node.right):
                view = replay[child]
                child_pred[view.indices] = projection_fit(view.features, y[view.indices], 0.0)
            delta_hat = (np.sum((y[idx] - parent_pred) ** 2)
                         - np.sum((y[idx] - child_pred[idx]) ** 2)) / ds.n
            assert coef ** 2 == pytest.approx(delta_hat, rel=1e-5, abs=1e-10)

    def test_redundant_deep_nodes_dropped(self):
        # exactly linear targets: every non-root split adds nothing, so
        # child fits cancel against the parent fit and those stumps drop
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, size=(80, 1))
        ds = Dataset(X, 3.0 * X[:, 0] + 1.0)
        crit = SplitCriteria(max_depth=2, min_samples_split=10, min_samples_leaf=5)
        model = fit_fc_odt(ds, 1e-10, crit)
        basis = compute_stumps(model, ds)
        assert model.n_internal > 1
        assert len(basis.dropped) == model.n_internal - 1
        assert basis.node_ids == [0]


class TestOrthogonalExpansion:
    def test_single_split_deviation_tiny(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(100, 3))
        y = X @ np.array([1.0, -1.0, 0.5]) + 0.2 * rng.normal(size=100)
        ds = Dataset(X, y)
        crit = SplitCriteria(max_depth=1, min_samples_split=20, min_samples_leaf=8)
        model = fit_fc_odt(ds, 1e-8, crit)
        scale = float(np.max(np.abs(y)))
        assert verify_orthogonal_expansion(model, ds) <= 1e-6 * scale

    @pytest.mark.parametrize("seed", range(4))
    def test_deep_tree_deviation_tiny(self, seed):
        model, ds = fitted(seed=20 + seed)
        scale = float(np.max(np.abs(ds.targets)))
        assert verify_orthogonal_expansion(model, ds) <= 1e-6 * scale

    def test_expansion_invariant_to_column_order(self):
        model, ds = fitted(seed=9)
        basis = compute_stumps(model, ds)
        perm = np.random.default_rng(0).permutation(basis.stumps.shape[1])
        original = basis.stumps @ basis.coefficients
        shuffled = basis.stumps[:, perm] @ basis.coefficients[perm]
        assert np.allclose(original, shuffled, rtol=1e-12, atol=1e-12)

    def test_deviation_grows_with_lambda(self):
        # diagnostic only: larger ridge strength breaks the projection
        # identities, so the reported deviation should become material
        ds = random_dataset(seed=10)
        crit = SplitCriteria(max_depth=3, min_samples_split=20, min_samples_leaf=8)
        deviations = []
        for lam in (1e-8, 1e-2, 1.0):
            model = fit_fc_odt(ds, lam, crit)
            deviations.append(verify_orthogonal_expansion(model, ds))
        print(f"expansion deviation by lambda: {deviations}")
        assert all(np.isfinite(d) for d in deviations)
        assert deviations[0] < deviations[-1]

    def test_path_prediction_differs_only_in_leaf_term(self):
        # the diagnostic functional equals the model's training prediction
        # up to the leaf value (linear correction vs residual mean)
        from fcodt.tree import LeafNode, predict_batch
        model, ds = fitted(seed=11)
        diag = path_linear_prediction(model, ds)
        train_pred = predict_batch(model, ds.features)
        replay = replay_training_data(model, ds)
        for slot, view in replay.items():
            if isinstance(model.nodes[slot], LeafNode):
                gap = diag[view.indices] - train_pred[view.indices]
                # both corrections see the same incoming residuals; their
                # difference is the non-constant part of the leaf fit
                resid = view.incoming
                assert np.std(gap) <= np.std(resid) + 1e-9


class TestOneReplay:
    """The diagnostics replay the data once and batch their ridge fits by
    feature width; each result is bit for bit that of one ``solve_ridge``
    per node and per leaf (``oracles.stumps_reference``)."""

    @pytest.mark.parametrize("gen", [gen_sim1, gen_sim2])
    @pytest.mark.parametrize("depth, lam", [(1, 0.0)] + [
        (depth, lam) for depth in (1, 3, 6) for lam in (1e-4, 0.01, 1.0)])
    def test_bitwise_equal_to_per_node_reference(self, gen, depth, lam):
        ds = gen(300, 0.1, depth)
        model = fit_fc_odt(ds, lam, SplitCriteria(max_depth=depth))
        (stumps, coefs, node_ids, dropped), gap, path_pred, decreases = \
            stumps_reference(model, ds)
        one_pass, one_pass_gap = stump_diagnostics(model, ds)
        for basis in (compute_stumps(model, ds), one_pass):
            assert basis.stumps.tobytes() == stumps.tobytes()
            assert basis.coefficients.tobytes() == coefs.tobytes()
            assert (basis.node_ids, basis.dropped) == (node_ids, dropped)
        assert verify_orthogonal_expansion(model, ds) == one_pass_gap == gap
        assert path_linear_prediction(model, ds).tobytes() == path_pred.tobytes()
        assert linear_impurity_decrease(model, ds) == decreases
