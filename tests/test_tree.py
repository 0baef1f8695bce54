from types import SimpleNamespace

import numpy as np
import pytest

from fcodt import tree
from fcodt.baselines import fit_cart, fit_ridge_odt
from fcodt.datasets import Dataset
from fcodt.tree import (
    LeafNode,
    ObliqueNode,
    SplitCriteria,
    best_threshold,
    concat_feature,
    decision_path,
    find_oblique_split,
    fit_fc_odt,
    model_from_text,
    model_to_text,
    predict,
    predict_batch,
    replay_training_data,
)
from oracles import best_threshold_bruteforce, decision_paths_reference


def loose_criteria(**kw):
    defaults = dict(max_depth=3, min_samples_split=2, min_samples_leaf=1, min_gain=0.0)
    defaults.update(kw)
    return SplitCriteria(**defaults)


class TestSplitCriteria:
    def test_defaults(self):
        c = SplitCriteria()
        assert (c.max_depth, c.min_samples_split, c.min_samples_leaf) == (4, 20, 8)

    def test_split_leaf_consistency_enforced(self):
        with pytest.raises(ValueError):
            SplitCriteria(min_samples_split=10, min_samples_leaf=8)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            SplitCriteria(max_depth=0)


class TestConcatFeature:
    def test_appends_column(self):
        X = np.arange(6.0).reshape(3, 2)
        out = concat_feature(X, np.array([1.0, 2.0, 3.0]))
        assert out.shape == (3, 3)
        assert np.array_equal(out[:, :2], X)
        assert np.array_equal(out[:, 2], [1.0, 2.0, 3.0])

    def test_double_append_in_order(self):
        X = np.zeros((2, 1))
        out = concat_feature(concat_feature(X, [1.0, 1.0]), [2.0, 2.0])
        assert np.array_equal(out, [[0, 1, 2], [0, 1, 2]])

    def test_roundtrip_drop_last(self):
        X = np.random.default_rng(0).normal(size=(4, 3))
        out = concat_feature(X, np.ones(4))
        assert np.array_equal(out[:, :3], X)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            concat_feature(np.zeros((3, 2)), np.zeros(4))


class TestBestThreshold:
    def test_constant_target_zero_gain(self):
        proj = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.full(4, 7.0)
        assert best_threshold(proj, y, 4, loose_criteria(min_gain=0.5)) is None
        found = best_threshold(proj, y, 4, loose_criteria())
        assert found is not None and found[1] == 0.0

    def test_perfect_separation(self):
        proj = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        thr, gain = best_threshold(proj, y, 4, loose_criteria())
        assert thr == 2.5
        assert gain == pytest.approx(0.25, abs=1e-15)

    def test_constant_projections(self):
        assert best_threshold(np.ones(5), np.arange(5.0), 5, loose_criteria()) is None

    def test_leaf_minimum_blocks(self):
        proj = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        crit = loose_criteria(min_samples_split=6, min_samples_leaf=3)
        assert best_threshold(proj, y, 4, crit) is None

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_bruteforce(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = 50
        proj = rng.normal(size=n)
        y = rng.normal(size=n)
        min_leaf = int(rng.integers(1, 6))
        crit = loose_criteria(min_samples_leaf=min_leaf,
                              min_samples_split=2 * min_leaf)
        got = best_threshold(proj, y, n, crit)
        expect = best_threshold_bruteforce(proj, y, n, crit.min_samples_leaf)
        assert got is not None and expect is not None
        assert got[0] == expect[0]
        assert got[1] == pytest.approx(expect[1], rel=1e-9, abs=1e-12)

    def test_ties_break_to_smallest_threshold(self):
        # symmetric target: the two outer candidates tie on gain
        proj = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, 0.0, 0.0, 1.0])
        thr, _ = best_threshold(proj, y, 4, loose_criteria())
        assert thr == 0.5

    def test_normalizes_by_n_total(self):
        proj = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        _, g4 = best_threshold(proj, y, 4, loose_criteria())
        _, g8 = best_threshold(proj, y, 8, loose_criteria())
        assert g4 == pytest.approx(2 * g8)


class TestFindObliqueSplit:
    def test_exact_linear_target(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(30, 1))
        y = 2.0 * X[:, 0]
        res = find_oblique_split(X, y, 1e-8, 30, loose_criteria())
        assert res is not None
        assert res.weights[0] == pytest.approx(2.0, abs=1e-6)
        assert res.intercept == pytest.approx(0.0, abs=1e-6)
        expect = best_threshold_bruteforce(res.scores, y, 30, 1)
        assert res.threshold == expect[0]

    def test_constant_target_no_split(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 3))
        assert find_oblique_split(X, np.full(20, 3.0), 0.1, 20, loose_criteria()) is None

    def test_undersized_node_rejected(self):
        X = np.random.default_rng(7).normal(size=(5, 2))
        with pytest.raises(ValueError):
            find_oblique_split(X, np.zeros(5), 0.1, 5, loose_criteria(min_samples_split=10))

    def test_partition_matches_threshold(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        res = find_oblique_split(X, y, 0.1, 40, loose_criteria())
        assert np.array_equal(res.left_indices, np.flatnonzero(res.scores < res.threshold))
        assert np.array_equal(res.right_indices, np.flatnonzero(res.scores >= res.threshold))
        assert res.left_indices.size + res.right_indices.size == 40


def make_dataset(n=120, d=4, seed=0, fn=None, sigma=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, d))
    if fn is None:
        fn = lambda X: X @ np.arange(1.0, d + 1)
    y = fn(X) + sigma * rng.normal(size=n)
    return Dataset(X, y)


class TestFitPredict:
    def test_tiny_dataset_gives_single_leaf(self):
        ds = make_dataset(n=10)
        model = fit_fc_odt(ds, 0.1, SplitCriteria())  # min_samples_split=20
        assert len(model.nodes) == 1
        assert isinstance(model.nodes[0], LeafNode)
        for x in ds.features[:5]:
            assert predict(model, x) == pytest.approx(ds.targets.mean())

    def test_noiseless_linear_depth1(self):
        beta = np.array([1.5, -2.0, 0.5])
        ds = make_dataset(n=200, d=3, seed=3, fn=lambda X: X @ beta)
        model = fit_fc_odt(ds, 1e-8, loose_criteria(max_depth=1, min_samples_split=20,
                                                    min_samples_leaf=8))
        test = make_dataset(n=50, d=3, seed=11, fn=lambda X: X @ beta)
        preds = predict_batch(model, test.features)
        scale = max(1.0, float(np.max(np.abs(test.targets))))
        assert np.max(np.abs(preds - test.targets)) <= 1e-6 * scale

    def test_flag_ablation_identity(self):
        from fcodt.baselines import fit_ridge_odt
        ds = make_dataset(n=150, d=3, seed=4, sigma=0.3)
        plain = fit_fc_odt(ds, 0.5, SplitCriteria(max_depth=3),
                           concatenate=False, residual_path=False)
        baseline = fit_ridge_odt(ds, 0.5, SplitCriteria(max_depth=3))
        assert model_to_text(plain) == model_to_text(baseline)

    def test_predict_single_matches_batch(self):
        ds = make_dataset(n=200, d=4, seed=5, sigma=0.5)
        model = fit_fc_odt(ds, 0.01, SplitCriteria(max_depth=3))
        batch = predict_batch(model, ds.features[:20])
        singles = np.array([predict(model, x) for x in ds.features[:20]])
        # scalar dots and BLAS matrix-vector products may differ in the
        # final bits; routing and values must still agree to ~1e-12
        assert np.allclose(batch, singles, rtol=1e-12, atol=1e-12)

    def test_permutation_invariance(self):
        ds = make_dataset(n=180, d=3, seed=6, sigma=0.4)
        perm = np.random.default_rng(9).permutation(ds.n)
        shuffled = Dataset(ds.features[perm], ds.targets[perm])
        m1 = fit_fc_odt(ds, 0.1, SplitCriteria(max_depth=3))
        m2 = fit_fc_odt(shuffled, 0.1, SplitCriteria(max_depth=3))
        assert model_to_text(m1) == model_to_text(m2)

    def test_deterministic_bytes(self):
        ds = make_dataset(n=160, d=3, seed=7, sigma=0.2)
        m1 = fit_fc_odt(ds, 0.1, SplitCriteria(max_depth=4))
        m2 = fit_fc_odt(ds, 0.1, SplitCriteria(max_depth=4))
        assert model_to_text(m1) == model_to_text(m2)

    def test_dimension_mismatch_on_predict(self):
        ds = make_dataset(n=60, d=3, seed=8)
        model = fit_fc_odt(ds, 0.1, loose_criteria())
        with pytest.raises(ValueError):
            predict(model, np.ones(5))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_fc_odt(Dataset(np.zeros((0, 2)), np.zeros(0)), 0.1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        # not a root-only tree that records the value
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {lam}"):
            fit_fc_odt(make_dataset(n=60, d=3, seed=8), lam, loose_criteria())


class TestMethods:
    def test_unknown_method_rejected(self):
        ds = make_dataset(n=60, d=3, seed=8)
        with pytest.raises(ValueError, match="unknown method 'nope'"):
            tree.fit_method("nope", ds, 0.1)
        with pytest.raises(ValueError, match="unknown method 'nope'"):
            tree.fit_method_many("nope", [(ds, 0.1)])

    def test_methods_match_public_learners(self):
        ds = make_dataset(n=150, d=3, seed=4, sigma=0.3)
        crit = SplitCriteria(max_depth=3)
        public = {"fc_odt": fit_fc_odt(ds, 0.5, crit),
                  "ridge_odt": fit_ridge_odt(ds, 0.5, crit),
                  "cart": fit_cart(ds, crit)}
        assert list(tree.METHODS) == list(public)
        for method, model in public.items():
            assert model_to_text(tree.fit_method(method, ds, 0.5, crit)) == model_to_text(model)

    @pytest.mark.parametrize("lam", [0.5, np.nan])
    def test_method_without_lambda_grown_at_zero(self, lam):
        ds = make_dataset(n=150, d=3, seed=4, sigma=0.3)
        model = tree.fit_method("cart", ds, lam, SplitCriteria(max_depth=2))
        assert model.lam == 0.0
        assert model_to_text(model) == model_to_text(fit_cart(ds, SplitCriteria(max_depth=2)))


class TestTreeInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_gains_nonnegative_and_above_min(self, seed):
        min_gain = 0.001
        ds = make_dataset(n=200, d=4, seed=seed, sigma=0.5)
        model = fit_fc_odt(ds, 0.01, SplitCriteria(max_depth=4, min_gain=min_gain))
        for node in model.nodes:
            if isinstance(node, ObliqueNode):
                assert node.gain >= min_gain

    @pytest.mark.parametrize("seed", range(5))
    def test_concatenation_dimension_law(self, seed):
        ds = make_dataset(n=300, d=4, seed=seed, sigma=0.5)
        model = fit_fc_odt(ds, 0.01, SplitCriteria(max_depth=4))
        for node in model.nodes:
            if isinstance(node, ObliqueNode):
                assert node.projection.shape[0] == 4 + node.depth + 1

    def test_no_concat_keeps_dimension(self):
        ds = make_dataset(n=300, d=4, seed=1, sigma=0.5)
        model = fit_fc_odt(ds, 0.01, SplitCriteria(max_depth=4),
                           concatenate=False, residual_path=False)
        for node in model.nodes:
            if isinstance(node, ObliqueNode):
                assert node.projection.shape[0] == 4 + 1

    @pytest.mark.parametrize("seed", range(5))
    def test_leaf_occupancy(self, seed):
        crit = SplitCriteria(max_depth=5, min_samples_split=20, min_samples_leaf=8)
        ds = make_dataset(n=400, d=4, seed=seed, sigma=1.0)
        model = fit_fc_odt(ds, 0.01, crit)
        for node in model.nodes:
            if isinstance(node, LeafNode) and node.depth > 0:
                assert node.sample_count >= crit.min_samples_leaf

    def test_max_depth_respected(self):
        ds = make_dataset(n=500, d=4, seed=2, sigma=1.0)
        for depth in (1, 2, 3):
            model = fit_fc_odt(ds, 0.01, SplitCriteria(max_depth=depth))
            internal_depths = [n.depth for n in model.nodes if isinstance(n, ObliqueNode)]
            assert max(internal_depths) <= depth - 1

    @pytest.mark.parametrize("seed", range(3))
    def test_training_mse_nonincreasing_in_depth(self, seed):
        ds = make_dataset(n=400, d=4, seed=100 + seed, sigma=0.8)
        prev = np.inf
        for depth in range(1, 6):
            model = fit_fc_odt(ds, 0.1, SplitCriteria(max_depth=depth))
            train_mse = float(np.mean((predict_batch(model, ds.features) - ds.targets) ** 2))
            assert train_mse <= prev + 1e-9
            prev = train_mse

    def test_residual_leaves_store_residual_means(self):
        # with residual fitting, a depth-1 tree's leaf values are means of
        # (y - root score), not of y
        ds = make_dataset(n=100, d=2, seed=12, sigma=0.5)
        model = fit_fc_odt(ds, 0.1, loose_criteria(max_depth=1, min_samples_split=20,
                                                   min_samples_leaf=8))
        root = model.nodes[0]
        assert isinstance(root, ObliqueNode)
        scores = ds.features @ root.projection[:-1] + root.projection[-1]
        left = scores < root.threshold
        resid = ds.targets - scores
        assert model.nodes[root.left].residual_mean == pytest.approx(resid[left].mean())
        assert model.nodes[root.right].residual_mean == pytest.approx(resid[~left].mean())


class TestDecisionPath:
    def test_single_leaf_empty_path(self):
        ds = make_dataset(n=5)
        model = fit_fc_odt(ds, 0.1, SplitCriteria())
        assert decision_path(model, ds.features[0]) == []

    def test_depth1_entry(self):
        ds = make_dataset(n=100, d=2, seed=13, sigma=0.5)
        model = fit_fc_odt(ds, 0.1, loose_criteria(max_depth=1, min_samples_split=20,
                                                   min_samples_leaf=8))
        x = ds.features[0]
        path = decision_path(model, x)
        assert len(path) == 1
        slot, score, went_left = path[0]
        assert slot == 0
        assert went_left == (score < model.nodes[0].threshold)

    def test_scores_sum_to_prediction(self):
        ds = make_dataset(n=300, d=3, seed=14, sigma=0.5)
        model = fit_fc_odt(ds, 0.05, SplitCriteria(max_depth=4))
        for x in ds.features[:10]:
            path = decision_path(model, x)
            slot = 0
            for node_id, score, went_left in path:
                node = model.nodes[node_id]
                slot = node.left if went_left else node.right
            leaf = model.nodes[slot]
            total = sum(p[1] for p in path) + leaf.residual_mean
            assert predict(model, x) == pytest.approx(total, rel=1e-12, abs=1e-12)


class TestSerialization:
    def test_roundtrip_identical_predictions(self):
        ds = make_dataset(n=250, d=4, seed=15, sigma=0.6)
        model = fit_fc_odt(ds, 0.01, SplitCriteria(max_depth=4))
        text = model_to_text(model)
        clone = model_from_text(text)
        assert np.array_equal(predict_batch(model, ds.features),
                              predict_batch(clone, ds.features))
        assert model_to_text(clone) == text

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            model_from_text("not a model\n")

    def test_rejects_wrong_projection_length(self):
        ds = make_dataset(n=100, d=2, seed=16, sigma=0.5)
        model = fit_fc_odt(ds, 0.1, loose_criteria(max_depth=1, min_samples_split=20,
                                                   min_samples_leaf=8))
        text = model_to_text(model)
        lines = text.splitlines()
        parts = lines[10].split()
        lines[10] = " ".join(parts + ["1.0"])  # stray extra weight
        with pytest.raises(ValueError):
            model_from_text("\n".join(lines))


def cart_model_text(max_depth):
    """Text of a full cart tree of ``max_depth`` (2^(max_depth+1) - 1
    nodes, numbered breadth-first) and its node lines."""
    model = fit_cart(make_dataset(n=120, d=4, seed=17),
                     loose_criteria(max_depth=max_depth, min_samples_split=20,
                                    min_samples_leaf=8))
    assert len(model.nodes) == 2 ** (max_depth + 1) - 1
    lines = model_to_text(model).splitlines()
    return lines[:10], lines[10:]


def edited(head, nodes, edits):
    """The document with field ``field`` of node line ``slot`` set to
    ``value`` for each (slot, field): value in ``edits``."""
    nodes = [line.split() for line in nodes]
    for (slot, field), value in edits.items():
        nodes[slot][field] = str(value)
    return "\n".join(head + [" ".join(parts) for parts in nodes]) + "\n"


class TestLoaderTreeChecks:
    """Each check is reached by a document the loader used to accept; the
    tests only load, so none of them can hang."""

    def test_accepts_fitted_tree(self):
        head, nodes = cart_model_text(2)
        assert len(model_from_text("\n".join(head + nodes)).nodes) == 7

    def test_rejects_self_loop(self):
        head, nodes = cart_model_text(2)
        with pytest.raises(ValueError, match="node 1 "):
            model_from_text(edited(head, nodes, {(1, 4): 1}))  # node 1's left child is node 1

    def test_rejects_shared_child(self):
        head, nodes = cart_model_text(2)
        # node 2 takes node 1's children 3 and 4; leaves 5 and 6 are cut off
        with pytest.raises(ValueError, match="node 3 "):
            model_from_text(edited(head, nodes, {(2, 4): 3, (2, 5): 4}))

    def test_rejects_unreachable_node(self):
        head, nodes = cart_model_text(1)
        head[-1] = "nodes 4"
        with pytest.raises(ValueError, match="node 3 "):
            model_from_text("\n".join(head + nodes + [nodes[1]]) + "\n")

    def test_rejects_depth_mismatch(self):
        head, nodes = cart_model_text(2)
        with pytest.raises(ValueError, match="node 3 "):
            model_from_text(edited(head, nodes, {(3, 1): 3}))  # a depth-2 leaf at depth 3


class TestLoaderFieldChecks:
    """Node lines of a depth-1 cart tree (a split and two leaves) with one
    field broken; each is rejected with a ValueError naming the node and
    the field, not an IndexError or a model that predicts NaN."""

    @pytest.mark.parametrize("slot, line, match", [
        (1, "leaf 1", "node 1: leaf has 1 fields"),
        (2, "leaf 1 0.5 10 7", "node 2: leaf has 4 fields"),
        (0, "split", "node 0: split at depth 0 has 0 fields"),
        (0, "split 0 0.5 1.0 1 2", "node 0: split at depth 0 has 5 fields"),
    ])
    def test_rejects_wrong_field_count(self, slot, line, match):
        head, nodes = cart_model_text(1)
        nodes[slot] = line
        with pytest.raises(ValueError, match=match):
            model_from_text("\n".join(head + nodes) + "\n")

    @pytest.mark.parametrize("slot, field, value, match", [
        (1, 2, "nan", "node 1 value: non-finite"),
        (2, 2, "-inf", "node 2 value: non-finite"),
        (0, 2, "inf", "node 0 threshold: non-finite"),
        (0, 3, "nan", "node 0 gain: non-finite"),
        (0, 6, "nan", r"node 0 projection\[0\]: non-finite"),
        (0, 7, "1e400", r"node 0 projection\[1\]: non-finite"),
        (0, 6, "abc", r"node 0 projection\[0\]: malformed"),
        (1, 3, "ten", "node 1 count: malformed"),
    ])
    def test_rejects_bad_number(self, slot, field, value, match):
        head, nodes = cart_model_text(1)
        with pytest.raises(ValueError, match=match):
            model_from_text(edited(head, nodes, {(slot, field): value}))

    @pytest.mark.parametrize("key, value, match", [
        ("concatenate", "7", "concatenate: expected 0 or 1, got '7'"),
        ("residual_path", "5", "residual_path: expected 0 or 1, got '5'"),
        ("residual_path", "-1", "residual_path: expected 0 or 1, got '-1'"),
        ("concatenate", "yes", "concatenate: malformed number 'yes'"),
        ("lambda", "-3", "lambda: negative value '-3'"),
        ("max_depth", "two", "max_depth: malformed number 'two'"),
        ("input_dim", "ten", "input_dim: malformed number 'ten'"),
        ("nodes", "x", "nodes: malformed number 'x'"),
        ("min_gain", "", "min_gain: malformed number ''"),
        ("fcodt-model", "one", "format version: malformed number 'one'"),
    ])
    def test_rejects_out_of_range_header(self, key, value, match):
        head, nodes = cart_model_text(1)
        head = [f"{key} {value}" if line.split()[0] == key else line for line in head]
        with pytest.raises(ValueError, match=match):
            model_from_text("\n".join(head + nodes) + "\n")

    @pytest.mark.parametrize("method", ["cart", "fc_odt", "ridge_odt"])
    def test_fitted_header_round_trips(self, method):
        text = model_to_text(FITS[method](make_dataset(n=120, d=3, seed=20, sigma=0.5),
                                          SplitCriteria(max_depth=2)))
        assert model_to_text(model_from_text(text)) == text

    @pytest.mark.parametrize("key", ["lambda", "min_gain"])
    def test_rejects_non_finite_header(self, key):
        head, nodes = cart_model_text(1)
        head = [f"{key} nan" if line.split()[0] == key else line for line in head]
        with pytest.raises(ValueError, match=f"{key}: non-finite"):
            model_from_text("\n".join(head + nodes) + "\n")


def depth2_cart():
    ds = make_dataset(n=120, d=4, seed=17)
    return fit_cart(ds, loose_criteria(max_depth=2, min_samples_split=20,
                                       min_samples_leaf=8)), ds


ROUTERS = {
    "predict": lambda model, X: predict(model, X[0]),
    "predict_batch": predict_batch,
    "decision_path": lambda model, X: decision_path(model, X[0]),
    "decision_paths": lambda model, X: tree.decision_paths(model, X),
    "route_batch": tree.route_batch,
    "replay_training_data": lambda model, X: replay_training_data(
        model, SimpleNamespace(features=X, targets=np.zeros(X.shape[0]), n=X.shape[0])),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("router", sorted(ROUTERS))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejected_by_every_router(self, router, value):
        model, ds = depth2_cart()
        X = ds.features[:1].copy()
        X[0, :] = value
        with pytest.raises(ValueError, match="NaN or infinite"):
            ROUTERS[router](model, X)

    def test_names_the_row(self):
        model, ds = depth2_cart()
        X = ds.features[:5].copy()
        X[3, 2] = np.nan
        with pytest.raises(ValueError, match="row 3 "):
            predict_batch(model, X)


FITS = {
    "fc_odt": lambda ds, crit: fit_fc_odt(ds, 0.05, crit),
    "ridge_odt": lambda ds, crit: fit_ridge_odt(ds, 0.05, crit),
    "cart": lambda ds, crit: fit_cart(ds, crit),
}


class TestRouterConsistency:
    @pytest.mark.parametrize("method", sorted(FITS))
    def test_paths_predictions_and_replay_agree(self, method):
        train = make_dataset(n=300, d=3, seed=18, sigma=0.5)
        model = FITS[method](train, SplitCriteria(max_depth=4))
        assert model.n_internal > 3
        X = make_dataset(n=200, d=3, seed=19, sigma=0.5).features
        preds = predict_batch(model, X)
        paths = tree.decision_paths(model, X)
        assert paths == decision_paths_reference(model, X)
        assert tree.route_batch(model, X).predictions.tobytes() == preds.tobytes()
        for i, path in enumerate(paths):
            slot, total = 0, 0.0
            for node_id, score, went_left in path:
                assert node_id == slot
                node = model.nodes[slot]
                assert went_left == (score < node.threshold)
                if model.residual_path:
                    total += score
                slot = node.left if went_left else node.right
            # the scores are the products predict_batch sums, in its order
            assert total + model.nodes[slot].residual_mean == preds[i]
            # one row alone goes the same way; its matrix-vector products
            # may differ from the batch's in the last bits
            single = decision_path(model, X[i])
            assert [p[0] for p in single] == [p[0] for p in path]
            assert [p[2] for p in single] == [p[2] for p in path]
            assert np.allclose([p[1] for p in single], [p[1] for p in path],
                               rtol=1e-12, atol=1e-12)
        replay = replay_training_data(model, train)
        leaves = [view.indices for slot, view in replay.items()
                  if isinstance(model.nodes[slot], LeafNode)]
        assert np.array_equal(np.sort(np.concatenate(leaves)), np.arange(train.n))

    def test_empty_input(self):
        model, _ = depth2_cart()
        assert predict_batch(model, np.zeros((0, 4))).shape == (0,)
        assert tree.decision_paths(model, np.zeros((0, 4))) == []
