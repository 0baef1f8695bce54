import math
import re

import numpy as np
import pytest

from fcodt import evaluation
from fcodt.datasets import (
    Dataset,
    gen_sim1,
    gen_sim2,
    kfold_indices,
    minmax_scale,
    train_test_split,
)
from fcodt.evaluation import (
    ExperimentConfig,
    ExperimentRecord,
    aggregate_benchmark,
    aggregate_to_csv,
    cell_seed,
    grid_search_lambda,
    mse,
    r2,
    rank_sum_test,
    records_to_csv,
    run_benchmark,
    run_depth_sweep,
    run_sample_sweep,
    significance_markers,
    timings_to_csv,
)
from fcodt.tree import SplitCriteria, predict_batch
from oracles import rank_sum_exact_pvalue


class TestMetrics:
    def test_mse_zero_on_match(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mse_simple(self):
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_mse_matches_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=30), rng.normal(size=30)
        expect = sum((x - y) ** 2 for x, y in zip(a, b)) / 30
        assert mse(a, b) == pytest.approx(expect, abs=1e-12)

    def test_mse_length_mismatch(self):
        with pytest.raises(ValueError):
            mse([1.0], [1.0, 2.0])

    def test_mse_needs_one_value(self):
        with pytest.raises(ValueError, match="^need at least one value$"):
            mse([], [])

    def test_r2_length_mismatch(self):
        with pytest.raises(ValueError, match="^prediction and target lengths differ$"):
            r2([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_r2_perfect(self):
        assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_r2_mean_predictor_zero(self):
        target = np.array([1.0, 2.0, 3.0, 6.0])
        assert r2(np.full(4, target.mean()), target) == 0.0

    def test_r2_half(self):
        assert r2([1.0, 2.0], [1.0, 3.0]) == pytest.approx(0.5)

    def test_r2_constant_target_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            r2([1.0, 2.0], [3.0, 3.0])

    def test_r2_needs_two_values(self):
        with pytest.raises(ValueError):
            r2([1.0], [2.0])


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed(0, "sim1", "fc_odt", 4, 0) == cell_seed(0, "sim1", "fc_odt", 4, 0)

    def test_sensitive_to_every_part(self):
        base = cell_seed(0, "sim1", "fc_odt", 4, 0)
        assert cell_seed(1, "sim1", "fc_odt", 4, 0) != base
        assert cell_seed(0, "sim2", "fc_odt", 4, 0) != base
        assert cell_seed(0, "sim1", "ridge_odt", 4, 0) != base
        assert cell_seed(0, "sim1", "fc_odt", 5, 0) != base
        assert cell_seed(0, "sim1", "fc_odt", 4, 1) != base


def tiny_dataset(n=120, seed=0, noisy=True):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    y = X[:, 0] * 2 + (rng.normal(size=n) if noisy else 0.0)
    return Dataset(X, y)


class TestGridSearch:
    def test_single_element_grid(self):
        ds = tiny_dataset()
        lam, table = grid_search_lambda(ds, "fc_odt", SplitCriteria(max_depth=2),
                                        [0.5], 3, 0)
        assert lam == 0.5
        assert len(table) == 3

    def test_deterministic(self):
        ds = tiny_dataset(seed=1)
        a = grid_search_lambda(ds, "fc_odt", SplitCriteria(max_depth=2),
                               [0.01, 1.0], 4, 9)
        b = grid_search_lambda(ds, "fc_odt", SplitCriteria(max_depth=2),
                               [0.01, 1.0], 4, 9)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_winner_in_grid(self):
        ds = tiny_dataset(seed=2)
        grid = [1e-3, 1e-1, 10.0]
        lam, _ = grid_search_lambda(ds, "ridge_odt", SplitCriteria(max_depth=2),
                                    grid, 3, 1)
        assert lam in grid

    def test_pure_noise_prefers_max_shrinkage(self):
        # target independent of features: the largest lambda should win
        # most seeded runs (needs enough rows/columns for the per-node
        # overfitting gap to beat cross-validation noise)
        grid = [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0]
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(5000 + seed)
            X = rng.uniform(-3, 3, size=(400, 15))
            ds = Dataset(X, rng.normal(size=400))
            lam, _ = grid_search_lambda(ds, "fc_odt", SplitCriteria(max_depth=4),
                                        grid, 5, seed)
            if lam == 1000.0:
                wins += 1
        assert wins >= 8

    def test_failures_recorded_not_raised(self):
        # 7 rows cannot host a 20-row split, but the grid search must not
        # abort; every fit degenerates to a leaf and still scores
        ds = tiny_dataset(n=7)
        lam, table = grid_search_lambda(ds, "fc_odt", SplitCriteria(),
                                        [0.1, 1.0], 2, 0)
        assert lam in (0.1, 1.0)
        assert all(np.isfinite(row["mse"]) for row in table)

    @pytest.mark.parametrize("cv_rows", [1, evaluation._CV_ROWS])
    def test_singular_fits_recorded_not_raised(self, monkeypatch, cv_rows):
        # at lambda 0 a child's concatenated score column lies in the span
        # of its other columns, so every depth-2 fc_odt fit is singular;
        # each failure is recorded, whether a fit grows alone (1 row per
        # batch) or with the other folds
        monkeypatch.setattr(evaluation, "_CV_ROWS", cv_rows)
        ds = tiny_dataset(n=200, seed=3)
        lam, table = grid_search_lambda(ds, "fc_odt", SplitCriteria(max_depth=2),
                                        [0.0, 0.1], 3, 0)
        assert lam == 0.1
        failed = [row for row in table if row["lambda"] == 0.0]
        assert len(failed) == 3
        assert all(row["mse"] == np.inf for row in failed)
        assert all(row["error"].startswith("SingularSystemError") for row in failed)
        assert all(np.isfinite(row["mse"]) for row in table if row["lambda"] == 0.1)

    def test_unsolvable_system_recorded_with_one_spelling(self):
        # some folds' systems pass LAPACK's Cholesky check and fail in the
        # solve, the others fail the check: each is recorded the same way
        x = np.tile(np.arange(7.0), 30)
        lam, table = grid_search_lambda(Dataset(np.column_stack([x, x]), x), "ridge_odt",
                                        SplitCriteria(max_depth=1), [1e-300, 0.1], 3, 0)
        assert lam == 0.1
        assert {row["error"] for row in table if row["lambda"] == 1e-300} == {
            "SingularSystemError: singular system: matrix is not positive definite"}

    def test_non_finite_lambda_recorded_not_raised(self):
        ds = tiny_dataset(n=200, seed=3)
        lam, table = grid_search_lambda(ds, "fc_odt", SplitCriteria(max_depth=2),
                                        [0.1, np.inf], 3, 0)
        assert lam == 0.1
        failed = [row for row in table if row["lambda"] == np.inf]
        assert len(failed) == 3
        assert all(row["mse"] == np.inf for row in failed)
        assert all("finite and nonnegative" in row["error"] for row in failed)

    @pytest.mark.parametrize("overflow, error", [
        ("score", r"input row \d+ overflows at node 0: its score is not finite"),
        ("squared_error", "the squared errors overflow"),
    ], ids=["score", "squared_error"])
    def test_overflowing_validation_recorded_not_raised(self, monkeypatch, overflow, error):
        # the second fold's validation overflows: its row of the table
        # records why, and the search goes on
        calls = []

        def second_overflows(model, X):
            calls.append(None)
            if len(calls) == 2 and overflow == "score":
                model.nodes[0].projection[:] = 1e308  # finite weights, infinite scores
            elif len(calls) == 2:
                return np.full(X.shape[0], 1e200)  # finite predictions, infinite squares
            return predict_batch(model, X)

        monkeypatch.setattr(evaluation, "predict_batch", second_overflows)
        lam, table = grid_search_lambda(tiny_dataset(n=200, seed=3), "ridge_odt",
                                        SplitCriteria(max_depth=2), [0.1, 1.0], 3, 0)
        assert (table[1]["lambda"], table[1]["fold"], table[1]["mse"]) == (0.1, 1, np.inf)
        assert re.fullmatch(f"ValueError on the validation rows: {error}", table[1]["error"])
        assert lam == 1.0
        rest = table[:1] + table[2:]
        assert all(np.isfinite(row["mse"]) and row["error"] == "" for row in rest)

    def test_overflowing_validation_row_named_in_the_table(self):
        # row 7 at +-1e308 overflows every fold that trains on it, and the
        # validation prediction of fold 0, which holds it 37th: the error
        # names its row in the table, not its place among the fold's rows
        sim = gen_sim2(500, 0.01, 0)
        X = sim.features.copy()
        X[7, :2] = [1e308, -1e308]
        assert list(kfold_indices(500, 5, 5)[0].test_indices).index(7) == 36
        with pytest.raises(ValueError, match=(
                "^grid search failed for every lambda; first, lambda 0.1 fold 0: "
                "ValueError on the validation rows: input row 7 overflows at node 0: "
                "its score is not finite$")):
            grid_search_lambda(Dataset(X, sim.targets), "ridge_odt",
                               SplitCriteria(max_depth=2), [0.1], 5, 5)

    def test_overflowing_split_search_recorded_not_raised(self):
        # targets whose squares overflow: each fit's split search fails, and
        # the grid records it
        sim = gen_sim2(500, 0.01, 3)
        with pytest.raises(ValueError, match=(
                "^grid search failed for every lambda; first, lambda 0.1 fold 0: "
                "ValueError: split search overflowed: a gain is not finite$")):
            grid_search_lambda(Dataset(sim.features, sim.targets * 1e155), "ridge_odt",
                               SplitCriteria(max_depth=2), [0.1, 1.0], 5, 0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="^lambda grid must be nonempty$"):
            grid_search_lambda(tiny_dataset(), "fc_odt", SplitCriteria(max_depth=2), [], 2, 0)

    def test_nan_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda grid entry nan cannot be ordered"):
            grid_search_lambda(gen_sim1(200, 0.01, 0), "fc_odt", SplitCriteria(max_depth=2),
                               [0.1, float("nan")], 2, 0)

    def test_repeated_lambda_fitted_once(self, monkeypatch):
        fits = []
        many = evaluation.fit_method_many

        def counting(method, jobs, criteria):
            jobs = list(jobs)
            fits.extend(lam for _, lam in jobs)
            return many(method, jobs, criteria)

        monkeypatch.setattr(evaluation, "fit_method_many", counting)
        ds = gen_sim1(100, 0.1, 0)
        crit = SplitCriteria(max_depth=2)
        repeated = grid_search_lambda(ds, "fc_odt", crit, [0.1, 0.1], 2, 0)
        assert fits == [0.1, 0.1]
        assert repeated == grid_search_lambda(ds, "fc_odt", crit, [0.1], 2, 0)
        assert [(row["lambda"], row["fold"]) for row in repeated[1]] == [(0.1, 0), (0.1, 1)]

    def test_choice_is_first_minimum_of_mean_mse(self):
        ds = tiny_dataset(seed=6)
        crit = SplitCriteria(max_depth=2)
        grid = [10.0, 1e-3, 1.0, 1e-3, 0.1, 10.0]
        lam, table = grid_search_lambda(ds, "fc_odt", crit, grid, 3, 4)
        lams = sorted(set(grid))
        assert [row["lambda"] for row in table] == [x for x in lams for _ in range(3)]
        means = [np.mean([row["mse"] for row in table if row["lambda"] == x]) for x in lams]
        assert lam == lams[means.index(min(means))]
        # a table of equal means picks the smallest lambda
        flat = Dataset(ds.features, np.zeros(ds.n))
        assert grid_search_lambda(flat, "fc_odt", crit, [1.0, 0.5, 2.0], 3, 4)[0] == 0.5

    def test_one_fold_refused_by_kfold(self):
        with pytest.raises(ValueError, match="k must satisfy 2 <= k <= n, got k=1"):
            grid_search_lambda(tiny_dataset(), "fc_odt", SplitCriteria(max_depth=2),
                               [0.1], 1, 0)

    def test_method_without_lambda_fits_nothing(self, monkeypatch):
        def no_fits(*args):
            raise AssertionError("cart grew a CV tree")
        monkeypatch.setattr(evaluation, "fit_method_many", no_fits)
        # returned before the grid and fold checks
        assert grid_search_lambda(tiny_dataset(), "cart", SplitCriteria(max_depth=2),
                                  [], 1, 0) == (0.0, [])


class TestFitMethodMany:
    def test_cart_records_failures_and_lambda_zero(self):
        good = tiny_dataset(n=60, seed=4)
        empty = Dataset(np.zeros((0, 2)), np.zeros(0))
        models = evaluation.fit_method_many("cart", [(good, 0.3), (empty, 0.3)],
                                            SplitCriteria(max_depth=2))
        assert len(models) == 2
        assert not isinstance(models[0], Exception)
        assert models[0].lam == 0.0
        assert isinstance(models[1], ValueError)

    def test_a_fault_in_the_split_search_is_raised(self, monkeypatch):
        # a fit fails only as a ValueError; anything else is a fault in the
        # code, raised rather than recorded as a failed CV fit
        def broken(*args):
            raise TypeError("boom")

        monkeypatch.setattr("fcodt.tree._split_nodes", broken)
        jobs = [(tiny_dataset(n=60, seed=4), 0.1), (tiny_dataset(n=60, seed=5), 0.1)]
        with pytest.raises(TypeError, match="^boom$"):
            evaluation.fit_method_many("fc_odt", jobs, SplitCriteria(max_depth=2))


def test_config_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        ExperimentConfig(methods=("fc_odt", "nope"))


@pytest.mark.parametrize("overrides, message", [
    ({"methods": "fc_odt"}, "methods must be a list, got 'fc_odt'"),
    ({"depths": (2, "3")}, "depths entry '3' is not an integer"),
    ({"datasets": ("sim1", 2)}, "datasets entry 2 is not a string"),
    ({"repeats": 0}, "repeats must be at least 1"),
    ({"noise_sigma": -0.5}, "noise_sigma must be finite and nonnegative"),
    ({"methods": ()}, "methods must be nonempty"),
    ({"datasets": ("sim1", "a,b")}, "datasets entry 'a,b' holds a comma or a line break"),
], ids=["methods_not_a_list", "depth_not_an_integer", "dataset_not_a_string", "no_repeats",
        "negative_noise", "no_methods", "dataset_name_breaks_csv"])
def test_config_rejects_bad_value(overrides, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(**overrides)


@pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf"), "0.1"])
def test_config_rejects_bad_lambda_grid_entry(bad):
    with pytest.raises(ValueError, match=f"lambda grid entry {bad!r} is not a finite"):
        ExperimentConfig(lambda_grid=(0.1, bad))


@pytest.mark.parametrize("overrides, refusing, message", [
    ({"folds": 60}, {"samples"}, "sample size 50 is below folds=60"),
    ({"depths": (2, 0)}, {"depth"}, "max_depth must be at least 1"),
    ({"max_depth": 0}, {"samples", "bench"}, "max_depth must be at least 1"),
    ({"test_samples": 0}, {"depth", "samples"}, "test_samples must be at least 1"),
    ({"train_fraction": 1.5}, {"bench"}, "train_fraction must lie strictly")])
def test_config_value_refused_only_by_runs_that_read_it(overrides, refusing, message):
    config = ExperimentConfig(datasets=("sim1",), repeats=1, **overrides)
    builders = {"depth": lambda: evaluation.sweep_cells(config, "depth"),
                "samples": lambda: evaluation.sweep_cells(config, "samples"),
                "bench": lambda: evaluation.bench_cells(config, None, ".")}
    for kind, build in builders.items():
        if kind in refusing:
            with pytest.raises(ValueError, match=message):
                build()
        else:
            assert build()


def fast_config(**kw):
    defaults = dict(methods=("fc_odt", "ridge_odt"), datasets=("sim1", "sim2"),
                    depths=(2,), sample_sizes=(50, 100), repeats=2,
                    lambda_grid=(0.1,), seed_base=7, folds=2, test_samples=100)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestSweeps:
    def test_depth_sweep_record_count(self):
        config = fast_config()
        records = run_depth_sweep(config)
        assert len(records) == 2 * 2 * 1 * 2  # methods x datasets x depths x repeats
        assert all(r.metric == "mse" for r in records)
        assert all(r.param_name == "depth" for r in records)

    def test_sample_sweep_record_count(self):
        config = fast_config()
        records = run_sample_sweep(config)
        assert len(records) == 2 * 2 * 2 * 2
        assert {r.param_value for r in records} == {50.0, 100.0}

    def test_reproducible_records(self):
        config = fast_config(datasets=("sim1",), methods=("fc_odt",))
        a = run_depth_sweep(config)
        b = run_depth_sweep(config)
        assert records_to_csv(a) == records_to_csv(b)

    def test_wall_time_excluded_from_results_csv(self):
        config = fast_config(datasets=("sim1",), methods=("fc_odt",), repeats=1)
        records = run_depth_sweep(config)
        assert "wall_time" not in records_to_csv(records)
        assert "wall_time" in timings_to_csv(records)
        assert all(r.wall_time > 0 for r in records)

    def test_rejects_real_dataset_in_sweep(self):
        with pytest.raises(ValueError):
            run_depth_sweep(fast_config(datasets=("housing",)))

    def test_worker_pool_merges_deterministically(self):
        sequential = run_depth_sweep(fast_config(workers=1))
        pooled = run_depth_sweep(fast_config(workers=2))
        assert records_to_csv(sequential) == records_to_csv(pooled)

    def test_unknown_sweep_kind_refused(self):
        with pytest.raises(ValueError, match="^unknown sweep kind 'width'$"):
            evaluation.sweep_cells(fast_config(), "width")


class TestBenchmark:
    def test_sim_benchmark_records_and_aggregate(self):
        config = fast_config(methods=("fc_odt", "ridge_odt", "cart"))
        records, skipped = run_benchmark(config)
        assert not skipped
        assert len(records) == 3 * 2 * 2
        assert all(r.metric == "r2" for r in records)
        table, ranks, per_repeat = aggregate_benchmark(records)
        assert set(table) == {"sim1", "sim2"}
        assert set(ranks) == {"fc_odt", "ridge_odt", "cart"}
        assert len(per_repeat[("sim1", "fc_odt")]) == 2
        csv = aggregate_to_csv(table, ranks)
        assert csv.splitlines()[0] == "dataset,cart,fc_odt,ridge_odt"
        assert csv.splitlines()[-1].startswith("average_rank,")

    def test_scaled_features_match_pipeline_by_hand(self):
        config = fast_config(datasets=("sim1",), repeats=1, lambda_grid=(0.01, 1.0),
                             scale_features=True)
        records, _ = run_benchmark(config)
        data = gen_sim1(2000, config.noise_sigma, cell_seed(7, "sim1", "data", 0))
        split = train_test_split(data, config.train_fraction, cell_seed(7, "sim1", "split", 0))
        train = data.subset(split.train_indices)
        test = data.subset(split.test_indices)
        lo, hi = train.features.min(axis=0), train.features.max(axis=0)
        train_s, test_s = minmax_scale(train, (test,))
        assert np.array_equal(train_s.features, (train.features - lo) / (hi - lo))
        assert np.array_equal(test_s.features, (test.features - lo) / (hi - lo))
        criteria = config.criteria()
        for record in records:
            seed = cell_seed(7, "sim1", record.method, "benchmark", 0)
            assert record.seed == seed
            lam, _ = grid_search_lambda(train_s, record.method, criteria,
                                        config.lambda_grid, config.folds, seed)
            model = evaluation.fit_method(record.method, train_s, lam, criteria)
            assert record.value == r2(predict_batch(model, test_s.features), test.targets)
        # the ridge penalty depends on the scale, so the scaled fc_odt cell
        # differs from the unscaled one
        unscaled, _ = run_benchmark(fast_config(datasets=("sim1",), repeats=1,
                                                lambda_grid=(0.01, 1.0)))
        assert unscaled[0].method == records[0].method == "fc_odt"
        assert unscaled[0].value != records[0].value

    def test_real_dataset_without_manifest_skipped(self):
        cells, skipped = evaluation.bench_cells(fast_config(datasets=("sim1", "housing")),
                                                None, ".")
        assert skipped == [{"dataset": "housing",
                            "reason": "no manifest supplied for real dataset 'housing'"}]
        assert {key[1] for key, _, _ in cells} == {"sim1"}

    def test_dataset_not_in_manifest_skipped_with_its_reason(self):
        records, skipped = run_benchmark(fast_config(datasets=("housing",)), manifest={})
        assert records == []
        assert skipped == [{"dataset": "housing", "reason": "dataset 'housing' not in manifest"}]

    def test_aggregate_reads_r2_records_only(self):
        records = [ExperimentRecord("fc_odt", "sim1", 1, "depth", 4.0, "r2", 0.5),
                   ExperimentRecord("fc_odt", "sim1", 2, "depth", 4.0, "mse", 9.0),
                   ExperimentRecord("cart", "sim1", 3, "depth", 4.0, "mse", 1.0)]
        table, ranks, per_repeat = aggregate_benchmark(records)
        assert per_repeat == {("sim1", "fc_odt"): [0.5]}
        assert table == {"sim1": {"fc_odt": (0.5, 0.0)}}
        assert ranks == {"fc_odt": 1.0}

    def test_missing_real_dataset_skipped(self):
        config = fast_config(datasets=("sim1", "housing"))
        records, skipped = run_benchmark(config, manifest={}, base_dir=".")
        assert len(skipped) == 1
        assert skipped[0]["dataset"] == "housing"
        assert {r.dataset for r in records} == {"sim1"}

    @pytest.mark.parametrize("entry, message", [
        ("data/abalone.libsvm", "manifest entry 'abalone' must be an object"),
        ({"path": 5}, "manifest entry 'abalone': path must be a string, got 5"),
    ], ids=["entry_not_an_object", "path_not_a_string"])
    def test_malformed_manifest_refused(self, entry, message):
        config = ExperimentConfig(datasets=("abalone",), repeats=1)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_benchmark(config, {"abalone": entry})

    def test_reference_rows_join_ranks(self):
        config = fast_config(methods=("fc_odt",), datasets=("sim1",))
        records, _ = run_benchmark(config)
        reference = [{"dataset": "sim1", "method": "tao", "mean": 0.2, "std": 0.01}]
        table, ranks, _ = aggregate_benchmark(records, reference)
        assert "tao" in table["sim1"]
        assert ranks["fc_odt"] == 1.0 and ranks["tao"] == 2.0

    @pytest.mark.parametrize("text, match", [
        ("dataset,method,mean,std\nsim1,tao,nan,0.01\n", "line 2 mean: non-finite value 'nan'"),
        ("dataset,method,mean,std\nsim1,tao,0.2,inf\n", "line 2 std: non-finite value 'inf'"),
        ("dataset,method,mean,std\n\nsim1,tao,0.2,-0.1\n", "line 3 std: negative value '-0.1'"),
        ("dataset,method,mean,std\nsim1,tao,0.2,x\n", "line 2 std: malformed number 'x'"),
        ("dataset,method,mean\nsim1,tao,0.2\n", r"line 1: header lacks columns \['std'\]"),
        ("dataset,method,mean,std\nsim1,tao,0.2\n", "line 2: 3 cells, expected 4"),
        ("dataset,method,mean,std\nsim1,tao,0.2,0.1,9\n", "line 2: 5 cells, expected 4"),
    ], ids=["nan_mean", "inf_std", "negative_std", "malformed_std", "no_std_column",
            "short_row", "long_row"])
    def test_bad_reference_row_names_line(self, tmp_path, text, match):
        path = tmp_path / "ref.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            evaluation.load_reference_scores(str(path))

    def test_reference_scores_read(self, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_text("method,dataset,std,mean\ntao,sim1,0,0.25\n")
        assert evaluation.load_reference_scores(str(path)) == [
            {"dataset": "sim1", "method": "tao", "mean": 0.25, "std": 0.0}]

    def test_tied_means_share_average_rank(self):
        records = [ExperimentRecord(method, dataset, seed, "depth", 4.0, "r2", value)
                   for dataset, values in (("d1", {"a": 0.9, "b": 0.9, "c": 0.5}),
                                           ("d2", {"a": 0.8, "b": 0.7, "c": 0.7}))
                   for method, value in values.items() for seed in (1, 2)]
        _, ranks, _ = aggregate_benchmark(records)
        assert ranks == {"a": (1.5 + 1.0) / 2, "b": (1.5 + 2.5) / 2, "c": (3.0 + 2.5) / 2}

    def test_significance_markers(self):
        per_repeat = {
            ("d", "fc_odt"): [0.9, 0.91, 0.92, 0.93, 0.94, 0.95],
            ("d", "cart"): [0.1, 0.11, 0.12, 0.13, 0.14, 0.15],
            ("d", "ridge_odt"): [0.9, 0.91, 0.92, 0.93, 0.94, 0.949],
        }
        markers = {m["method"]: m["marker"] for m in significance_markers(per_repeat)}
        assert markers["cart"] == "+"
        assert markers["ridge_odt"] == ""

    @pytest.mark.parametrize("alpha", [math.nan, 0.0, 1.0, 5.0], ids=["nan", "0", "1", "5"])
    def test_significance_alpha_outside_unit_interval_refused(self, alpha):
        per_repeat = {("d", "fc_odt"): [0.9, 0.91, 0.92], ("d", "cart"): [0.1, 0.11, 0.12]}
        with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
            significance_markers(per_repeat, alpha=alpha)


class TestRankSumTest:
    def test_identical_samples_p_one(self):
        _, p = rank_sum_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_textbook_exact_case(self):
        stat, p = rank_sum_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert stat == 6.0
        assert p == pytest.approx(0.1, abs=1e-12)

    def test_all_tied_p_one(self):
        _, p = rank_sum_test([5.0, 5.0], [5.0, 5.0, 5.0])
        assert p == 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n1 = int(rng.integers(2, 6))
        n2 = int(rng.integers(2, 13 - n1))
        a = rng.normal(size=n1).round(1)  # rounding induces ties
        b = rng.normal(size=n2).round(1)
        _, p = rank_sum_test(a, b)
        assert p == pytest.approx(rank_sum_exact_pvalue(a, b), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_normal_approximation_close_to_exact_at_size_12(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rng.normal(size=6)
        b = rng.normal(loc=rng.uniform(-1.5, 1.5), size=6)
        _, p_exact = rank_sum_test(a, b)
        # push the same data through the large-sample path by duplicating
        # nothing: recompute with the approximation formula directly
        import math
        pooled = np.concatenate([a, b])
        order = np.argsort(pooled, kind="stable")
        ranks = np.empty(12)
        ranks[order] = np.arange(1, 13)
        w = ranks[:6].sum()
        mu = 6 * 13 / 2.0
        sigma = math.sqrt(6 * 6 / 12.0 * 13)
        z = (w - mu - math.copysign(0.5, w - mu)) / sigma
        p_approx = min(1.0, math.erfc(abs(z) / math.sqrt(2)))
        assert abs(p_exact - p_approx) < 0.02

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            rank_sum_test([], [1.0])

    @pytest.mark.parametrize("a, b", [([0.0] * 7 + [1.0], [0.0] * 8),
                                      ([0.0] * 8, [1.0] * 8),
                                      ([1.0] * 3 + [0.0] * 10, [1.0])])
    def test_two_values_above_size_12_give_a_finite_p(self, a, b):
        # the tie-corrected variance is smallest with one value set apart,
        # and is still n1 * n2 / 4
        _, p = rank_sum_test(a, b)
        assert math.isfinite(p) and 0 < p <= 1

    def test_shifted_large_samples_significant(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=30)
        b = rng.normal(loc=2.0, size=30)
        _, p = rank_sum_test(a, b)
        assert p < 0.001


class TestCsvEmission:
    def test_results_schema_and_determinism(self):
        config = fast_config(methods=("fc_odt",), datasets=("sim1",), repeats=1)
        records = run_depth_sweep(config)
        csv = records_to_csv(records)
        header = csv.splitlines()[0]
        assert header == "method,dataset,seed,param_name,param_value,metric,value"
        assert records_to_csv(list(reversed(records))) == csv  # order-insensitive
