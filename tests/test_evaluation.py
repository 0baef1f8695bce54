import numpy as np
import pytest

from fcodt import evaluation
from fcodt.datasets import Dataset, gen_sim1
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
from fcodt.tree import SplitCriteria
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

    def test_non_finite_lambda_recorded_not_raised(self):
        ds = tiny_dataset(n=200, seed=3)
        lam, table = grid_search_lambda(ds, "fc_odt", SplitCriteria(max_depth=2),
                                        [0.1, np.inf], 3, 0)
        assert lam == 0.1
        failed = [row for row in table if row["lambda"] == np.inf]
        assert len(failed) == 3
        assert all(row["mse"] == np.inf for row in failed)
        assert all("finite and nonnegative" in row["error"] for row in failed)

    def test_nan_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda grid entry nan cannot be ordered"):
            grid_search_lambda(gen_sim1(200, 0.01, 0), "fc_odt", SplitCriteria(max_depth=2),
                               [0.1, float("nan")], 2, 0)

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


def test_config_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        ExperimentConfig(methods=("fc_odt", "nope"))


@pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf"), "0.1"])
def test_config_rejects_bad_lambda_grid_entry(bad):
    with pytest.raises(ValueError, match=f"lambda grid entry {bad!r} is not a finite"):
        ExperimentConfig(lambda_grid=(0.1, bad))


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

    def test_missing_real_dataset_skipped(self):
        config = fast_config(datasets=("sim1", "housing"))
        records, skipped = run_benchmark(config, manifest={}, base_dir=".")
        assert len(skipped) == 1
        assert skipped[0]["dataset"] == "housing"
        assert {r.dataset for r in records} == {"sim1"}

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
