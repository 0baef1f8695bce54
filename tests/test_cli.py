import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fcodt
from fcodt import datasets, stumps
from fcodt.baselines import fit_cart, fit_ridge_odt
from fcodt.cli import load_run_config, main
from fcodt.tree import SplitCriteria, fit_fc_odt, model_from_text, model_to_text, predict_batch
from oracles import explain_reference


def run(*argv):
    return main(list(argv))


@pytest.fixture
def sim_csv(tmp_path):
    path = tmp_path / "sim.csv"
    assert run("simulate", "--which", "sim1", "--n", "300", "--sigma", "0.1",
               "--seed", "5", "--out", str(path)) == 0
    return path


class TestSimulate:
    def test_byte_identical_across_runs(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run("simulate", "--which", "sim2", "--n", "50", "--sigma",
                       "0.01", "--seed", "3", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_sigma_y_equals_f(self, tmp_path):
        out = tmp_path / "clean.csv"
        run("simulate", "--which", "sim1", "--n", "40", "--sigma", "0",
            "--seed", "1", "--out", str(out))
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        yi, fi = header.index("y"), header.index("f")
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[yi] == cells[fi]

    def test_covers_depth_sweep_protocol(self, tmp_path):
        out = tmp_path / "big.csv"
        run("simulate", "--which", "sim1", "--n", "2500", "--sigma", "0.01",
            "--seed", "0", "--out", str(out))
        assert len(out.read_text().splitlines()) == 2501


class TestTrainPredict:
    def test_train_roundtrip_predictions(self, tmp_path, sim_csv, capsys):
        model_path = tmp_path / "model.txt"
        assert run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
                   "--lambda", "0.01", "--max-depth", "3",
                   "--out", str(model_path)) == 0
        reported = None
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("training mse:"):
                reported = float(line.split(":")[1])
        pred_path = tmp_path / "pred.csv"
        assert run("predict", "--model", str(model_path), "--data", str(sim_csv),
                   "--target", "y", "--drop", "f", "--out", str(pred_path)) == 0
        lines = pred_path.read_text().splitlines()
        assert lines[0] == "prediction"
        assert len(lines) == 301

        # reported training mse must match rescoring the prediction file
        from fcodt.datasets import parse_csv
        from fcodt.evaluation import mse
        ds = parse_csv(sim_csv.read_text(), "y", drop_columns=("f",))
        preds = np.array([float(v) for v in lines[1:]])
        assert mse(preds, ds.targets) == pytest.approx(reported, rel=1e-5)

    def test_train_cv_prints_table(self, tmp_path, sim_csv, capsys):
        model_path = tmp_path / "model.txt"
        assert run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
                   "--lambda", "cv", "--grid", "0.1,10", "--folds", "2",
                   "--max-depth", "2", "--out", str(model_path)) == 0
        out = capsys.readouterr().out
        assert "lambda,fold,val_mse" in out
        assert "chosen lambda:" in out
        assert "training mse:" in out

    def test_cart_cv_fits_nothing(self, tmp_path, sim_csv, capsys):
        # cart takes no lambda: no CV table, and the model of any fixed lambda
        train = ("train", "--data", str(sim_csv), "--drop", "f", "--method", "cart",
                 "--max-depth", "3")
        assert run(*train, "--lambda", "cv", "--out", str(tmp_path / "cv.txt")) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["lambda,fold,val_mse", "chosen lambda: 0"]
        assert run(*train, "--lambda", "0.5", "--out", str(tmp_path / "fixed.txt")) == 0
        assert (tmp_path / "cv.txt").read_bytes() == (tmp_path / "fixed.txt").read_bytes()

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_rejected(self, tmp_path, sim_csv, capsys, lam):
        model_path = tmp_path / "model.txt"
        assert run("train", "--data", str(sim_csv), "--drop", "f", "--lambda", lam,
                   "--out", str(model_path)) == 1
        assert f"lambda must be finite and nonnegative, got {lam}" in capsys.readouterr().err
        assert not model_path.exists()

    def test_missing_file_no_partial_output(self, tmp_path):
        model_path = tmp_path / "model.txt"
        assert run("train", "--data", str(tmp_path / "nope.csv"),
                   "--lambda", "0.1", "--out", str(model_path)) == 1
        assert not model_path.exists()

    @pytest.mark.parametrize("header", [True, False])
    def test_columns_by_index(self, tmp_path, sim_csv, header):
        # sim.csv's columns are x1..x10, y, f: y is column 10 and f column 11
        by_name = tmp_path / "by_name.txt"
        assert run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
                   "--lambda", "0.1", "--max-depth", "2", "--out", str(by_name)) == 0
        table = tmp_path / "table.csv"
        table.write_text("\n".join(sim_csv.read_text().splitlines()[1 - header:]) + "\n")
        by_index = tmp_path / "by_index.txt"
        assert run("train", "--data", str(table), "--target", "10", "--drop", "11",
                   "--lambda", "0.1", "--max-depth", "2", "--out", str(by_index)) == 0
        assert by_index.read_text() == by_name.read_text()

    @pytest.mark.parametrize("line", ["leaf 1", "split", "leaf 1 nan 10"])
    def test_predict_rejects_malformed_model(self, tmp_path, sim_csv, capsys, line):
        model_path = tmp_path / "model.txt"
        run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
            "--lambda", "0.1", "--max-depth", "1", "--out", str(model_path))
        lines = model_path.read_text().splitlines()
        lines[-1] = line
        model_path.write_text("\n".join(lines) + "\n")
        pred_path = tmp_path / "pred.csv"
        assert run("predict", "--model", str(model_path), "--data", str(sim_csv),
                   "--target", "y", "--drop", "f", "--out", str(pred_path)) == 1
        assert capsys.readouterr().err.startswith("error: node 2")
        assert not pred_path.exists()

    def test_predict_dimension_mismatch(self, tmp_path, sim_csv):
        model_path = tmp_path / "model.txt"
        run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
            "--lambda", "0.1", "--out", str(model_path))
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        pred_path = tmp_path / "pred.csv"
        assert run("predict", "--model", str(model_path), "--data", str(bad),
                   "--out", str(pred_path)) == 1

    def test_predict_empty_input(self, tmp_path, sim_csv):
        model_path = tmp_path / "model.txt"
        run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
            "--lambda", "0.1", "--out", str(model_path))
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        pred_path = tmp_path / "pred.csv"
        assert run("predict", "--model", str(model_path), "--data", str(empty),
                   "--out", str(pred_path)) == 0
        assert pred_path.read_text() == "prediction\n"

    def test_predict_explain_path_columns(self, tmp_path, sim_csv):
        model_path = tmp_path / "model.txt"
        run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
            "--lambda", "0.1", "--max-depth", "2", "--out", str(model_path))
        pred_path = tmp_path / "pred.csv"
        assert run("predict", "--model", str(model_path), "--data", str(sim_csv),
                   "--target", "y", "--drop", "f", "--explain",
                   "--out", str(pred_path)) == 0
        lines = pred_path.read_text().splitlines()
        assert lines[0] == "prediction,path_nodes,path_scores"
        first = lines[1].split(",")
        assert first[1].startswith("0")  # every path starts at the root

    def test_explain_scores_sum_to_prediction(self, tmp_path, sim_csv):
        model_path = tmp_path / "model.txt"
        run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
            "--lambda", "0.1", "--max-depth", "3", "--out", str(model_path))
        model = model_from_text(model_path.read_text())
        assert model.residual_path and model.n_internal > 1
        pred_path = tmp_path / "pred.csv"
        assert run("predict", "--model", str(model_path), "--data", str(sim_csv),
                   "--target", "y", "--drop", "f", "--explain",
                   "--out", str(pred_path)) == 0
        for line in pred_path.read_text().splitlines()[1:]:
            prediction, nodes, scores = line.split(",")
            total = 0.0
            for node_id, score in zip(nodes.split(";"), scores.split(";")):
                node = model.nodes[int(node_id)]
                total += float(score)
                slot = node.left if float(score) < node.threshold else node.right
            assert total + model.nodes[slot].residual_mean == float(prediction)

    @pytest.mark.parametrize("method, depth", [
        (method, depth) for method in ("fc_odt", "ridge_odt", "cart") for depth in (1, 3, 6)
    ] + [("root_leaf", 1)])
    def test_explain_bytes_match_reference(self, tmp_path, sim_csv, method, depth):
        train = datasets.read_table(str(sim_csv), "csv", "y", ["f"])
        criteria = SplitCriteria(max_depth=depth)
        model = {"fc_odt": lambda: fit_fc_odt(train, 0.01, criteria),
                 "ridge_odt": lambda: fit_ridge_odt(train, 0.01, criteria),
                 "cart": lambda: fit_cart(train, criteria),
                 "root_leaf": lambda: fit_fc_odt(train.subset(range(5)), 0.01, criteria)}[method]()
        assert model.fitted_depth == (0 if method == "root_leaf" else depth)
        model_path = tmp_path / "model.txt"
        model_path.write_text(model_to_text(model))
        lines = sim_csv.read_text().splitlines()
        for rows in (len(lines) - 1, 1, 0):
            table = tmp_path / f"table{rows}.csv"
            table.write_text("\n".join(lines[:rows + 1]) + "\n")
            out = tmp_path / f"explain{rows}.csv"
            assert run("predict", "--model", str(model_path), "--data", str(table),
                       "--target", "y", "--drop", "f", "--explain", "--out", str(out)) == 0
            X = datasets.read_table(str(table), "csv", "y", ["f"]).features
            assert out.read_text() == explain_reference(model, X)

    @pytest.mark.parametrize("with_target", [True, False])
    def test_predict_table_larger_than_a_block(self, tmp_path, sim_csv, with_target):
        model_path = tmp_path / "model.txt"
        run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
            "--lambda", "0.1", "--max-depth", "3", "--out", str(model_path))
        table = datasets.gen_sim1(datasets._CSV_BLOCK_ROWS + 77, 0.1, 9)
        data_path = tmp_path / "table.csv"
        if with_target:
            data_path.write_text(datasets.dataset_to_csv(table, include_clean=True))
            flags = ["--target", "y", "--drop", "f"]
        else:
            data_path.write_text("\n".join(",".join(format(v, ".17g") for v in row)
                                           for row in table.features.tolist()) + "\n")
            flags = []
        pred_path = tmp_path / "pred.csv"
        assert run("predict", "--model", str(model_path), "--data", str(data_path),
                   *flags, "--out", str(pred_path)) == 0
        preds = predict_batch(model_from_text(model_path.read_text()), table.features)
        assert pred_path.read_text() == "".join(
            ["prediction\n"] + [format(v, ".17g") + "\n" for v in preds])

    def test_module_entry_point(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(fcodt.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "fcodt", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: fcodt")


class TestInspect:
    def test_prints_tree_and_stumps(self, tmp_path, sim_csv, capsys):
        model_path = tmp_path / "model.txt"
        run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
            "--lambda", "1e-8", "--max-depth", "2", "--out", str(model_path))
        assert run("inspect", "--model", str(model_path), "--stumps",
                   "--data", str(sim_csv), "--target", "y", "--drop", "f") == 0
        out = capsys.readouterr().out
        assert "split" in out and "leaf" in out
        assert "orthogonal-expansion deviation" in out

    def test_stumps_replay_the_table_once(self, tmp_path, sim_csv, monkeypatch, capsys):
        model_path = tmp_path / "model.txt"
        run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
            "--lambda", "0.01", "--max-depth", "3", "--out", str(model_path))
        replays = []
        replay = stumps.replay_training_data
        monkeypatch.setattr(stumps, "replay_training_data",
                            lambda *args: replays.append(args) or replay(*args))
        assert run("inspect", "--model", str(model_path), "--stumps",
                   "--data", str(sim_csv), "--target", "y", "--drop", "f") == 0
        assert "orthogonal-expansion deviation" in capsys.readouterr().out
        assert len(replays) == 1

    def test_gain_column_matches_model(self, tmp_path, sim_csv, capsys):
        from fcodt.tree import ObliqueNode, model_from_text
        model_path = tmp_path / "model.txt"
        run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
            "--lambda", "0.1", "--max-depth", "2", "--out", str(model_path))
        assert run("inspect", "--model", str(model_path)) == 0
        out = capsys.readouterr().out
        model = model_from_text(model_path.read_text())
        for node in model.nodes:
            if isinstance(node, ObliqueNode):
                assert f"gain={node.gain:.6g}" in out


def write_config(path, **kw):
    base = {"methods": ["fc_odt"], "datasets": ["sim1"], "depths": [2],
            "repeats": 1, "lambda_grid": [0.1], "folds": 2, "seed_base": 3,
            "test_samples": 50}
    base.update(kw)
    path.write_text(json.dumps(base))
    return path


class TestSweepCommand:
    def test_outputs_and_resume(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--kind", "depth",
                   "--out", str(out_dir)) == 0
        results = (out_dir / "results.csv").read_bytes()
        assert (out_dir / "timings.csv").exists()
        stamp = json.loads((out_dir / "stamp.json").read_text())
        assert stamp["kind"] == "depth" and stamp["cells"] == 1

        capsys.readouterr()
        # second run finds the journal and recomputes nothing
        assert run("sweep", "--config", str(cfg), "--kind", "depth",
                   "--out", str(out_dir)) == 0
        assert "1 already done, 0 to run" in capsys.readouterr().out
        assert (out_dir / "results.csv").read_bytes() == results

    def test_samples_kind(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", sample_sizes=[50], max_depth=2)
        out_dir = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--kind", "samples",
                   "--out", str(out_dir)) == 0
        lines = (out_dir / "results.csv").read_text().splitlines()
        assert lines[0] == "method,dataset,seed,param_name,param_value,metric,value"
        assert len(lines) == 2  # one method x one dataset x one size x one repeat
        assert "n_samples" in lines[1]

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["fc_odt"], "bogus": 1}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_run_config(str(cfg))
        out_dir = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--kind", "depth",
                   "--out", str(out_dir)) == 1


    def test_unknown_method_refused_before_any_cell(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", methods=["fc_odt", "nope"])
        out_dir = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--kind", "depth",
                   "--out", str(out_dir)) == 1
        assert "unknown method 'nope'" in capsys.readouterr().err
        assert not out_dir.exists()  # no journal

    @pytest.mark.parametrize("grid, entry", [([0.1, -1.0], "-1.0"),
                                             ([0.1, float("nan")], "nan")])
    def test_bad_lambda_grid_refused_before_any_cell(self, tmp_path, capsys, grid, entry):
        cfg = write_config(tmp_path / "cfg.json", lambda_grid=grid)
        out_dir = tmp_path / "out"
        for kind in ("sweep", "bench"):
            argv = [kind, "--config", str(cfg), "--out", str(out_dir)]
            assert run(*argv, *(["--kind", "depth"] if kind == "sweep" else [])) == 1
            assert f"lambda grid entry {entry} is not a finite" in capsys.readouterr().err
            assert not out_dir.exists()  # no journal


class TestBenchCommand:
    def test_sim_benchmark_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           methods=["fc_odt", "cart"], datasets=["sim1"],
                           repeats=2, max_depth=2)
        out_dir = tmp_path / "bench"
        assert run("bench", "--config", str(cfg), "--out", str(out_dir)) == 0
        agg = (out_dir / "aggregate.csv").read_text().splitlines()
        assert agg[0] == "dataset,cart,fc_odt"
        assert agg[-1].startswith("average_rank,")
        assert (out_dir / "significance.csv").exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["datasets_run"] == ["sim1"]

    def test_missing_dataset_reported(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"housing": {"path": "housing.libsvm", "format": "libsvm"}}))
        cfg = write_config(tmp_path / "cfg.json", datasets=["sim1", "housing"],
                           repeats=1, max_depth=2)
        out_dir = tmp_path / "bench"
        assert run("bench", "--config", str(cfg), "--manifest", str(manifest),
                   "--out", str(out_dir)) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["skipped"][0]["dataset"] == "housing"

    def test_env_var_supplies_manifest(self, tmp_path, monkeypatch):
        data_file = tmp_path / "tiny.libsvm"
        rng = np.random.default_rng(0)
        lines = []
        for i in range(60):
            x = rng.normal(size=2)
            lines.append(f"{x[0] + x[1]:.6f} 1:{x[0]:.6f} 2:{x[1]:.6f}")
        data_file.write_text("\n".join(lines) + "\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"tiny": {"path": "tiny.libsvm", "format": "libsvm", "n_features": 2}}))
        monkeypatch.setenv("FCODT_MANIFEST", str(manifest))
        cfg = write_config(tmp_path / "cfg.json", datasets=["tiny"],
                           repeats=2, max_depth=2)
        out_dir = tmp_path / "bench"
        assert run("bench", "--config", str(cfg), "--out", str(out_dir)) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["datasets_run"] == ["tiny"]

    def test_reference_scores_in_ranks(self, tmp_path):
        ref = tmp_path / "ref.csv"
        ref.write_text("dataset,method,mean,std\nsim1,tao,0.2,0.01\n")
        cfg = write_config(tmp_path / "cfg.json", methods=["fc_odt"],
                          datasets=["sim1"], repeats=2, max_depth=2)
        out_dir = tmp_path / "bench"
        assert run("bench", "--config", str(cfg), "--reference", str(ref),
                   "--out", str(out_dir)) == 0
        agg = (out_dir / "aggregate.csv").read_text()
        assert "tao" in agg.splitlines()[0]
