import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fcodt
from fcodt import datasets, evaluation, stumps
from fcodt.baselines import fit_cart, fit_ridge_odt
from fcodt.cli import atomic_write, load_run_config, main
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


def overflow_tables(tmp_path):
    """A 500-row sim2 table and the same table with row 7's first two
    cells at +-1e308, finite cells whose scores overflow."""
    sim = datasets.gen_sim2(500, 0.01, 0)
    X = sim.features.copy()
    X[7, :2] = [1e308, -1e308]
    paths = tmp_path / "sim2.csv", tmp_path / "overflow.csv"
    for path, features in zip(paths, (sim.features, X)):
        path.write_text(datasets.dataset_to_csv(datasets.Dataset(features, sim.targets)))
    return paths


class TestAtomicWrite:
    def test_holds_one_slice_beside_the_text(self, tmp_path):
        text = datasets.dataset_to_csv(datasets.gen_sim1(20000, 0.1, 3), include_clean=True)
        assert len(text) > 4_000_000
        path = tmp_path / "table.csv"
        tracemalloc.start()
        try:
            atomic_write(str(path), text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the text was made before tracing: the peak is what the write
        # held beside it, well short of a bytes copy of the whole text
        assert peak < 2 * 2**20
        assert path.read_bytes() == text.encode("utf-8")

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write(str(path), "new\n")
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]  # no *.tmp left


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

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
    def test_bad_sigma_refused(self, tmp_path, capsys, sigma):
        out = tmp_path / "sim.csv"
        assert run("simulate", "--which", "sim1", "--n", "5", "--sigma", sigma,
                   "--out", str(out)) == 1
        assert "sigma must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_no_rows_refused(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert run("simulate", "--which", "sim1", "--n", "0", "--out", str(out)) == 1
        assert capsys.readouterr() == ("", "error: n must be at least 1\n")
        assert not out.exists()

    def test_generators_come_from_evaluation(self, tmp_path, monkeypatch):
        # a generator in evaluation.SIM_GENERATORS is a --which choice
        monkeypatch.setitem(evaluation.SIM_GENERATORS, "sim9",
                            lambda n, sigma, seed: datasets.gen_sim2(n, sigma, seed + 1))
        out = tmp_path / "sim9.csv"
        assert run("simulate", "--which", "sim9", "--n", "20", "--seed", "4",
                   "--out", str(out)) == 0
        assert out.read_text() == datasets.dataset_to_csv(datasets.gen_sim2(20, 0.01, 5),
                                                          include_clean=True)

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_outputs_take_plain_write_mode(self, tmp_path, umask):
        # every output goes through atomic_write: a table and a model here
        table, model, plain = (tmp_path / name for name in ("sim.csv", "model.txt", "plain"))
        old = os.umask(umask)
        try:
            assert run("simulate", "--which", "sim1", "--n", "30", "--out", str(table)) == 0
            assert run("train", "--data", str(table), "--drop", "f", "--max-depth", "1",
                       "--out", str(model)) == 0
            with open(plain, "w") as fh:
                fh.write("x\n")
        finally:
            os.umask(old)
        modes = [stat.S_IMODE(os.stat(path).st_mode) for path in (table, model, plain)]
        assert modes == [0o666 & ~umask] * 3

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

    def test_failed_cv_fits_named_on_stderr(self, tmp_path, capsys):
        # every lambda = 0 fold fails on this table: stdout keeps its inf
        # rows and the exit status 0, and stderr says why, one line a fit
        data = tmp_path / "sim1.csv"
        assert run("simulate", "--which", "sim1", "--n", "500", "--sigma", "0.01",
                   "--seed", "0", "--out", str(data)) == 0
        capsys.readouterr()
        assert run("train", "--data", str(data), "--target", "y", "--drop", "f",
                   "--lambda", "cv", "--grid", "0,0.1", "--max-depth", "4",
                   "--out", str(tmp_path / "model.txt")) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[:6] == ["lambda,fold,val_mse"] + [f"0,{i},inf" for i in range(5)]
        assert [line.split(",")[:2] for line in lines[6:11]] == [["0.1", str(i)]
                                                                 for i in range(5)]
        assert lines[11] == "chosen lambda: 0.1"
        assert err.splitlines() == [
            f"lambda 0 fold {i} failed: SingularSystemError: singular system: "
            "design matrix is rank-deficient at lambda=0" for i in range(5)]

    @pytest.mark.parametrize("method", ["fc_odt", "ridge_odt"])
    def test_overflowing_table_refused(self, tmp_path, capsys, method):
        # one row's finite cells at +-1e308 overflow the root's ridge solve:
        # an error, not a one-leaf model
        sim = datasets.gen_sim2(500, 0.01, 0)
        X = sim.features.copy()
        X[7, :2] = [1e308, -1e308]
        data = tmp_path / "overflow.csv"
        data.write_text(datasets.dataset_to_csv(datasets.Dataset(X, sim.targets)))
        model_path = tmp_path / "model.txt"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run("train", "--data", str(data), "--method", method, "--lambda", "0.1",
                       "--out", str(model_path)) == 1
        assert capsys.readouterr().err == (
            "error: ridge solve overflowed: the weights are not finite\n")
        assert not model_path.exists()

    def test_overflowing_table_refused_by_cv(self, tmp_path, capsys):
        # four folds overflow the ridge solve and the fifth its validation
        # prediction of row 7: the error names the first failed fold, and
        # no numpy warning comes before it
        _, data = overflow_tables(tmp_path)
        model_path = tmp_path / "model.txt"
        assert run("train", "--data", str(data), "--lambda", "cv", "--grid", "0.1",
                   "--max-depth", "2", "--out", str(model_path)) == 1
        assert capsys.readouterr().err == (
            "error: grid search failed for every lambda; first, lambda 0.1 fold 0: "
            "ValueError: ridge solve overflowed: the weights are not finite\n")
        assert not model_path.exists()

    @pytest.mark.parametrize("explain", [[], ["--explain"]], ids=["plain", "explain"])
    @pytest.mark.parametrize("case", ["model", "table"])
    def test_overflowing_prediction_refused(self, tmp_path, capsys, case, explain):
        # a finite model file whose root's last weight and bias are 1e308, or
        # a finite table row at +-1e308: an error naming the row and the
        # node, not inf or NaN predictions, and no numpy warning before it
        clean, overflow = overflow_tables(tmp_path)
        model_path = tmp_path / "model.txt"
        assert run("train", "--data", str(clean), "--lambda", "0.1", "--max-depth", "2",
                   "--out", str(model_path)) == 0
        data = overflow
        if case == "model":
            lines = model_path.read_text().splitlines()
            root = next(i for i, line in enumerate(lines) if line.startswith("split 0 "))
            lines[root] = " ".join(lines[root].split()[:-2] + ["1e308", "1e308"])
            model_path.write_text("\n".join(lines) + "\n")
            data = clean
        capsys.readouterr()
        pred_path = tmp_path / "pred.csv"
        assert run("predict", "--model", str(model_path), "--data", str(data),
                   "--target", "y", *explain, "--out", str(pred_path)) == 1
        out, err = capsys.readouterr()
        row = r"\d+" if case == "model" else "7"
        assert out == ""
        assert re.fullmatch(f"error: input row {row} overflows at node 0: "
                            f"its score is not finite\n", err)
        assert not pred_path.exists()

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

    def test_malformed_lambda_names_flag(self, tmp_path, sim_csv, capsys):
        model_path = tmp_path / "model.txt"
        assert run("train", "--data", str(sim_csv), "--drop", "f", "--lambda", "abc",
                   "--out", str(model_path)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --lambda 'abc' is not a number\n"
        assert not model_path.exists()

    @pytest.mark.parametrize("grid, entry", [("-1,0.1,inf", "-1.0"), ("0.1,inf", "inf"),
                                             ("0.1,nan", "nan")])
    def test_bad_grid_refused_before_any_fit(self, tmp_path, sim_csv, capsys, grid, entry,
                                             monkeypatch):
        # the run config's check and message, before any CV fit
        def no_fits(*args):
            raise AssertionError("a CV fit ran")
        monkeypatch.setattr("fcodt.cli.grid_search_lambda", no_fits)
        model_path = tmp_path / "model.txt"
        assert run("train", "--data", str(sim_csv), "--drop", "f", "--lambda", "cv",
                   f"--grid={grid}", "--out", str(model_path)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: lambda grid entry {entry} is not a finite nonnegative number" in err
        assert not model_path.exists()

    @pytest.mark.parametrize("method", ["fc_odt", "cart"])
    @pytest.mark.parametrize("folds", ["1", "1000"])
    def test_bad_folds_refused_before_any_fit(self, tmp_path, sim_csv, capsys, monkeypatch,
                                              folds, method):
        # cart takes no lambda and fits no fold, but its --folds is checked all the same
        def no_fits(*args):
            raise AssertionError("a fit ran")
        monkeypatch.setattr("fcodt.cli.grid_search_lambda", no_fits)
        monkeypatch.setattr("fcodt.evaluation.fit_method", no_fits)
        model_path = tmp_path / "model.txt"
        assert run("train", "--data", str(sim_csv), "--drop", "f", "--method", method,
                   "--lambda", "cv", "--folds", folds, "--out", str(model_path)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --folds must be between 2 and the table's 300 rows, got {folds}\n"
        assert not model_path.exists()

    @pytest.mark.parametrize("grid, entry", [("0.1,,1", "''"), ("0.1,abc", "'abc'"),
                                             ("", "''")])
    def test_malformed_grid_names_flag_and_entry(self, tmp_path, sim_csv, capsys, grid,
                                                 entry):
        model_path = tmp_path / "model.txt"
        assert run("train", "--data", str(sim_csv), "--drop", "f", "--lambda", "cv",
                   f"--grid={grid}", "--out", str(model_path)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --grid entry {entry} is not a number\n"
        assert not model_path.exists()

    def test_repeated_grid_value_printed_once(self, tmp_path, sim_csv, capsys):
        train = ("train", "--data", str(sim_csv), "--drop", "f", "--lambda", "cv",
                 "--folds", "3", "--max-depth", "2")
        outputs = []
        for grid in ("0.1,0.1", "0.1"):
            assert run(*train, "--grid", grid, "--out", str(tmp_path / f"{grid}.txt")) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        assert [line.split(",")[:2] for line in lines[1:4]] == [["0.1", "0"], ["0.1", "1"],
                                                                 ["0.1", "2"]]
        assert lines[4] == "chosen lambda: 0.1"
        assert ((tmp_path / "0.1,0.1.txt").read_bytes()
                == (tmp_path / "0.1.txt").read_bytes())

    @pytest.mark.parametrize("flags", [("--target", "0"), ("--drop", "1")])
    def test_libsvm_column_specs_refused(self, tmp_path, capsys, flags):
        data = tmp_path / "t.libsvm"
        data.write_text("".join(f"{i % 3} 1:{i}.5 2:{i % 4}\n" for i in range(40)))
        model_path = tmp_path / "model.txt"
        assert run("train", "--data", str(data), "--format", "libsvm", "--lambda", "0.1",
                   "--max-depth", "2", "--out", str(model_path)) == 0
        table = ("--data", str(data), "--format", "libsvm", *flags)
        pred_path = tmp_path / "pred.csv"
        bad = tmp_path / "bad.txt"
        commands = [("train", *table, "--lambda", "0.1", "--out", str(bad)),
                    ("predict", "--model", str(model_path), *table, "--out", str(pred_path)),
                    ("inspect", "--model", str(model_path), "--stumps", *table)]
        name = flags[0][2:]
        for command in commands:
            capsys.readouterr()
            assert run(*command) == 1
            assert f"error: {name} " in capsys.readouterr().err
        assert not bad.exists() and not pred_path.exists()

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
        table = datasets.gen_sim1(2048 + 77, 0.1, 9)
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

    @pytest.mark.parametrize("drop", ["f", "10"])
    def test_predict_drops_columns_without_target(self, tmp_path, sim_csv, drop):
        # x1..x10 and f, no target: dropping f, by name or by index,
        # predicts as the table of x1..x10 alone does
        model_path = tmp_path / "model.txt"
        run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
            "--lambda", "0.1", "--max-depth", "3", "--out", str(model_path))
        rows = [line.split(",") for line in sim_csv.read_text().splitlines()]
        with_f = tmp_path / "with_f.csv"
        with_f.write_text("".join(",".join(row[:10] + row[11:]) + "\n" for row in rows))
        without_f = tmp_path / "without_f.csv"
        without_f.write_text("".join(",".join(row[:10]) + "\n" for row in rows))
        preds = {}
        for name, path, flags in (("dropped", with_f, ["--drop", drop]),
                                  ("absent", without_f, [])):
            preds[name] = tmp_path / f"{name}.txt"
            assert run("predict", "--model", str(model_path), "--data", str(path),
                       *flags, "--out", str(preds[name])) == 0
        assert len(preds["dropped"].read_text().splitlines()) == 301
        assert preds["dropped"].read_bytes() == preds["absent"].read_bytes()

    def test_repeated_drop_keeps_every_list(self, tmp_path, sim_csv, capsys):
        # sim.csv's columns are x1..x10, y, f: without --target both y and
        # f must be dropped, in one --drop or in two
        model_path = tmp_path / "model.txt"
        run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
            "--lambda", "0.1", "--max-depth", "3", "--out", str(model_path))
        outputs = []
        for drops in (["--drop", "f", "y"], ["--drop", "f", "--drop", "y"]):
            pred_path = tmp_path / f"pred{len(outputs)}.csv"
            assert run("predict", "--model", str(model_path), "--data", str(sim_csv),
                       *drops, "--out", str(pred_path)) == 0
            outputs.append(pred_path.read_bytes())
        assert capsys.readouterr().err == ""
        assert len(outputs[0].splitlines()) == 301
        assert outputs[0] == outputs[1]

    def test_predict_width_mismatch_message(self, tmp_path, sim_csv, capsys):
        model_path = tmp_path / "model.txt"
        run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
            "--lambda", "0.1", "--out", str(model_path))
        capsys.readouterr()
        pred_path = tmp_path / "pred.csv"
        assert run("predict", "--model", str(model_path), "--data", str(sim_csv),
                   "--drop", "f", "--out", str(pred_path)) == 1
        assert capsys.readouterr() == ("", "error: model expects 10 features, data has 11\n")
        assert not pred_path.exists()

    def test_predict_header_only_table_width_checked(self, tmp_path, sim_csv, capsys):
        # a header-only table has a width, checked like any other table's;
        # only an empty file takes the model's
        model_path = tmp_path / "model.txt"
        run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
            "--lambda", "0.1", "--max-depth", "3", "--out", str(model_path))
        capsys.readouterr()
        header = tmp_path / "header.csv"
        header.write_text(sim_csv.read_text().splitlines()[0] + "\n")
        pred_path = tmp_path / "pred.csv"
        assert run("predict", "--model", str(model_path), "--data", str(header),
                   "--target", "y", "--out", str(pred_path)) == 1
        assert capsys.readouterr() == ("", "error: model expects 10 features, data has 11\n")
        assert not pred_path.exists()

    def test_train_without_features_refused(self, tmp_path, sim_csv, capsys):
        model_path = tmp_path / "model.txt"
        drops = [f"x{j}" for j in range(1, 11)] + ["f"]
        assert run("train", "--data", str(sim_csv), "--target", "y", "--drop", *drops,
                   "--lambda", "0.1", "--out", str(model_path)) == 1
        assert capsys.readouterr() == ("", "error: dataset has no features\n")
        assert not model_path.exists()

    @pytest.mark.parametrize("text", ["", "\n \n", "x1,x2,y\n"])
    def test_train_on_empty_table_refused(self, tmp_path, capsys, text):
        data = tmp_path / "empty.csv"
        data.write_text(text)
        model_path = tmp_path / "model.txt"
        assert run("train", "--data", str(data), "--out", str(model_path)) == 1
        assert capsys.readouterr() == ("", "error: training data is empty\n")
        assert not model_path.exists()

    @pytest.mark.parametrize("text", ["", "x1,x2,x3,x4,x5,x6,x7,x8,x9,x10,y,f\n"])
    def test_predict_explain_without_rows_writes_the_header(self, tmp_path, sim_csv, capsys,
                                                            text):
        model_path = tmp_path / "model.txt"
        run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
            "--lambda", "0.1", "--max-depth", "3", "--out", str(model_path))
        capsys.readouterr()
        data = tmp_path / "table.csv"
        data.write_text(text)
        pred_path = tmp_path / "pred.csv"
        assert run("predict", "--model", str(model_path), "--data", str(data),
                   "--target", "y", "--drop", "f", "--explain", "--out", str(pred_path)) == 0
        assert capsys.readouterr() == (f"wrote 0 predictions to {pred_path}\n", "")
        assert pred_path.read_text() == "prediction,path_nodes,path_scores\n"

    def test_memory_error_reported(self, tmp_path, sim_csv, capsys, monkeypatch):
        # what a LIBSVM file with feature index 10^12 asks of the reader
        def too_large(*args):
            raise MemoryError("Unable to allocate 14.6 TiB for an array")
        monkeypatch.setattr("fcodt.cli.read_table", too_large)
        model_path = tmp_path / "model.txt"
        assert run("train", "--data", str(sim_csv), "--out", str(model_path)) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 14.6 TiB for an array\n"
        assert not model_path.exists()

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

    def test_stumps_without_data_refused_after_the_tree(self, tmp_path, sim_csv, capsys):
        model_path = tmp_path / "model.txt"
        run("train", "--data", str(sim_csv), "--target", "y", "--drop", "f",
            "--lambda", "0.1", "--max-depth", "2", "--out", str(model_path))
        capsys.readouterr()
        assert run("inspect", "--model", str(model_path)) == 0
        tree_text = capsys.readouterr().out
        assert run("inspect", "--model", str(model_path), "--stumps") == 1
        assert capsys.readouterr() == (
            tree_text, "error: --stumps requires --data with the training table\n")

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
    def test_empty_lambda_grid_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", lambda_grid=[])
        out_dir = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--kind", "depth",
                   "--out", str(out_dir)) == 1
        assert capsys.readouterr() == ("", "error: lambda grid must be nonempty\n")
        assert not out_dir.exists()

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

    def test_config_not_an_object_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(["fc_odt"]))
        with pytest.raises(ValueError, match="run config must be a JSON object"):
            load_run_config(str(cfg))


    def test_unknown_method_refused_before_any_cell(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", methods=["fc_odt", "nope"])
        out_dir = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--kind", "depth",
                   "--out", str(out_dir)) == 1
        assert "unknown method 'nope'" in capsys.readouterr().err
        assert not out_dir.exists()  # no journal

    @pytest.mark.parametrize("key, value, message", [
        ("repeats", "3", "repeats must be an integer, got '3'"),
        ("folds", 1, "folds must be at least 2")])
    def test_bad_config_value_refused_before_any_cell(self, tmp_path, capsys, key, value,
                                                      message):
        cfg = write_config(tmp_path / "cfg.json", **{key: value})
        out_dir = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--kind", "depth",
                   "--out", str(out_dir)) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out_dir.exists()  # no depth_journal.csv

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

    def test_dataset_not_in_manifest_reported_unquoted(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{}")
        cfg = write_config(tmp_path / "cfg.json", datasets=["housing"])
        out_dir = tmp_path / "bench"
        assert run("bench", "--config", str(cfg), "--manifest", str(manifest),
                   "--out", str(out_dir)) == 0
        reason = "dataset 'housing' not in manifest"
        assert f"skipped housing: {reason}\n" in capsys.readouterr().out
        report = json.loads((out_dir / "report.json").read_text())
        assert report["skipped"] == [{"dataset": "housing", "reason": reason}]

    @pytest.mark.parametrize("entry, message", [
        ("data/abalone.libsvm", "manifest entry 'abalone' must be an object"),
        ({"path": "abalone.libsvm", "n_features": "8"},
         "manifest entry 'abalone': n_features must be a positive integer"),
    ])
    def test_malformed_manifest_refused_before_any_cell(self, tmp_path, capsys, entry, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"abalone": entry}))
        cfg = write_config(tmp_path / "cfg.json", datasets=["sim1", "abalone"],
                           repeats=1, max_depth=2)
        out_dir = tmp_path / "bench"
        assert run("bench", "--config", str(cfg), "--manifest", str(manifest),
                   "--out", str(out_dir)) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out_dir.exists()

    def test_dataset_name_with_a_comma_refused_before_any_cell(self, tmp_path, capsys):
        # the name would be a field of results.csv and of the journal
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"a,b": {"path": "ab.csv", "target": "y"}}))
        cfg = write_config(tmp_path / "cfg.json", datasets=["a,b"], repeats=1, max_depth=2)
        out_dir = tmp_path / "bench"
        assert run("bench", "--config", str(cfg), "--manifest", str(manifest),
                   "--out", str(out_dir)) == 1
        assert capsys.readouterr().err == (
            "error: datasets entry 'a,b' holds a comma or a line break\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("alpha", ["nan", "-1", "0", "1", "5"])
    def test_alpha_outside_unit_interval_refused(self, tmp_path, capsys, alpha):
        cfg = write_config(tmp_path / "cfg.json", methods=["fc_odt", "cart"],
                           datasets=["sim1"], repeats=3, max_depth=2)
        out_dir = tmp_path / "bench"
        assert run("bench", "--config", str(cfg), "--alpha", alpha, "--out", str(out_dir)) == 1
        assert "--alpha must lie strictly between 0 and 1" in capsys.readouterr().err
        assert not out_dir.exists()

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
