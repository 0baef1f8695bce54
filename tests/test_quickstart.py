"""The README's CLI quickstart through every text reader and writer, run
as ``python -m fcodt`` commands on a 500-row simulated table: a saved
model (and a CV run whose lambda = 0 folds all fail, each named on
stderr), predictions and decision paths (with ``--drop`` repeated, and of
a header-only table); a table one column too wide, with rows or a header
alone, which is refused; the same table as a LIBSVM file, and as a CSV
with CRLF line ends, blank lines and a cell respelled with an
underscore, which give the same model; and two refusals that write
nothing."""

import os
import re
import subprocess
import sys

import pytest

import fcodt

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fcodt.__file__)))
TABLE = ("--data", "sim1.csv", "--target", "y", "--drop", "f")


def fcodt_cli(workdir, *argv):
    """``python -m fcodt argv`` run in ``workdir``: its CompletedProcess."""
    return subprocess.run([sys.executable, "-m", "fcodt", *argv], cwd=workdir,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=300)


def succeeds(workdir, *argv):
    proc = fcodt_cli(workdir, *argv)
    assert proc.returncode == 0, proc.stderr
    return proc


def lines(path):
    return path.read_text().splitlines()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the quickstart's table, its header line alone,
    and the model and predictions."""
    d = tmp_path_factory.mktemp("quickstart")
    succeeds(d, "simulate", "--which", "sim1", "--n", "500", "--sigma", "0.01",
             "--seed", "0", "--out", "sim1.csv")
    (d / "header.csv").write_text(lines(d / "sim1.csv")[0] + "\n")
    succeeds(d, "train", *TABLE, "--lambda", "cv", "--max-depth", "4", "--out", "model.txt")
    succeeds(d, "predict", "--model", "model.txt", *TABLE, "--out", "preds.csv")
    return d


def test_failed_cv_folds_named_on_stderr(workdir):
    proc = succeeds(workdir, "train", *TABLE, "--lambda", "cv", "--grid", "0,0.1",
                    "--max-depth", "4", "--out", "model_cv0.txt")
    assert proc.stdout.splitlines()[0] == "lambda,fold,val_mse"
    err = proc.stderr.splitlines()
    assert len(err) == 5
    assert all("SingularSystemError" in line for line in err)


def test_predictions_paths_and_stumps(workdir):
    succeeds(workdir, "predict", "--model", "model.txt", *TABLE, "--explain",
             "--out", "explain.csv")
    succeeds(workdir, "inspect", "--model", "model.txt", "--stumps", *TABLE)
    assert len(lines(workdir / "preds.csv")) == 501
    assert len(lines(workdir / "explain.csv")) == 501


def test_repeated_drop_gives_the_same_predictions(workdir):
    succeeds(workdir, "predict", "--model", "model.txt", "--data", "sim1.csv",
             "--drop", "f", "--drop", "y", "--out", "preds_drops.csv")
    assert (workdir / "preds_drops.csv").read_bytes() == (workdir / "preds.csv").read_bytes()


def test_header_only_table_explains_to_its_header(workdir):
    succeeds(workdir, "predict", "--model", "model.txt", "--data", "header.csv",
             "--target", "y", "--drop", "f", "--explain", "--out", "explain_header.csv")
    assert len(lines(workdir / "explain_header.csv")) == 1


@pytest.mark.parametrize("table", ["sim1.csv", "header.csv"])
def test_one_column_too_wide_refused(workdir, table):
    # without --drop f the clean target is read as an eleventh feature
    out = f"wide_{table}"
    proc = fcodt_cli(workdir, "predict", "--model", "model.txt", "--data", table,
                     "--target", "y", "--out", out)
    assert proc.returncode == 1
    assert proc.stderr == "error: model expects 10 features, data has 11\n"
    assert not (workdir / out).exists()


def test_libsvm_gives_the_same_model_and_predictions(workdir):
    # target first, then index:value for the ten features, each cell as
    # the CSV spells it
    body = [row.split(",") for row in lines(workdir / "sim1.csv")[1:]]
    (workdir / "sim1.libsvm").write_text("".join(
        cells[10] + "".join(f" {j}:{cells[j - 1]}" for j in range(1, 11)) + "\n"
        for cells in body))
    libsvm = ("--data", "sim1.libsvm", "--format", "libsvm")
    succeeds(workdir, "train", *libsvm, "--lambda", "cv", "--max-depth", "4",
             "--out", "model_libsvm.txt")
    succeeds(workdir, "predict", "--model", "model_libsvm.txt", *libsvm,
             "--out", "preds_libsvm.csv")
    assert len(lines(workdir / "preds_libsvm.csv")) == 501
    for ours, theirs in (("model.txt", "model_libsvm.txt"), ("preds.csv", "preds_libsvm.csv")):
        assert (workdir / ours).read_bytes() == (workdir / theirs).read_bytes()


def test_respelled_csv_gives_the_same_model(workdir):
    # CRLF line ends, a blank and a whitespace-only line, and one cell
    # respelled with an underscore: float() reads it to the same bits and
    # numpy's reader refuses it, so the line reader reads the table
    text = lines(workdir / "sim1.csv")
    text[1], n = re.subn(r"\.(\d)(\d)", r".\1_\2", text[1], count=1)
    assert n == 1, text[1]
    text[3:3] = ["", " \t"]
    with open(workdir / "sim1_respelled.csv", "w", encoding="utf-8", newline="\r\n") as fh:
        fh.write("\n".join(text) + "\n")
    succeeds(workdir, "train", "--data", "sim1_respelled.csv", "--target", "y", "--drop", "f",
             "--lambda", "cv", "--max-depth", "4", "--out", "model_respelled.txt")
    assert ((workdir / "model_respelled.txt").read_bytes()
            == (workdir / "model.txt").read_bytes())


def test_malformed_lambda_refused_writing_nothing(workdir):
    proc = fcodt_cli(workdir, "train", *TABLE, "--lambda", "abc", "--out", "model_abc.txt")
    assert proc.returncode == 1
    assert proc.stderr == "error: --lambda 'abc' is not a number\n"
    assert not (workdir / "model_abc.txt").exists()


def test_comma_in_a_dataset_name_refused_writing_nothing(workdir):
    # a comma is a CSV field separator in the journal and results.csv
    (workdir / "comma_manifest.json").write_text(
        '{"a,b": {"path": "sim1.libsvm", "format": "libsvm"}}\n')
    (workdir / "comma_config.json").write_text(
        '{"methods": ["cart"], "datasets": ["a,b"], "repeats": 1}\n')
    proc = fcodt_cli(workdir, "bench", "--config", "comma_config.json",
                     "--manifest", "comma_manifest.json", "--out", "comma_bench")
    assert proc.returncode == 1
    assert proc.stderr == "error: datasets entry 'a,b' holds a comma or a line break\n"
    assert not (workdir / "comma_bench").exists()
