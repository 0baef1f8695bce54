"""The benchmark's three workloads, each a closed loop with one client.

A workload turns the run's seed into generator seeds and lists the
operations of a pass: six tuned cells, the eleven sweep cells, or one
predict / explain / inspect round. ``run.py`` runs them in order, timing
each, and hands every result back to the workload's checks. Every call
into the package goes through a module attribute
(``evaluation.run_benchmark``, ``cli.main``, ...) so that the traced run's
wrappers see it.

The interface: ``setup()``, ``warm_up()``, ``operations(index)`` giving
(kind, rows, function) triples, ``check(kind, result, index)`` giving
(ok, detail, test R^2, test MSE), ``end_pass(index, results)`` giving
pass-level checks, ``final_checks()`` and ``report(passes)``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from fcodt import cli, datasets, evaluation, tree


@dataclass
class Op:
    kind: str
    ms: float
    ok: bool
    rows: int = 0
    quality: float | None = None  # test R^2 of the op's model, when it has one
    mse: float | None = None
    detail: str = ""
    slowdown: float = 1.0  # machine slowdown measured around the op


@dataclass
class Pass:
    wall_s: float  # without the speed probes
    ops: list
    checks: list = field(default_factory=list)  # (name, ok, detail)


def derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def _row_order_check(data, lam, criteria, expected_text, seed):
    """Refit on row-permuted training data; the model text must not change."""
    perm = np.random.default_rng(seed).permutation(data.n)
    shuffled = datasets.Dataset(data.features[perm], data.targets[perm])
    text = tree.model_to_text(tree.fit_fc_odt(shuffled, lam, criteria))
    return ("row_order_invariance", text == expected_text, "" if text == expected_text
            else "model text changed under a row permutation of the training data")


def _tuned_row_order_check(train, criteria, seed):
    """Tune lambda as a cell does, fit, and check the fit under a row
    permutation."""
    lam, _ = evaluation.grid_search_lambda(
        train, "fc_odt", criteria, evaluation.DEFAULT_LAMBDA_GRID, 5, seed)
    expected = tree.model_to_text(tree.fit_fc_odt(train, lam, criteria))
    return _row_order_check(train, lam, criteria, expected, seed)


class _CellWorkload:
    """Shared pass structure for workloads whose operations are experiment
    cells.

    Passes cycle through ``cycle`` seed bases drawn from the run seed, so a
    run sees several data draws and every base after the first cycle is
    rerun; its ``records_to_csv`` output must match the earlier pass byte
    for byte.
    """

    name = ""
    cycle = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.bases = [derive_seed(self.name, seed, k) for k in range(self.cycle)]
        self.results_csv = {}

    def cells(self, base):
        raise NotImplementedError

    def pass_extras(self, records):
        return []

    def setup(self):
        pass

    def warm_up(self):
        self.operations(0)[0][2]()

    def operations(self, index: int):
        return [(kind, 0, run) for kind, run in self.cells(self.bases[index % self.cycle])]

    def end_pass(self, index, results):
        records = [r for result in results if result is not None for r in result]
        checks = self.pass_extras(records)
        csv = evaluation.records_to_csv(records)
        k = index % self.cycle
        if k in self.results_csv:
            same = self.results_csv[k] == csv
            checks.append(("results_csv_identical", same, "" if same else
                           f"records_to_csv differs between passes with seed base {self.bases[k]}"))
        else:
            self.results_csv[k] = csv
        return checks


class TunedCell(_CellWorkload):
    """R^2 benchmark cells as ``fcodt bench`` runs them on simulated data:
    sim1 and sim2 x fc_odt, ridge_odt, cart; n=2000, 3:2 split, depth 4,
    lambda tuned over the default grid with 5 folds."""

    name = "tuned_cell"
    cycle = 4
    min_passes = 17
    trace_passes = 4
    DATASETS = ("sim1", "sim2")
    METHODS = ("fc_odt", "ridge_odt", "cart")
    # sanity floor on test R^2 of a single cell; far below what any method
    # reaches on these generators, so it only catches broken fits
    R2_FLOOR = 0.3

    def cells(self, base):
        out = []
        for dataset in self.DATASETS:
            for method in self.METHODS:
                config = evaluation.ExperimentConfig(
                    methods=(method,), datasets=(dataset,), repeats=1, seed_base=base)
                out.append((f"{dataset}/{method}",
                            lambda c=config: self._bench(c)))
        return out

    @staticmethod
    def _bench(config):
        records, skipped = evaluation.run_benchmark(config)
        if skipped:
            raise RuntimeError(f"cell skipped: {skipped}")
        return records

    def check(self, kind, records, index):
        if len(records) != 1:
            return False, f"expected one record, got {len(records)}", None, None
        value = records[0].value
        ok = math.isfinite(value) and value >= self.R2_FLOOR
        return ok, "" if ok else f"test R^2 {value!r} below {self.R2_FLOOR}", value, None

    def pass_extras(self, records):
        table, ranks, per_repeat = evaluation.aggregate_benchmark(records)
        markers = evaluation.significance_markers(per_repeat)
        ok = (sorted(table) == list(self.DATASETS) and sorted(ranks) == sorted(self.METHODS)
              and len(markers) == len(self.DATASETS) * (len(self.METHODS) - 1))
        return [("aggregate_complete", ok, "" if ok else
                 f"aggregate covers {sorted(table)} / {sorted(ranks)}, {len(markers)} markers")]

    def final_checks(self):
        base = self.bases[0]
        data = datasets.gen_sim2(2000, 0.01, derive_seed("row_order", base))
        split = datasets.train_test_split(data, 0.6, derive_seed("split", base))
        train = data.subset(split.train_indices)
        return [_tuned_row_order_check(train, tree.SplitCriteria(max_depth=4), base)]

    def report(self, passes):
        return {"test_r2_mean": (_mean_quality(passes), "R2")}


class Sweep(_CellWorkload):
    """One repeat of the paper's two sweeps for fc_odt: depth 2-6 on sim2
    at n=2000, and n = 50 ... 2000 on sim1 at depth 4; 500 noise-free test
    rows each. Every cell draws its own data."""

    name = "sweep"
    cycle = 2
    min_passes = 10
    trace_passes = 2
    DEPTHS = (2, 3, 4, 5, 6)
    SIZES = (50, 100, 200, 500, 1000, 2000)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.test_var = {}

    def setup(self):
        # variance of each cell's noise-free test targets, to express the
        # sweep's test MSE as R^2; the draw is the one the sweep makes
        for base in self.bases:
            for dataset in ("sim1", "sim2"):
                test = evaluation.SIM_GENERATORS[dataset](
                    500, 0.0, evaluation.cell_seed(base, dataset, "test", 0))
                self.test_var[(base, dataset)] = float(np.var(test.clean_targets))

    def cells(self, base):
        common = dict(methods=("fc_odt",), repeats=1, seed_base=base)
        out = []
        for depth in self.DEPTHS:
            config = evaluation.ExperimentConfig(datasets=("sim2",), depths=(depth,), **common)
            out.append((f"depth={depth}", lambda c=config: evaluation.run_depth_sweep(c)))
        for n in self.SIZES:
            config = evaluation.ExperimentConfig(datasets=("sim1",), sample_sizes=(n,), **common)
            out.append((f"n={n}", lambda c=config: evaluation.run_sample_sweep(c)))
        return out

    def check(self, kind, records, index):
        if len(records) != 1:
            return False, f"expected one record, got {len(records)}", None, None
        rec = records[0]
        ok = math.isfinite(rec.value) and rec.value >= 0.0
        r2 = 1.0 - rec.value / self.test_var[(self.bases[index % self.cycle], rec.dataset)]
        return ok, "" if ok else f"test MSE {rec.value!r} is not a finite square error", r2, rec.value

    def final_checks(self):
        base = self.bases[0]
        train = datasets.gen_sim2(500, 0.01, derive_seed("row_order", base))
        return [_tuned_row_order_check(train, tree.SplitCriteria(max_depth=6), base)]

    def report(self, passes):
        mses = [op.mse for p in passes for op in p.ops if op.mse is not None]
        return {"test_r2_mean": (_mean_quality(passes), "R2"),
                "test_mse_mean": (float(np.mean(mses)) if mses else math.nan, "MSE")}


def _mean_quality(passes):
    values = [op.quality for p in passes for op in p.ops if op.quality is not None]
    return float(np.mean(values)) if values else math.nan


class Score:
    """Saved-model requests through ``fcodt.cli.main``: predict on 20,000
    rows, predict --explain on 2,000 rows, inspect --stumps on the
    2,000-row training table. No training in the timed loop."""

    name = "score"
    min_passes = 67
    trace_passes = 3
    PREDICT_ROWS = 20000
    EXPLAIN_ROWS = 2000
    TRAIN_ROWS = 2000
    LAMBDA = "0.01"
    DEPTH = 6

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.paths = {k: os.path.join(workdir, f"{k}.csv") for k in
                      ("train", "predict", "explain", "predict_out", "explain_out")}
        self.paths["model"] = os.path.join(workdir, "model.txt")

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        self.train = datasets.gen_sim2(self.TRAIN_ROWS, 0.01, derive_seed(self.name, self.seed, "train"))
        table = datasets.gen_sim2(self.PREDICT_ROWS, 0.01, derive_seed(self.name, self.seed, "predict"))
        self.table = table
        for key, data in (("train", self.train), ("predict", table),
                          ("explain", table.subset(np.arange(self.EXPLAIN_ROWS)))):
            with open(self.paths[key], "w", encoding="utf-8") as fh:
                fh.write(datasets.dataset_to_csv(data, include_clean=True))
        code, _ = self._cli(["train", "--data", self.paths["train"], "--target", "y",
                             "--drop", "f", "--lambda", self.LAMBDA,
                             "--max-depth", str(self.DEPTH), "--out", self.paths["model"]])
        if code != 0:
            raise RuntimeError(f"fcodt train exited with {code}")
        with open(self.paths["model"], encoding="utf-8") as fh:
            self.model_text = fh.read()
        self.model = tree.model_from_text(self.model_text)
        self.preds = tree.predict_batch(self.model, table.features)
        self.expected_predict = "\n".join(
            ["prediction"] + [format(v, ".17g") for v in self.preds]) + "\n"
        self.expected_explain = [format(v, ".17g") for v in tree.predict_batch(
            self.model, table.features[:self.EXPLAIN_ROWS])]
        self.r2 = evaluation.r2(self.preds, table.clean_targets)
        self.first = {}

    def requests(self):
        table_flags = ["--target", "y", "--drop", "f"]
        return [
            ("predict", self.PREDICT_ROWS,
             ["predict", "--model", self.paths["model"], "--data", self.paths["predict"],
              *table_flags, "--out", self.paths["predict_out"]]),
            ("explain", self.EXPLAIN_ROWS,
             ["predict", "--model", self.paths["model"], "--data", self.paths["explain"],
              *table_flags, "--explain", "--out", self.paths["explain_out"]]),
            ("inspect", 0,
             ["inspect", "--model", self.paths["model"], "--stumps",
              "--data", self.paths["train"], *table_flags]),
        ]

    def warm_up(self):
        self._cli(self.requests()[0][2])

    def operations(self, index: int):
        return [(kind, rows, lambda a=argv: self._cli(a))
                for kind, rows, argv in self.requests()]

    def check(self, kind, result, index):
        code, stdout = result
        if code != 0:
            return False, f"exit code {code}", None, None
        ok, detail = self._check(kind, stdout)
        return ok, detail, None, None

    def end_pass(self, index, results):
        return []

    def _check(self, kind, stdout):
        if kind == "predict":
            with open(self.paths["predict_out"], encoding="utf-8") as fh:
                ok = fh.read() == self.expected_predict
            return ok, "" if ok else "predict output differs from predict_batch on the same rows"
        if kind == "explain":
            with open(self.paths["explain_out"], encoding="utf-8") as fh:
                text = fh.read()
            column = [ln.split(",", 1)[0] for ln in text.splitlines()[1:]]
            if column != self.expected_explain:
                return False, "explain prediction column differs from predict_batch on its rows"
            # inside the 20,000-row batch the same rows may differ in the
            # last bits: batch routing arithmetic depends on the batch
            batch = self.preds[:self.EXPLAIN_ROWS]
            gap = float(np.max(np.abs(np.array(column, dtype=float) - batch)
                               / np.maximum(1.0, np.abs(batch))))
            if gap > 1e-12:
                return False, f"explain predictions differ from the predict request by {gap:.3e}"
        else:
            text = stdout
            if "max orthogonal-expansion deviation" not in text:
                return False, "inspect --stumps printed no diagnostics"
        first = self.first.setdefault(kind, text)
        ok = first == text
        return ok, "" if ok else f"{kind} response differs from the first one"

    def final_checks(self):
        criteria = tree.SplitCriteria(max_depth=self.DEPTH)
        checks = [_row_order_check(self.train, float(self.LAMBDA), criteria,
                                   self.model_text, self.seed)]
        # per-row predict is a separate router from predict_batch
        rows = self.table.features[:500]
        batch = tree.predict_batch(self.model, rows)
        single = np.array([tree.predict(self.model, x) for x in rows])
        gap = float(np.max(np.abs(single - batch) / np.maximum(1.0, np.abs(batch))))
        checks.append(("row_predict_matches_batch", gap <= 1e-12,
                       "" if gap <= 1e-12 else f"relative gap {gap:.3e}"))
        return checks

    def report(self, passes):
        def by_kind(kind):
            return [op for p in passes for op in p.ops if op.kind == kind]

        def rows_per_s(kind):
            return float(np.median([op.rows / (op.ms / 1e3) for op in by_kind(kind)]))

        return {
            "predict_rows_per_s": (rows_per_s("predict"), "rows/s"),
            "explain_rows_per_s": (rows_per_s("explain"), "rows/s"),
            "inspect_ms_p50": (float(np.median([op.ms for op in by_kind("inspect")])), "ms"),
            "test_r2_mean": (self.r2, "R2"),
        }


WORKLOADS = {w.name: w for w in (TunedCell, Sweep, Score)}
