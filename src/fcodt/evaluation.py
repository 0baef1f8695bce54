"""Metrics, lambda grid search, experiment protocols, and significance
testing.

An experiment's cells are enumerated once (``sweep_cells``, ``bench_cells``)
as (key, function, args): the key is the ``key()`` of the record the cell
returns, and its seed, derived there from (seed_base, dataset, method,
parameter, repeat) through sha256, makes cells independent,
order-insensitive, and reproducible. One runner, ``iter_cells``, runs them
in this process or a process pool. A cell fits its method by name through
``tree.fit_method(_many)``; ``tree.METHODS`` says which methods exist and
which of them take a tuned lambda. Wall time is recorded per cell but kept
out of the canonical results rows so identical configurations emit
byte-identical results CSVs.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np

from .datasets import (
    Dataset,
    gen_sim1,
    gen_sim2,
    kfold_indices,
    load_from_manifest,
    minmax_scale,
    train_test_split,
)
from .tree import (
    METHODS,
    SplitCriteria,
    _fmt,
    _number,
    fit_method,
    fit_method_many,
    predict_batch,
)

DEFAULT_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)
DEFAULT_DEPTHS = (2, 3, 4, 5, 6)
DEFAULT_SAMPLE_SIZES = (50, 100, 200, 500, 1000, 2000)

SIM_GENERATORS = {"sim1": gen_sim1, "sim2": gen_sim2}


# training rows of the cross-validation fits grown together: many small
# fits share each batch, while large ones keep their copies small
_CV_ROWS = 3200


def mse(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    if pred.shape != target.shape:
        raise ValueError("prediction and target lengths differ")
    if pred.size < 1:
        raise ValueError("need at least one value")
    return float(np.mean((pred - target) ** 2))


def r2(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    if pred.shape != target.shape:
        raise ValueError("prediction and target lengths differ")
    if pred.size < 2:
        raise ValueError("need at least two values")
    ss_total = float(np.sum((target - target.mean()) ** 2))
    if ss_total == 0.0:
        raise ValueError("undefined R^2: target is constant")
    ss_res = float(np.sum((target - pred) ** 2))
    return 1.0 - ss_res / ss_total


def cell_seed(base: int, *parts) -> int:
    """Deterministic 63-bit seed from the base and cell coordinates."""
    key = ":".join([str(base)] + [str(p) for p in parts])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple = ("fc_odt", "ridge_odt")
    datasets: tuple = ("sim1", "sim2")
    depths: tuple = DEFAULT_DEPTHS
    sample_sizes: tuple = DEFAULT_SAMPLE_SIZES
    repeats: int = 10
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    seed_base: int = 0
    max_depth: int = SplitCriteria.max_depth
    min_samples_split: int = SplitCriteria.min_samples_split
    min_samples_leaf: int = SplitCriteria.min_samples_leaf
    min_gain: float = SplitCriteria.min_gain
    folds: int = 5
    train_fraction: float = 0.6
    noise_sigma: float = 0.01
    test_samples: int = 500
    workers: int = 1
    scale_features: bool = False

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if not self.lambda_grid:
            raise ValueError("lambda grid must be nonempty")
        for lam in self.lambda_grid:
            if (not isinstance(lam, numbers.Real) or isinstance(lam, bool)
                    or not math.isfinite(lam) or lam < 0):
                raise ValueError(f"lambda grid entry {lam!r} is not a finite "
                                 f"nonnegative number")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        for method in self.methods:
            if not isinstance(method, str) or method not in METHODS:
                raise ValueError(f"unknown method {method!r}")

    def criteria(self, max_depth: int | None = None) -> SplitCriteria:
        return SplitCriteria(
            max_depth=max_depth if max_depth is not None else self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            min_gain=self.min_gain,
        )


@dataclass(frozen=True)
class ExperimentRecord:
    method: str
    dataset: str
    seed: int
    param_name: str
    param_value: float
    metric: str
    value: float
    wall_time: float = 0.0

    def key(self) -> tuple:
        return (self.method, self.dataset, self.param_name,
                self.param_value, self.seed, self.metric)

    def cells(self) -> list:
        """The text cells of ``RECORD_COLUMNS``, floats at 17 significant
        digits, so that ``from_cells`` reads them back exactly."""
        values = (getattr(self, name) for name in RECORD_COLUMNS)
        return [_fmt(v) if cast is float else str(v) for v, cast in zip(values, _RECORD_CASTS)]

    @classmethod
    def from_cells(cls, cells) -> ExperimentRecord:
        """The record whose ``cells()`` are ``cells``; ValueError on a
        wrong number of cells or a malformed number."""
        if len(cells) != len(RECORD_COLUMNS):
            raise ValueError(f"expected {len(RECORD_COLUMNS)} cells, got {len(cells)}")
        return cls(*(cast(cell) for cast, cell in zip(_RECORD_CASTS, cells)))


# the columns of a record's text form (journal lines), and the type of each;
# results.csv holds all but wall_time
RECORD_COLUMNS = tuple(f.name for f in fields(ExperimentRecord))
_RECORD_CASTS = tuple({"str": str, "int": int, "float": float}[f.type]
                      for f in fields(ExperimentRecord))


def grid_search_lambda(data: Dataset, method: str, criteria: SplitCriteria,
                       grid, folds: int, seed: int):
    """Pick the grid value minimizing mean validation MSE across k folds.

    Ties break toward the smaller lambda. Fit failures are recorded in the
    CV table (that cell scores +inf) without aborting the search. Returns
    (best_lambda, table) where the table has one row per (lambda, fold).
    A method that takes no lambda (``tree.METHODS``) is grown at 0, so it
    returns (0.0, []) at once, fitting nothing.
    """
    if method in METHODS and not METHODS[method][2]:  # takes no lambda
        return 0.0, []
    grid = list(grid)
    if not grid:
        raise ValueError("lambda grid must be nonempty")
    if any(math.isnan(lam) for lam in grid):
        raise ValueError("lambda grid entry nan cannot be ordered")
    if folds < 2:
        raise ValueError("need at least 2 folds")
    assignments = kfold_indices(data.n, folds, seed)
    cells = [(lam, i, fold) for lam in sorted(grid)
             for i, fold in enumerate(assignments)]
    per_batch = max(1, _CV_ROWS // max(1, max(len(f.train_indices) for f in assignments)))
    table = []
    for start in range(0, len(cells), per_batch):
        batch = cells[start:start + per_batch]
        models = fit_method_many(
            method, ((data.subset(fold.train_indices), lam) for lam, _, fold in batch),
            criteria)
        for (lam, i, fold), model in zip(batch, models):
            try:
                if isinstance(model, Exception):
                    raise model
                pred = predict_batch(model, data.features[fold.test_indices])
                val = mse(pred, data.targets[fold.test_indices])
                err = ""
            except Exception as exc:  # recorded, not raised
                val = math.inf
                err = f"{type(exc).__name__}: {exc}"
            table.append({"lambda": lam, "fold": i, "mse": val, "error": err})
    best_lam = None
    best_mean = math.inf
    for lam in sorted(grid):
        mean_val = float(np.mean([row["mse"] for row in table if row["lambda"] == lam]))
        if mean_val < best_mean:
            best_mean = mean_val
            best_lam = lam
    if best_lam is None or not math.isfinite(best_mean):
        raise ValueError("grid search failed for every lambda")
    return best_lam, table


def _tuned_fit(method: str, train: Dataset, config: ExperimentConfig,
               criteria: SplitCriteria, seed: int):
    """Fit with per-cell lambda tuning; wall time covers tuning + fit."""
    t0 = time.perf_counter()
    lam, _ = grid_search_lambda(train, method, criteria,
                                config.lambda_grid, config.folds, seed)
    model = fit_method(method, train, lam, criteria)
    return model, lam, time.perf_counter() - t0


def _sweep_cell(config: ExperimentConfig, dataset: str, method: str, param_name: str,
                depth: int, n_train: int, rep: int, seed: int) -> ExperimentRecord:
    gen = SIM_GENERATORS[dataset]
    param_value = depth if param_name == "depth" else n_train
    # data and test draws are shared across methods and parameter values
    # within a repeat, so method and depth/size curves are paired; the
    # cell seed (lambda tuning) stays fully cell-specific
    train = gen(n_train, config.noise_sigma,
                cell_seed(config.seed_base, dataset, "data", rep))
    test = gen(config.test_samples, 0.0,
               cell_seed(config.seed_base, dataset, "test", rep))
    criteria = config.criteria(max_depth=depth)
    model, _, wall = _tuned_fit(method, train, config, criteria, seed)
    value = mse(predict_batch(model, test.features), test.clean_targets)
    return ExperimentRecord(method=method, dataset=dataset, seed=seed,
                            param_name=param_name, param_value=float(param_value),
                            metric="mse", value=value, wall_time=wall)


def sweep_cells(config: ExperimentConfig, kind: str) -> list:
    """The (dataset, method, parameter, repeat) cells of a sweep, each a
    (key, function, args) triple; ``function(*args)`` returns the record
    whose ``key()`` is ``key``."""
    if kind == "depth":
        params = [(d, 2000) for d in config.depths]
        name = "depth"
    elif kind == "samples":
        params = [(config.max_depth, n) for n in config.sample_sizes]
        name = "n_samples"
    else:
        raise ValueError(f"unknown sweep kind {kind!r}")
    cells = []
    for dataset in config.datasets:
        if dataset not in SIM_GENERATORS:
            raise ValueError(f"sweeps run on simulated datasets only, got {dataset!r}")
        for method in config.methods:
            for depth, n_train in params:
                param = depth if name == "depth" else n_train
                for rep in range(config.repeats):
                    seed = cell_seed(config.seed_base, dataset, method, name, param, rep)
                    cells.append(((method, dataset, name, float(param), seed, "mse"),
                                  _sweep_cell,
                                  (config, dataset, method, name, depth, n_train, rep, seed)))
    return cells


def _bench_cell(config: ExperimentConfig, name: str, method: str, data: Dataset,
                split_seed: int, seed: int) -> ExperimentRecord:
    # one partition per (dataset, repeat): every method scores the same split
    split = train_test_split(data, config.train_fraction, split_seed)
    train = data.subset(split.train_indices)
    test = data.subset(split.test_indices)
    if config.scale_features:
        train, test = minmax_scale(train, (test,))
    criteria = config.criteria()
    model, _, wall = _tuned_fit(method, train, config, criteria, seed)
    value = r2(predict_batch(model, test.features), test.targets)
    return ExperimentRecord(method=method, dataset=name, seed=seed,
                            param_name="depth", param_value=float(criteria.max_depth),
                            metric="r2", value=value, wall_time=wall)


def bench_cells(config: ExperimentConfig, manifest: dict | None, base_dir: str):
    """The (dataset, repeat, method) cells of the R^2 benchmark as
    (key, function, args) triples, like ``sweep_cells``, and the datasets
    skipped because their files are missing. A real dataset is loaded
    once; a simulated one is drawn once per repeat. Returns (cells,
    skipped)."""
    cells = []
    skipped = []
    for name in config.datasets:
        real = None
        if name not in SIM_GENERATORS:
            try:
                if manifest is None:
                    raise FileNotFoundError(f"no manifest supplied for real dataset {name!r}")
                real = load_from_manifest(name, manifest, base_dir)
            except (FileNotFoundError, KeyError) as exc:
                skipped.append({"dataset": name, "reason": str(exc)})
                continue
        for rep in range(config.repeats):
            data = real if real is not None else SIM_GENERATORS[name](
                2000, config.noise_sigma, cell_seed(config.seed_base, name, "data", rep))
            split_seed = cell_seed(config.seed_base, name, "split", rep)
            for method in config.methods:
                seed = cell_seed(config.seed_base, name, method, "benchmark", rep)
                cells.append(((method, name, "depth", float(config.max_depth), seed, "r2"),
                              _bench_cell, (config, name, method, data, split_seed, seed)))
    return cells, skipped


def _run_cell(cell) -> ExperimentRecord:
    _, function, args = cell
    return function(*args)


def iter_cells(cells, workers: int):
    """Run the (key, function, args) cells and yield their records in
    cell order: in this process when ``workers`` <= 1 or there is one
    cell, otherwise in a pool of ``min(workers, len(cells))`` processes
    (a pool starts all its processes on first use)."""
    cells = list(cells)
    workers = min(workers, len(cells))
    if workers <= 1:
        yield from map(_run_cell, cells)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_run_cell, cells)


def run_depth_sweep(config: ExperimentConfig) -> list[ExperimentRecord]:
    """Fresh data draw, per-cell lambda tuning, and noise-free test MSE for
    every (dataset, depth, repeat, method) cell."""
    return sorted(iter_cells(sweep_cells(config, "depth"), config.workers),
                  key=ExperimentRecord.key)


def run_sample_sweep(config: ExperimentConfig) -> list[ExperimentRecord]:
    return sorted(iter_cells(sweep_cells(config, "samples"), config.workers),
                  key=ExperimentRecord.key)


def run_benchmark(config: ExperimentConfig, manifest: dict | None = None,
                  base_dir: str = "."):
    """3:2 split, per-cell lambda tuning, K = max_depth, test R^2 per
    (dataset, method, repeat). Datasets whose files are missing are
    skipped and reported. Returns (records, skipped)."""
    cells, skipped = bench_cells(config, manifest, base_dir)
    return sorted(iter_cells(cells, config.workers), key=ExperimentRecord.key), skipped


def _midranks(values):
    """(ranks, tie_sizes) of the 1-d array ``values``: ascending 1-based
    ranks, where tied values share the mean of their positions, and the
    size of each group of tied values, in ascending order of value."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    tie_sizes = np.diff(np.r_[starts, ordered.size])
    ranks = np.empty(ordered.size)
    ranks[order] = np.repeat(starts + (tie_sizes + 1) / 2.0, tie_sizes)
    return ranks, tie_sizes.tolist()


def rank_sum_test(sample_a, sample_b):
    """Two-sided Wilcoxon rank-sum test.

    Uses exact enumeration of all group assignments when the combined size
    is at most 12, otherwise a normal approximation with midrank tie
    correction and continuity correction. Returns (rank sum of the first
    sample, p-value). All values tied across both samples gives p = 1.
    """
    a = np.asarray(sample_a, dtype=np.float64).reshape(-1)
    b = np.asarray(sample_b, dtype=np.float64).reshape(-1)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    n1, n2 = a.size, b.size
    n = n1 + n2

    ranks, tie_sizes = _midranks(pooled)
    w = float(ranks[:n1].sum())

    if len(tie_sizes) == 1:  # every value identical
        return w, 1.0

    mu = n1 * (n + 1) / 2.0
    if n <= 12:
        dev = abs(w - mu)
        count = 0
        total = 0
        for combo in combinations(range(n), n1):
            total += 1
            if abs(ranks[list(combo)].sum() - mu) >= dev - 1e-12:
                count += 1
        return w, count / total

    tie_term = sum(t ** 3 - t for t in tie_sizes)
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma2 <= 0:
        return w, 1.0
    # continuity correction toward the mean
    z = (w - mu - math.copysign(0.5, w - mu)) / math.sqrt(sigma2)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return w, min(1.0, p)


def _csv(header, rows) -> str:
    """A CSV document: the ``header`` cells, then each row's cells."""
    return "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"


def records_to_csv(records) -> str:
    """Canonical long-format results CSV: every record column but
    ``wall_time``, rows sorted by cell key. Wall times live in the
    separate timing CSV so this document is byte-identical across
    reruns."""
    return _csv(RECORD_COLUMNS[:-1],
                (r.cells()[:-1] for r in sorted(records, key=ExperimentRecord.key)))


def timings_to_csv(records) -> str:
    """Wall time per cell, keyed by the first five record columns."""
    rows = (r.cells() for r in sorted(records, key=ExperimentRecord.key))
    return _csv((*RECORD_COLUMNS[:5], "wall_time_s"),
                (cells[:5] + cells[-1:] for cells in rows))


def _average_ranks(table: dict) -> dict:
    """Average rank per method over datasets (rank 1 = highest mean R^2;
    ties share the average rank)."""
    methods = sorted({m for row in table.values() for m in row})
    sums = {m: 0.0 for m in methods}
    counts = {m: 0 for m in methods}
    for row in table.values():
        present = [m for m in methods if m in row]
        ranks, _ = _midranks(-np.array([row[m][0] for m in present]))
        for m, rank in zip(present, ranks.tolist()):
            sums[m] += rank
            counts[m] += 1
    return {m: sums[m] / counts[m] for m in methods if counts[m]}


def aggregate_benchmark(records, reference: list[dict] | None = None):
    """Collapse benchmark records to mean/std per (dataset, method) and
    average ranks, optionally merging externally published mean/std scores
    (which join the rank computation but carry no per-repeat values)."""
    table: dict[str, dict[str, tuple]] = {}
    per_repeat: dict[tuple, list] = {}
    for r in records:
        if r.metric != "r2":
            continue
        per_repeat.setdefault((r.dataset, r.method), []).append(r.value)
    for (dataset, method), vals in per_repeat.items():
        arr = np.asarray(vals)
        table.setdefault(dataset, {})[method] = (float(arr.mean()), float(arr.std()))
    for row in reference or []:
        name, method = row["dataset"], row["method"]
        if name in table and method not in table[name]:
            table[name][method] = (float(row["mean"]), float(row["std"]))
    ranks = _average_ranks(table)
    return table, ranks, per_repeat


def significance_markers(per_repeat: dict, reference_method: str = "fc_odt",
                         alpha: float = 0.1):
    """Two-sided rank-sum comparison of every method against the reference
    on each dataset: '+' when the reference is significantly better, '-'
    when significantly worse, '' otherwise."""
    out = []
    datasets = sorted({d for d, _ in per_repeat})
    for dataset in datasets:
        ref_vals = per_repeat.get((dataset, reference_method))
        if not ref_vals:
            continue
        for (ds, method), vals in sorted(per_repeat.items()):
            if ds != dataset or method == reference_method:
                continue
            _, p = rank_sum_test(ref_vals, vals)
            marker = ""
            if p < alpha:
                marker = "+" if np.mean(ref_vals) > np.mean(vals) else "-"
            out.append({"dataset": dataset, "method": method,
                        "p_value": p, "marker": marker})
    return out


def aggregate_to_csv(table: dict, ranks: dict) -> str:
    methods = sorted({m for row in table.values() for m in row})
    rows = [[dataset] + ["{:.3f}+-{:.3f}".format(*table[dataset][m]) if m in table[dataset]
                         else "" for m in methods] for dataset in sorted(table)]
    rows.append(["average_rank"] + [f"{ranks[m]:.2f}" if m in ranks else "" for m in methods])
    return _csv(["dataset"] + methods, rows)


def significance_to_csv(markers) -> str:
    return _csv(("dataset", "method", "p_value", "marker"),
                ([row["dataset"], row["method"], _fmt(row["p_value"]), row["marker"]]
                 for row in markers))


def load_reference_scores(path: str) -> list[dict]:
    """Read externally published mean/std scores (dataset, method, mean,
    std) used for rank aggregation. The header must name those columns,
    every row must have a cell per header column, ``mean`` must be finite
    and ``std`` finite and nonnegative; otherwise a ValueError names the
    line and, for a bad number, its column."""
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            where = f"reference scores {path} line {number}"
            if header is None:
                missing = [name for name in ("dataset", "method", "mean", "std")
                           if name not in cells]
                if missing:
                    raise ValueError(f"{where}: header lacks columns {missing}")
                header = cells
                continue
            if len(cells) != len(header):
                raise ValueError(f"{where}: {len(cells)} cells, expected {len(header)}")
            row = dict(zip(header, cells))
            mean = _number(row["mean"], float, f"{where} mean")
            std = _number(row["std"], float, f"{where} std")
            if std < 0:
                raise ValueError(f"{where} std: negative value {row['std']!r}")
            rows.append({"dataset": row["dataset"], "method": row["method"],
                         "mean": mean, "std": std})
    return rows
