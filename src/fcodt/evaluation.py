"""Metrics, lambda grid search, experiment protocols, and significance
testing.

An experiment's cells are enumerated once (``sweep_cells``, ``bench_cells``)
as (key, function, args): the key holds the ``_KEY_FIELDS`` of the cell's
record, and its seed, derived there from (seed_base, dataset, method,
parameter, repeat) through sha256, makes cells independent,
order-insensitive, and reproducible. ``function(*args)`` returns the
cell's value and wall time; one runner, ``iter_cells``, runs the cells in
this process or a process pool and makes each record from its key, value
and wall time. A cell fits its method by name through
``tree.fit_method(_many)``; ``tree.METHODS`` says which methods exist and
which of them take a tuned lambda. Wall time is kept out of the canonical
results rows so identical configurations emit byte-identical results CSVs.
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
    _csv,
    _fmt,
    _numbered,
    check_manifest,
    gen_sim1,
    gen_sim2,
    kfold_indices,
    load_from_manifest,
    minmax_scale,
    train_test_split,
)
from .linalg import _check_lambdas
from .tree import (
    METHODS,
    SplitCriteria,
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


def _of_type(value, kind) -> bool:
    """Whether a config value is a ``kind`` (bool, int, float or str): a
    bool is neither an int nor a float, and an int is also a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, {bool: bool, int: numbers.Integral, float: numbers.Real,
                              str: str}[kind])


def _check_lambda_grid(grid):
    """Raise ValueError unless ``grid``, the λ grid of a run config or of
    ``fcodt train --grid``, is nonempty and holds finite nonnegative
    numbers only."""
    if not grid:
        raise ValueError("lambda grid must be nonempty")
    for lam in grid:
        try:
            if not isinstance(lam, numbers.Real) or isinstance(lam, bool):
                raise ValueError
            _check_lambdas(lam)
        except ValueError:
            raise ValueError(f"lambda grid entry {lam!r} is not a finite "
                             f"nonnegative number") from None


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
# the type of an ExperimentConfig field by its annotation, and of the
# entries of each list field but the λ grid
_FIELD_TYPES = {"int": int, "float": float, "bool": bool}
_ENTRY_TYPES = {"methods": str, "datasets": str, "depths": int, "sample_sizes": int}


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
        """Refuse a value of the wrong type, or one that every run reads and
        a cell would refuse (``SplitCriteria``, ``grid_search_lambda``, the
        data generators), so that a bad config fails before any cell runs.
        The values that one kind of run reads alone are checked where its
        cells are made (``sweep_cells``, ``bench_cells``)."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "tuple":
                if not isinstance(value, (tuple, list)):
                    raise ValueError(f"{f.name} must be a list, got {value!r}")
                kind = _ENTRY_TYPES.get(f.name)  # None for the λ grid, checked below
                bad = [entry for entry in value if kind and not _of_type(entry, kind)]
                if bad:
                    raise ValueError(f"{f.name} entry {bad[0]!r} is not {_TYPE_NAMES[kind]}")
            elif not _of_type(value, _FIELD_TYPES[f.type]):
                raise ValueError(f"{f.name} must be {_TYPE_NAMES[_FIELD_TYPES[f.type]]}, "
                                 f"got {value!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and nonnegative")
        _check_lambda_grid(self.lambda_grid)
        for name in self.datasets:  # a cell's dataset name is a CSV field
            if any(ch in name for ch in ",\r\n"):
                raise ValueError(f"datasets entry {name!r} holds a comma or a line break")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        for method in self.methods:
            if method not in METHODS:
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
        return tuple(getattr(self, name) for name in _KEY_FIELDS)

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
# results.csv holds all but wall_time. A cell's key holds the _KEY_FIELDS.
RECORD_COLUMNS = tuple(f.name for f in fields(ExperimentRecord))
_RECORD_CASTS = tuple({"str": str, "int": int, "float": float}[f.type]
                      for f in fields(ExperimentRecord))
_KEY_FIELDS = ("method", "dataset", "param_name", "param_value", "seed", "metric")


def grid_search_lambda(data: Dataset, method: str, criteria: SplitCriteria,
                       grid, folds: int, seed: int):
    """Pick the grid value minimizing mean validation MSE across k folds.

    Each distinct grid value is fitted once per fold; ties break toward
    the smaller lambda. A failed fit, or a validation prediction that
    fails, is recorded in the CV table (that cell scores +inf) without
    aborting the search. Returns (best_lambda, table) where the table has
    one row per distinct lambda and fold. A
    method that takes no lambda (``tree.METHODS``) is grown at 0, so it
    returns (0.0, []) at once, fitting nothing.
    """
    if method in METHODS and not METHODS[method][2]:  # takes no lambda
        return 0.0, []
    grid = list(grid)
    if not grid:
        raise ValueError("lambda grid must be nonempty")
    if any(math.isnan(lam) for lam in grid):
        raise ValueError("lambda grid entry nan cannot be ordered")
    lams = sorted(set(grid))
    assignments = kfold_indices(data.n, folds, seed)
    cells = [(lam, i, fold) for lam in lams for i, fold in enumerate(assignments)]
    per_batch = max(1, _CV_ROWS // max(1, max(len(f.train_indices) for f in assignments)))
    table = []
    for start in range(0, len(cells), per_batch):
        batch = cells[start:start + per_batch]
        models = fit_method_many(
            method, ((data.subset(fold.train_indices), lam) for lam, _, fold in batch),
            criteria)
        for (lam, i, fold), model in zip(batch, models):
            val, err = math.inf, ""
            if isinstance(model, Exception):  # recorded, not raised
                err = f"{type(model).__name__}: {model}"
            else:  # and so is a validation prediction or squared error that overflows
                try:
                    pred = predict_batch(model, data.features[fold.test_indices])
                    with np.errstate(over="ignore"):
                        val = mse(pred, data.targets[fold.test_indices])
                    if not math.isfinite(val):
                        raise ValueError("the squared errors overflow")
                except ValueError as exc:  # val is inf
                    err = f"{type(exc).__name__} on the validation rows: {exc}"
            table.append({"lambda": lam, "fold": i, "mse": val, "error": err})
    # (lambda x fold) validation MSE, +inf where a cell failed
    means = np.array([row["mse"] for row in table]).reshape(len(lams), -1).mean(axis=1)
    best = int(np.argmin(means))  # the first minimum: the smallest lambda
    if not math.isfinite(means[best]):
        first = next(row for row in table if row["error"])
        raise ValueError(f"grid search failed for every lambda; first, lambda "
                         f"{first['lambda']:g} fold {first['fold']}: {first['error']}")
    return lams[best], table


def _tuned_fit(method: str, train: Dataset, config: ExperimentConfig,
               criteria: SplitCriteria, seed: int):
    """Fit with per-cell lambda tuning: (model, seconds of tuning + fit)."""
    t0 = time.perf_counter()
    lam, _ = grid_search_lambda(train, method, criteria,
                                config.lambda_grid, config.folds, seed)
    model = fit_method(method, train, lam, criteria)
    return model, time.perf_counter() - t0


def _sweep_cell(config: ExperimentConfig, dataset: str, method: str,
                depth: int, n_train: int, rep: int, seed: int):
    gen = SIM_GENERATORS[dataset]
    # data and test draws are shared across methods and parameter values
    # within a repeat, so method and depth/size curves are paired; the
    # cell seed (lambda tuning) stays fully cell-specific
    train = gen(n_train, config.noise_sigma,
                cell_seed(config.seed_base, dataset, "data", rep))
    test = gen(config.test_samples, 0.0,
               cell_seed(config.seed_base, dataset, "test", rep))
    model, wall = _tuned_fit(method, train, config, config.criteria(max_depth=depth), seed)
    return mse(predict_batch(model, test.features), test.clean_targets), wall


def sweep_cells(config: ExperimentConfig, kind: str) -> list:
    """The (dataset, method, parameter, repeat) cells of a sweep as
    (key, function, args) triples: ``function(*args)`` returns the value
    and wall time of the record whose ``_KEY_FIELDS`` are ``key``. Raises
    ValueError for a config value that this sweep's cells would refuse."""
    if kind == "depth":
        params = [(d, d, 2000) for d in config.depths]
        name = "depth"
    elif kind == "samples":
        params = [(n, config.max_depth, n) for n in config.sample_sizes]
        name = "n_samples"
    else:
        raise ValueError(f"unknown sweep kind {kind!r}")
    for _, depth, n_train in params:
        config.criteria(max_depth=depth)
        if n_train < config.folds:
            raise ValueError(f"sample size {n_train} is below folds={config.folds}")
    if config.test_samples < 1:
        raise ValueError("test_samples must be at least 1")
    cells = []
    for dataset in config.datasets:
        if dataset not in SIM_GENERATORS:
            raise ValueError(f"sweeps run on simulated datasets only, got {dataset!r}")
        for method in config.methods:
            for param, depth, n_train in params:
                for rep in range(config.repeats):
                    seed = cell_seed(config.seed_base, dataset, method, name, param, rep)
                    cells.append(((method, dataset, name, float(param), seed, "mse"),
                                  _sweep_cell,
                                  (config, dataset, method, depth, n_train, rep, seed)))
    return cells


def _bench_cell(config: ExperimentConfig, method: str, data: Dataset,
                split_seed: int, seed: int):
    # one partition per (dataset, repeat): every method scores the same split
    split = train_test_split(data, config.train_fraction, split_seed)
    train = data.subset(split.train_indices)
    test = data.subset(split.test_indices)
    if config.scale_features:
        train, test = minmax_scale(train, (test,))
    model, wall = _tuned_fit(method, train, config, config.criteria(), seed)
    return r2(predict_batch(model, test.features), test.targets), wall


def bench_cells(config: ExperimentConfig, manifest: dict | None, base_dir: str):
    """The (dataset, repeat, method) cells of the R^2 benchmark as
    (key, function, args) triples, like ``sweep_cells``, and the datasets
    skipped because their files are missing. A real dataset is loaded
    once; a simulated one is drawn once per repeat. Returns (cells,
    skipped). Raises ValueError for a config value that every cell would
    refuse, or for a manifest entry that ``check_manifest`` refuses."""
    config.criteria()
    if not 0 < config.train_fraction < 1:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    if manifest is not None:
        check_manifest(manifest)
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
                skipped.append({"dataset": name, "reason": exc.args[0]})
                continue
        for rep in range(config.repeats):
            data = real if real is not None else SIM_GENERATORS[name](
                2000, config.noise_sigma, cell_seed(config.seed_base, name, "data", rep))
            split_seed = cell_seed(config.seed_base, name, "split", rep)
            for method in config.methods:
                seed = cell_seed(config.seed_base, name, method, "benchmark", rep)
                cells.append(((method, name, "depth", float(config.max_depth), seed, "r2"),
                              _bench_cell, (config, method, data, split_seed, seed)))
    return cells, skipped


def _run_cell(cell) -> ExperimentRecord:
    key, function, args = cell
    value, wall_time = function(*args)
    return ExperimentRecord(**dict(zip(_KEY_FIELDS, key)), value=value, wall_time=wall_time)


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
        # every assignment's rank sum; midranks are half-integers, so each
        # sum is exact
        sums = ranks[np.array(list(combinations(range(n), n1)))].sum(axis=1)
        return w, int(np.count_nonzero(np.abs(sums - mu) >= abs(w - mu) - 1e-12)) / sums.size

    tie_term = sum(t ** 3 - t for t in tie_sizes)
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    # continuity correction toward the mean
    z = (w - mu - math.copysign(0.5, w - mu)) / math.sqrt(sigma2)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return w, min(1.0, p)


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
    ranks = {}
    for row in table.values():
        present = sorted(row)
        midranks, _ = _midranks(-np.array([row[m][0] for m in present]))
        for m, rank in zip(present, midranks.tolist()):
            ranks.setdefault(m, []).append(rank)
    return {m: sum(ranks[m]) / len(ranks[m]) for m in sorted(ranks)}


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


def check_alpha(alpha: float, name: str = "alpha"):
    """Refuse a significance level ``alpha`` (called ``name`` in the
    message) that does not lie strictly between 0 and 1, nan included."""
    if not 0 < alpha < 1:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {alpha}")


def significance_markers(per_repeat: dict, alpha: float = 0.1):
    """Two-sided rank-sum comparison of every method against ``fc_odt``
    on each dataset: '+' when ``fc_odt`` is significantly better, '-'
    when significantly worse, '' otherwise. Raises ValueError for an
    ``alpha`` that ``check_alpha`` refuses."""
    check_alpha(alpha)
    out = []
    for (dataset, method), vals in sorted(per_repeat.items()):
        ref_vals = per_repeat.get((dataset, "fc_odt"))
        if not ref_vals or method == "fc_odt":
            continue
        _, p = rank_sum_test(ref_vals, vals)
        marker = ""
        if p < alpha:
            marker = "+" if np.mean(ref_vals) > np.mean(vals) else "-"
        out.append({"dataset": dataset, "method": method, "p_value": p, "marker": marker})
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
        for number, line in _numbered(fh):
            cells = line.strip().split(",")
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
