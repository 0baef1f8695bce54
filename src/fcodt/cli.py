"""Command-line surface: train, predict, simulate, sweep, bench, inspect.

All outputs are written atomically (temp file + rename) and every command
is deterministic for identical flags and inputs; randomness only flows
from explicit seed flags or the config's seed base.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from itertools import islice

import numpy as np

from . import evaluation
from .datasets import (
    csv_matrix,
    dataset_to_csv,
    gen_sim1,
    gen_sim2,
    load_manifest,
    manifest_file,
    read_table,
    sha256_file,
)
from .evaluation import (
    DEFAULT_LAMBDA_GRID,
    RECORD_COLUMNS,
    ExperimentConfig,
    ExperimentRecord,
    aggregate_benchmark,
    aggregate_to_csv,
    grid_search_lambda,
    load_reference_scores,
    records_to_csv,
    significance_markers,
    significance_to_csv,
    timings_to_csv,
)
from .stumps import stump_diagnostics, stump_gram_matrix
from .tree import (
    METHODS,
    ObliqueNode,
    SplitCriteria,
    model_from_text,
    model_to_text,
    predict_batch,
    route_batch,
)

MANIFEST_ENV = "FCODT_MANIFEST"

CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)} | {"manifest"}


def atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_run_config(path: str):
    """Parse a declarative run-config document; unknown keys are rejected
    and every field falls back to its documented default. Returns (config,
    manifest path or None, sha256 of the document's bytes)."""
    with open(path, "rb") as fh:
        data = fh.read()
    raw = json.loads(data.decode("utf-8"))
    if not isinstance(raw, dict):
        raise ValueError("run config must be a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    manifest_path = raw.pop("manifest", None)
    kwargs = {}
    for key, value in raw.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return ExperimentConfig(**kwargs), manifest_path, hashlib.sha256(data).hexdigest()


def _criteria_from_args(args) -> SplitCriteria:
    return SplitCriteria(
        max_depth=args.max_depth,
        min_samples_split=args.min_split,
        min_samples_leaf=args.min_leaf,
        min_gain=args.min_gain,
    )


def cmd_train(args) -> int:
    data = read_table(args.data, args.format, args.target, args.drop)
    if data.n == 0:
        print("error: training data is empty", file=sys.stderr)
        return 1
    criteria = _criteria_from_args(args)
    if args.lam == "cv":
        grid = tuple(float(v) for v in args.grid.split(","))
        lam, table = grid_search_lambda(data, args.method, criteria, grid,
                                        args.folds, args.seed)
        print("lambda,fold,val_mse")
        for row in table:
            print(f"{row['lambda']:g},{row['fold']},{row['mse']:.6g}")
        print(f"chosen lambda: {lam:g}")
    else:
        lam = float(args.lam)
    model = evaluation.fit_method(args.method, data, lam, criteria)
    atomic_write(args.out, model_to_text(model))
    train_mse = evaluation.mse(predict_batch(model, data.features), data.targets)
    print(f"training mse: {train_mse:.6g}")
    print(f"fitted depth: {model.fitted_depth}")
    print(f"nodes: {len(model.nodes)} ({model.n_leaves} leaves)")
    return 0


def _explain_lines(model, routing) -> list:
    """One ``prediction,path_nodes,path_scores`` line per routed row:
    node ids and scores root first, ``;``-separated."""
    depths = np.array([node.depth for node in model.nodes])[routing.leaves]
    # row-major: each row's prediction, then its path scores
    kept = np.arange(routing.scores.shape[1] + 1) <= depths[:, None]
    cells = iter(map("{:.17g}".format,
                     np.column_stack([routing.predictions, routing.scores])[kept].tolist()))
    nodes = {slot: ";".join(map(str, path)) for slot, path in routing.paths.items()}
    return [f"{next(cells)},{nodes[leaf]},{';'.join(islice(cells, depth))}"
            for leaf, depth in zip(routing.leaves.tolist(), depths.tolist())]


def cmd_predict(args) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        model = model_from_text(fh.read())
    if args.target is not None or args.format == "libsvm":
        data = read_table(args.data, args.format, args.target, args.drop)
        X = data.features
    else:
        # no target column: every column is a feature
        with open(args.data, "r", encoding="utf-8") as fh:
            X = csv_matrix(fh.read())
    if X.shape[0] and X.shape[1] != model.input_dim:
        print(f"error: model expects {model.input_dim} features, data has {X.shape[1]}",
              file=sys.stderr)
        return 1
    if args.explain:
        lines = ["prediction,path_nodes,path_scores"]
        if X.shape[0]:
            lines.extend(_explain_lines(model, route_batch(model, X)))
    else:
        preds = predict_batch(model, X) if X.shape[0] else np.zeros(0)
        lines = ["prediction", *map("{:.17g}".format, preds.tolist())]
    atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {X.shape[0]} predictions to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    gen = {"sim1": gen_sim1, "sim2": gen_sim2}[args.which]
    data = gen(args.n, args.sigma, args.seed)
    atomic_write(args.out, dataset_to_csv(data, include_clean=True))
    print(f"wrote {data.n} rows to {args.out}")
    return 0


def _run_journaled(cells, workers: int, out: str, kind: str, stamp: str) -> list:
    """The records of the (key, function, args) ``cells``, sorted by key,
    also written to ``results.csv`` and ``timings.csv`` in ``out``.

    Records already in the journal ``<out>/<kind>_journal.csv`` are read
    back; the other cells run through ``evaluation.iter_cells`` and this
    process appends each record as it returns, so an interrupted run
    resumes without recomputing. The journal starts with ``stamp``, the
    ``# ``-prefixed lines naming what the records depend on (the run
    config's sha256, then any real data): a journal with another stamp is
    refused, untouched. A last line without its newline (a write cut
    short) is dropped and its cell rerun; any other malformed line is
    refused."""
    journal = os.path.join(out, f"{kind}_journal.csv")
    header = f"{stamp}{','.join(RECORD_COLUMNS)}\n"
    done = {}
    if os.path.exists(journal):
        with open(journal, "rb") as fh:
            text = fh.read().decode("utf-8")
        if not text.startswith(header):
            expected = "; ".join(line[2:] for line in stamp.splitlines())
            raise ValueError(f"journal {journal} was not written for this run config "
                             f"and data ({expected}); remove it or choose another --out")
        complete = text[:text.rfind("\n") + 1]
        if complete != text:
            with open(journal, "r+b") as fh:
                fh.truncate(len(complete.encode("utf-8")))
        skip = header.count("\n")
        for number, line in enumerate(complete.split("\n")[skip:-1], start=skip + 1):
            try:
                record = ExperimentRecord.from_cells(line.split(","))
            except ValueError:
                raise ValueError(f"journal {journal} line {number}: malformed record "
                                 f"{line!r}") from None
            done[record.key()] = record
    pending = [cell for cell in cells if cell[0] not in done]
    print(f"{len(cells)} cells, {len(cells) - len(pending)} already done, "
          f"{len(pending)} to run")
    os.makedirs(out, exist_ok=True)
    with open(journal, "a", encoding="utf-8") as fh:
        if fh.tell() == 0:
            fh.write(header)
            fh.flush()
        for r in evaluation.iter_cells(pending, workers):
            fh.write(",".join(r.cells()) + "\n")
            fh.flush()
            done[r.key()] = r
    records = [done[key] for key in sorted(key for key, _, _ in cells)]
    atomic_write(os.path.join(out, "results.csv"), records_to_csv(records))
    atomic_write(os.path.join(out, "timings.csv"), timings_to_csv(records))
    return records


def cmd_sweep(args) -> int:
    config, _, config_sha = load_run_config(args.config)
    records = _run_journaled(evaluation.sweep_cells(config, args.kind), config.workers,
                             args.out, args.kind, f"# config_sha256 {config_sha}\n")
    stamp = {"config_sha256": config_sha, "kind": args.kind,
             "seed_base": config.seed_base, "cells": len(records)}
    atomic_write(os.path.join(args.out, "stamp.json"),
                 json.dumps(stamp, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {os.path.join(args.out, 'results.csv')}")
    return 0


def cmd_bench(args) -> int:
    config, manifest_path, config_sha = load_run_config(args.config)
    manifest_path = args.manifest or os.environ.get(MANIFEST_ENV) or manifest_path
    manifest = load_manifest(manifest_path) if manifest_path else None
    base_dir = os.path.dirname(os.path.abspath(manifest_path)) if manifest_path else "."
    reference = load_reference_scores(args.reference) if args.reference else None

    cells, skipped = evaluation.bench_cells(config, manifest, base_dir)
    stamp = f"# config_sha256 {config_sha}\n"
    missing = {entry["dataset"] for entry in skipped}
    for name in config.datasets:
        if name not in evaluation.SIM_GENERATORS and name not in missing:
            entry = manifest[name]
            entry_sha = hashlib.sha256(json.dumps(entry, sort_keys=True).encode()).hexdigest()
            file_sha = sha256_file(manifest_file(entry, base_dir))
            stamp += f"# dataset {name} entry_sha256 {entry_sha} file_sha256 {file_sha}\n"
    records = _run_journaled(cells, config.workers, args.out, "bench", stamp)

    table, ranks, per_repeat = aggregate_benchmark(records, reference)
    atomic_write(os.path.join(args.out, "aggregate.csv"),
                 aggregate_to_csv(table, ranks))
    markers = significance_markers(per_repeat, alpha=args.alpha)
    atomic_write(os.path.join(args.out, "significance.csv"),
                 significance_to_csv(markers))
    report = {"skipped": skipped, "config_sha256": config_sha,
              "datasets_run": sorted(table)}
    atomic_write(os.path.join(args.out, "report.json"),
                 json.dumps(report, indent=2, sort_keys=True) + "\n")
    for entry in skipped:
        print(f"skipped {entry['dataset']}: {entry['reason']}")
    print(f"wrote {len(records)} records to {os.path.join(args.out, 'results.csv')}")
    return 0


def cmd_inspect(args) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        model = model_from_text(fh.read())
    flags = f"concatenate={int(model.concatenate)} residual_path={int(model.residual_path)}"
    print(f"oblique tree: input_dim={model.input_dim} lambda={model.lam:g} {flags}")
    print(f"criteria: max_depth={model.criteria.max_depth} "
          f"min_split={model.criteria.min_samples_split} "
          f"min_leaf={model.criteria.min_samples_leaf} "
          f"min_gain={model.criteria.min_gain:g}")
    for i, node in enumerate(model.nodes):
        indent = "  " * node.depth
        if isinstance(node, ObliqueNode):
            proj = " ".join(f"{v:+.4g}" for v in node.projection)
            print(f"{indent}[{i}] split thr={node.threshold:.6g} gain={node.gain:.6g} "
                  f"children=({node.left},{node.right}) proj=[{proj}]")
        else:
            print(f"{indent}[{i}] leaf value={node.residual_mean:.6g} "
                  f"count={node.sample_count}")
    if args.stumps:
        if not args.data:
            print("error: --stumps requires --data with the training table",
                  file=sys.stderr)
            return 1
        data = read_table(args.data, args.format, args.target, args.drop)
        basis, deviation = stump_diagnostics(model, data)
        gram = stump_gram_matrix(basis)
        gram_err = float(np.max(np.abs(gram - np.eye(gram.shape[0])))) if gram.size else 0.0
        print(f"stumps: {basis.stumps.shape[1]} kept, {len(basis.dropped)} dropped")
        print(f"max gram deviation from identity: {gram_err:.3e}")
        print(f"max orthogonal-expansion deviation: {deviation:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcodt",
        description="Oblique regression trees with ridge-projection splits "
                    "and feature concatenation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_table_flags(p, with_target_default=True, data_required=True):
        p.add_argument("--data", required=data_required, help="input table path")
        p.add_argument("--format", choices=["csv", "libsvm"], default="csv")
        p.add_argument("--target", default="y" if with_target_default else None,
                       help="target column name or index (csv)")
        p.add_argument("--drop", nargs="*", default=[],
                       help="csv columns to exclude from the features")

    p = sub.add_parser("train", help="fit a tree and save it")
    add_table_flags(p)
    p.add_argument("--method", choices=list(METHODS), default="fc_odt")
    p.add_argument("--lambda", dest="lam", default="0.01",
                   help="ridge strength, or 'cv' for grid-searched")
    p.add_argument("--grid", default=",".join(format(v, "g") for v in DEFAULT_LAMBDA_GRID))
    p.add_argument("--folds", type=int, default=ExperimentConfig.folds)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=SplitCriteria.max_depth)
    p.add_argument("--min-split", type=int, default=SplitCriteria.min_samples_split)
    p.add_argument("--min-leaf", type=int, default=SplitCriteria.min_samples_leaf)
    p.add_argument("--min-gain", type=float, default=SplitCriteria.min_gain)
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a table with a saved model")
    p.add_argument("--model", required=True)
    add_table_flags(p, with_target_default=False)
    p.add_argument("--explain", action="store_true",
                   help="append decision-path columns")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="generate a simulated dataset CSV")
    p.add_argument("--which", choices=["sim1", "sim2"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run the depth or sample-size sweep")
    p.add_argument("--config", required=True, help="run-config JSON path")
    p.add_argument("--kind", choices=["depth", "samples"], required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="run the real-data benchmark")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", default=None,
                   help=f"dataset manifest (overrides ${MANIFEST_ENV} and config)")
    p.add_argument("--reference", default=None,
                   help="published mean/std scores CSV for rank aggregation")
    p.add_argument("--alpha", type=float, default=0.1,
                   help="significance level for rank-sum markers")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect", help="print a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--stumps", action="store_true",
                   help="run the orthonormal-stump diagnostics")
    add_table_flags(p, data_required=False)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
