"""In-memory call tracing for the benchmark's traced run.

A Tracer replaces public functions of the fcodt modules with wrappers that
record one span per call: id, parent span, root span, name, start, end and
self time (duration minus the time covered by child spans). A function is
replaced at every place it can be called from: its defining module or
class, every fcodt module attribute bound to it, and every value of a
module-level dict (such as ``evaluation.SIM_GENERATORS``) bound to it.
``uninstall`` puts the originals back, so untraced runs carry no wrappers.
Nothing under ``src/`` is modified.

Span names are ``<module>.<function>``; the module part is the layer.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("linalg", "tree", "baselines", "datasets", "evaluation", "stumps", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_solve_ridge(counters, args, kwargs, result):
    n, p = np.shape(_arg(args, kwargs, 0, "X"))
    counters["linalg.solve_ridge.dim_sum"] += p
    counters["linalg.solve_ridge.gram_flop"] += n * p * p


def _count_threshold_rows(counters, args, kwargs, result):
    counters["tree.best_threshold.rows"] += len(_arg(args, kwargs, 0, "projections"))


def _count_split_found(counters, args, kwargs, result):
    counters["tree.find_oblique_split.found"] += result is not None


def _count_predict_rows(counters, args, kwargs, result):
    counters["tree.predict_batch.rows"] += len(_arg(args, kwargs, 1, "X"))


def _count_parsed_rows(counters, args, kwargs, result):
    counters["datasets.parse_csv.rows"] += result.n


def _count_grid_fits(counters, args, kwargs, result):
    table = result[1]
    counters["evaluation.grid_search_lambda.fits"] += len(table)
    counters["evaluation.grid_search_lambda.failed_fits"] += sum(
        1 for row in table if row["error"])


def _count_written_bytes(counters, args, kwargs, result):
    counters["cli.atomic_write.bytes"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))


def package_targets():
    """(span name, owner, attribute, counter hook) for every traced function."""
    from fcodt import baselines, cli, datasets, evaluation, linalg, stumps, tree

    return [
        ("linalg.solve_ridge", linalg, "solve_ridge", _count_solve_ridge),
        ("linalg.spd_solve", linalg, "spd_solve", None),
        ("tree.fit_fc_odt", tree, "fit_fc_odt", None),
        ("tree.find_oblique_split", tree, "find_oblique_split", _count_split_found),
        ("tree.best_threshold", tree, "best_threshold", _count_threshold_rows),
        ("tree.predict_batch", tree, "predict_batch", _count_predict_rows),
        ("tree.decision_path", tree, "decision_path", None),
        ("tree.replay_training_data", tree, "replay_training_data", None),
        ("tree.model_from_text", tree, "model_from_text", None),
        ("tree.model_to_text", tree, "model_to_text", None),
        ("baselines.fit_cart", baselines, "fit_cart", None),
        ("baselines.fit_ridge_odt", baselines, "fit_ridge_odt", None),
        ("datasets.parse_csv", datasets, "parse_csv", _count_parsed_rows),
        ("datasets.subset", datasets.Dataset, "subset", None),
        ("datasets.kfold_indices", datasets, "kfold_indices", None),
        ("datasets.train_test_split", datasets, "train_test_split", None),
        ("datasets.gen_sim", datasets, "gen_sim1", None),
        ("datasets.gen_sim", datasets, "gen_sim2", None),
        ("evaluation.grid_search_lambda", evaluation, "grid_search_lambda", _count_grid_fits),
        ("evaluation.run_benchmark", evaluation, "run_benchmark", None),
        ("evaluation.run_depth_sweep", evaluation, "run_depth_sweep", None),
        ("evaluation.run_sample_sweep", evaluation, "run_sample_sweep", None),
        ("evaluation.records_to_csv", evaluation, "records_to_csv", None),
        ("evaluation.aggregate_benchmark", evaluation, "aggregate_benchmark", None),
        ("evaluation.significance_markers", evaluation, "significance_markers", None),
        ("stumps.compute_stumps", stumps, "compute_stumps", None),
        ("stumps.verify_orthogonal_expansion", stumps, "verify_orthogonal_expansion", None),
        ("cli.main", cli, "main", None),
        ("cli.predict", cli, "cmd_predict", None),
        ("cli.inspect", cli, "cmd_inspect", None),
        ("cli.atomic_write", cli, "atomic_write", _count_written_bytes),
    ]


# Per-layer metrics reported by the traced run: (span name, fields). Every
# span reports calls and ms; self_ms is listed only where the span has
# child spans.
REPORTED = (
    ("linalg.solve_ridge", ("calls", "ms", "self_ms")),
    ("linalg.spd_solve", ("calls", "ms")),
    ("tree.fit_fc_odt", ("calls", "ms", "self_ms")),
    ("tree.find_oblique_split", ("calls", "ms", "self_ms")),
    ("tree.best_threshold", ("calls", "ms")),
    ("tree.predict_batch", ("calls", "ms")),
    ("tree.decision_path", ("calls", "ms")),
    ("tree.replay_training_data", ("calls", "ms")),
    ("tree.model_from_text", ("calls", "ms")),
    ("tree.model_to_text", ("calls", "ms")),
    ("baselines.fit_cart", ("calls", "ms", "self_ms")),
    ("baselines.fit_ridge_odt", ("calls", "ms")),
    ("datasets.parse_csv", ("calls", "ms")),
    ("datasets.subset", ("calls", "ms")),
    ("datasets.kfold_indices", ("calls", "ms")),
    ("datasets.train_test_split", ("calls", "ms")),
    ("datasets.gen_sim", ("calls", "ms")),
    ("evaluation.grid_search_lambda", ("calls", "ms", "self_ms")),
    ("evaluation.run_benchmark", ("calls", "ms", "self_ms")),
    ("evaluation.run_depth_sweep", ("calls", "ms")),
    ("evaluation.run_sample_sweep", ("calls", "ms")),
    ("evaluation.records_to_csv", ("calls", "ms")),
    ("evaluation.aggregate_benchmark", ("calls", "ms")),
    ("evaluation.significance_markers", ("calls", "ms")),
    ("stumps.compute_stumps", ("calls", "ms", "self_ms")),
    ("stumps.verify_orthogonal_expansion", ("calls", "ms", "self_ms")),
    ("cli.main", ("calls", "ms", "self_ms")),
    ("cli.predict", ("calls", "ms", "self_ms")),
    ("cli.inspect", ("calls", "ms", "self_ms")),
    ("cli.atomic_write", ("calls", "ms")),
)

FIELD_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms"}

# Metrics derived from counter hooks and span durations: name -> unit.
DERIVED_UNITS = {
    "linalg.solve_ridge.dim_mean": "columns",
    "linalg.solve_ridge.gram_mflop": "MFLOP",
    "tree.find_oblique_split.split_yield": "ratio",
    "tree.best_threshold.rows": "rows",
    "tree.predict_batch.rows": "rows",
    "tree.decision_path.us_p50": "us",
    "datasets.parse_csv.rows": "rows",
    "evaluation.grid_search_lambda.fits": "count",
    "evaluation.grid_search_lambda.failed_fits": "count",
    "cli.atomic_write.bytes": "bytes",
}


class Tracer:
    """Records spans of wrapped calls in memory; single-threaded."""

    def __init__(self):
        # (id, parent id or None, root id, name, start s, end s, self s)
        self.spans = []
        self.counters = defaultdict(float)
        self._open = []  # [id, root id, seconds covered by child spans]
        self._next_id = 0
        self._undo = []

    def _wrap(self, name, fn, hook):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._open[-1] if tracer._open else None
            frame = [span_id, parent[1] if parent else span_id, 0.0]
            tracer._open.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._open.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                tracer.spans.append((span_id, parent[0] if parent else None, frame[1],
                                     name, start, end, duration - frame[2]))
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    def _replace(self, container, key, value, is_dict):
        old = container[key] if is_dict else getattr(container, key)
        self._undo.append((container, key, old, is_dict))
        if is_dict:
            container[key] = value
        else:
            setattr(container, key, value)

    def install(self, targets):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fcodt" or n.startswith("fcodt.")]
        for name, owner, attr, hook in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            self._replace(owner, attr, wrapper, False)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper, False)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._replace(value, dkey, wrapper, True)

    def uninstall(self):
        while self._undo:
            container, key, old, is_dict = self._undo.pop()
            if is_dict:
                container[key] = old
            else:
                setattr(container, key, old)

    def top_level_seconds(self) -> float:
        return sum(s[5] - s[4] for s in self.spans if s[1] is None)

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}, totals over every
        traced call."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_total = defaultdict(float)
        decision_us = []
        for _, _, _, name, start, end, self_s in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_total[name] += self_s
            if name == "tree.decision_path":
                decision_us.append((end - start) * 1e6)
        out = {}
        for name, fields in REPORTED:
            values = {"calls": calls[name], "ms": total[name] * 1e3,
                      "self_ms": self_total[name] * 1e3}
            for field in fields:
                out[f"{name}.{field}"] = (values[field], FIELD_UNITS[field])
        c = self.counters
        ridge_calls = calls["linalg.solve_ridge"]
        split_calls = calls["tree.find_oblique_split"]
        derived = {
            "linalg.solve_ridge.dim_mean":
                c["linalg.solve_ridge.dim_sum"] / ridge_calls if ridge_calls else 0.0,
            "linalg.solve_ridge.gram_mflop": c["linalg.solve_ridge.gram_flop"] / 1e6,
            "tree.find_oblique_split.split_yield":
                c["tree.find_oblique_split.found"] / split_calls if split_calls else 0.0,
            "tree.decision_path.us_p50":
                statistics.median(decision_us) if decision_us else 0.0,
        }
        for name, unit in DERIVED_UNITS.items():
            out[name] = (derived[name] if name in derived else c[name], unit)
        for layer in LAYERS:
            names = [n for n in calls if n.split(".", 1)[0] == layer]
            out[f"layer.{layer}.calls"] = (sum(calls[n] for n in names), "count")
            out[f"layer.{layer}.self_ms"] = (sum(self_total[n] for n in names) * 1e3, "ms")
        return out

    def write(self, path: str, header: dict):
        """Write the header, then one JSON line per span (times in
        microseconds from the first span's start)."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent, root, name, start, end, self_s in sorted(
                    self.spans, key=lambda s: s[4]):
                fh.write(json.dumps([span_id, parent, root, name,
                                     round((start - origin) * 1e6, 3),
                                     round((end - origin) * 1e6, 3),
                                     round(self_s * 1e6, 3)]) + "\n")
