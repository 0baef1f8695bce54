"""Byte-identity digests of fcodt's outputs on a fixed corpus.

Run with ``src`` on ``PYTHONPATH``:

    PYTHONPATH=src python tools/identity_digest.py

It prints one ``<group> <sha256>`` line per group of outputs:

* ``models``: ``model_to_text`` of every ``fit_method_many`` entry, or
  the failure it returned, for each method of ``tree.METHODS``, table,
  depth 1-6 and lambda 0, 1e-4, 0.1 and 10 (each method and depth one
  call, so the trees grow together);
* ``grid_search``: ``grid_search_lambda``'s choice and CV table, or its
  refusal, per table and method;
* ``routing``: ``route_batch`` predictions, path scores, leaves and paths,
  and ``decision_paths``, of every fitted model on its training rows;
* ``replay``: ``replay_training_data`` views of every fitted model, and
  ``stump_diagnostics`` of the ``fc_odt`` ones;
* ``records``: ``records_to_csv`` of a small depth sweep, sample sweep
  and R^2 benchmark that include ``cart``.

A change that keeps every output byte-identical keeps every line. To
compare two checkouts, run the script from each with that checkout's
``src`` on ``PYTHONPATH``, each in its own directory, and diff the
output. The script calls only long-standing library names, so it also
runs against older checkouts.
"""

from __future__ import annotations

import hashlib

import numpy as np

from fcodt import evaluation, stumps, tree
from fcodt.datasets import Dataset, gen_sim1, gen_sim2
from fcodt.tree import SplitCriteria

GROUPS = ("models", "grid_search", "routing", "replay", "records")
DEPTHS = (1, 2, 3, 4, 5, 6)
LAMBDAS = (0.0, 1e-4, 0.1, 10.0)
# the small sweeps and benchmark behind the ``records`` group
RUNS = evaluation.ExperimentConfig(
    methods=("fc_odt", "ridge_odt", "cart"), datasets=("sim1", "sim2"), depths=(1, 3),
    sample_sizes=(50, 200), repeats=1, lambda_grid=(1e-4, 0.1), max_depth=3, folds=3,
    test_samples=200, seed_base=5)


def integer_table(n: int, d: int, seed: int) -> Dataset:
    """Integer features of five levels and integer targets: every node's
    scores and columns tie."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(n, d)).astype(np.float64)
    return Dataset(X, X[:, 0] * X[:, 1] - 2.0 * X[:, 2] + rng.integers(0, 3, size=n))


def corpus() -> dict:
    """The tables of the full run, by name."""
    return {"sim1": gen_sim1(1200, 0.1, 11), "sim2": gen_sim2(1200, 0.1, 12),
            "sim2_small": gen_sim2(90, 0.1, 13), "integer": integer_table(600, 6, 14)}


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def digests(tables: dict, depths=DEPTHS, lams=LAMBDAS, runs=RUNS) -> dict:
    """{group: sha256 hex digest} of the outputs on ``tables`` (name ->
    Dataset) at ``depths`` and ``lams``, and of the ``runs`` config's
    depth sweep, sample sweep and benchmark."""
    hashes = {group: hashlib.sha256() for group in GROUPS}

    def put(group, *parts):
        for part in parts:
            hashes[group].update(part if isinstance(part, bytes) else repr(part).encode())

    jobs = [(name, data, lam) for name, data in tables.items() for lam in lams]
    for method in tree.METHODS:
        for depth in depths:
            models = tree.fit_method_many(method, [(data, lam) for _, data, lam in jobs],
                                          SplitCriteria(max_depth=depth))
            for (name, data, lam), model in zip(jobs, models):
                put("models", (method, name, depth, lam))
                if isinstance(model, Exception):
                    put("models", _failure(model))
                    continue
                put("models", tree.model_to_text(model))
                routing = tree.route_batch(model, data.features)
                put("routing", (method, name, depth, lam), routing.predictions.tobytes(),
                    routing.scores.tobytes(), routing.leaves.tobytes(),
                    sorted(routing.paths.items()),
                    tree.decision_paths(model, data.features))
                put("replay", (method, name, depth, lam))
                for slot, view in sorted(tree.replay_training_data(model, data).items()):
                    put("replay", slot, view.indices.tobytes(), view.features.tobytes(),
                        view.incoming.tobytes(),
                        None if view.scores is None else view.scores.tobytes())
                if method == "fc_odt":
                    basis, gap = stumps.stump_diagnostics(model, data)
                    put("replay", basis.stumps.tobytes(), basis.coefficients.tobytes(),
                        basis.node_ids, basis.dropped, gap)

    for name, data in tables.items():
        for method in tree.METHODS:
            put("grid_search", (name, method))
            try:
                put("grid_search", evaluation.grid_search_lambda(
                    data, method, SplitCriteria(max_depth=3), lams, 3, 0))
            except ValueError as exc:
                put("grid_search", _failure(exc))

    put("records", evaluation.records_to_csv(evaluation.run_depth_sweep(runs)),
        evaluation.records_to_csv(evaluation.run_sample_sweep(runs)),
        evaluation.records_to_csv(evaluation.run_benchmark(runs)[0]))
    return {group: h.hexdigest() for group, h in hashes.items()}


def report(digest_map: dict) -> str:
    """One ``<group> <sha256>`` line per group."""
    return "".join(f"{group} {digest}\n" for group, digest in digest_map.items())


if __name__ == "__main__":
    print(report(digests(corpus())), end="")
