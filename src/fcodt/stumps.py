"""Orthonormal decision-stump diagnostics for residual-path trees.

For a tree fit with concatenation and residual updates, each internal
node contributes one stump: take the node's children, ridge-fit each
child's concatenated features against the *original* targets (zero
outside the child), and orthogonalize the combined child fit against the
parent's own fit under the empirical inner product

    <u, v>_n = (1/n) sum_i u(x_i) v(x_i).

Because each child's feature span contains the parent's (concatenation
adds the parent's own score column), the parent fit is exactly the
projection of the combined child fit onto the parent span, so the
Gram-Schmidt step reduces to (left fit + right fit - parent fit). The
root has no parent fit, so its baseline is the zero function and its
stump is the normalized combined child fit.

As the regularization strength approaches zero these stumps are exactly
orthonormal, the squared coefficient <y, psi_t>^2 equals the node's
impurity decrease computed with node-wise linear predictions, and the
expansion sum_t <y, psi_t> psi_t reproduces the path-telescoped linear
prediction. At larger lambda the identities degrade; the diagnostics
still run and simply report the deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .linalg import solve_ridge_many
from .tree import ObliqueNode, ObliqueTreeModel, replay_training_data

# floor keeps child solves well-posed when the model was fit at lambda=0
_MIN_DIAG_LAMBDA = 1e-12


@dataclass
class StumpBasis:
    """Unit stump columns (one per kept internal node) and their target
    coefficients; ``dropped`` lists internal nodes whose stump had zero
    empirical norm after orthogonalization."""

    stumps: np.ndarray
    coefficients: np.ndarray
    node_ids: list = field(default_factory=list)
    dropped: list = field(default_factory=list)


@dataclass
class _Replay:
    """One replay of a dataset through a model with the ridge fits (at the
    floored lambda) that every diagnostic reads: the per-node ``views``;
    per reached node the fit of the original targets on its features, a
    length-n vector that is zero off-node (``fits``); and the
    path-telescoped linear prediction (``path_prediction``)."""

    views: dict
    fits: dict
    path_prediction: np.ndarray


def _replay_fits(model: ObliqueTreeModel, data: Dataset) -> _Replay:
    """Replay ``data`` once and fit every node's original targets and
    every leaf's incoming residuals, one ``solve_ridge_many`` call per
    feature width; each solve equals ``solve_ridge`` on its own problem."""
    if not (model.concatenate and model.residual_path):
        raise ValueError(
            "stump diagnostics require a model fit with concatenate and residual_path on")
    views = replay_training_data(model, data)
    lam = max(model.lam, _MIN_DIAG_LAMBDA)
    y = data.targets
    problems: dict[int, list] = {}
    for slot, view in views.items():
        batch = problems.setdefault(view.features.shape[1], [])
        batch.append(((slot, "node"), view.features, y[view.indices]))
        if view.scores is None:
            batch.append(((slot, "leaf"), view.features, view.incoming))
    preds = {}
    for batch in problems.values():
        solutions = solve_ridge_many([(X, t) for _, X, t in batch], [lam] * len(batch))
        for (key, X, _), sol in zip(batch, solutions):
            preds[key] = X @ sol.weights + sol.intercept
    fits = {}
    path_prediction = np.zeros(data.n)
    for slot, view in views.items():
        fits[slot] = np.zeros(data.n)
        fits[slot][view.indices] = preds[slot, "node"]
        if view.scores is None:
            path_prediction[view.indices] += preds[slot, "leaf"]
        else:
            path_prediction[view.indices] += view.scores
    return _Replay(views, fits, path_prediction)


def _internal_fits(model: ObliqueTreeModel, replay: _Replay):
    """Per internal node, in slot order: its slot, its own fit (``0.0`` at
    the root, whose baseline is the zero function) and its children's
    summed fit. Raises at once, before anything reads the targets, unless
    some row of the replayed data reaches every node."""
    unreached = [slot for slot in range(len(model.nodes)) if slot not in replay.views]
    if unreached:
        raise ValueError(f"no row of the data reaches node {unreached[0]}")
    fits = replay.fits
    return ((slot, fits[slot] if slot != 0 else 0.0, fits[node.left] + fits[node.right])
            for slot, node in enumerate(model.nodes) if isinstance(node, ObliqueNode))


def compute_stumps(model: ObliqueTreeModel, data: Dataset) -> StumpBasis:
    """Build the orthonormal stump basis on the model's training data."""
    return stump_diagnostics(model, data)[0]


def path_linear_prediction(model: ObliqueTreeModel, data: Dataset) -> np.ndarray:
    """Training predictions of the path-telescoped linear estimator: the
    sum of the model's projection scores along each path plus a leaf-level
    ridge fit of the incoming residuals.

    This is the tree functional whose orthogonal expansion the stumps
    realize; it differs from the model's own training prediction only in
    the leaf term, where the residual mean is replaced by the leaf's
    linear correction.
    """
    return _replay_fits(model, data).path_prediction


def stump_diagnostics(model: ObliqueTreeModel, data: Dataset) -> tuple[StumpBasis, float]:
    """The stump basis (``compute_stumps``) and the gap of its expansion
    (``verify_orthogonal_expansion``) from one replay of the data."""
    replay = _replay_fits(model, data)
    internal = _internal_fits(model, replay)  # checks reachability before y is read
    y = data.targets
    y_scale = max(1.0, float(np.sqrt(np.mean(y * y))))

    columns = []
    coefs = []
    node_ids = []
    dropped = []
    for slot, parent_fit, child_fit in internal:
        delta = child_fit - parent_fit
        norm = float(np.sqrt(np.mean(delta * delta)))
        # a vanishing norm means the children's fits add nothing beyond
        # the parent's; normalizing would amplify solver noise into a
        # garbage column, so the stump is dropped instead
        if norm <= 1e-7 * y_scale:
            dropped.append(slot)
            continue
        psi = delta / norm
        columns.append(psi)
        coefs.append(float(np.mean(y * psi)))
        node_ids.append(slot)
    stumps = np.column_stack(columns) if columns else np.zeros((data.n, 0))
    basis = StumpBasis(stumps=stumps, coefficients=np.asarray(coefs),
                       node_ids=node_ids, dropped=dropped)
    expansion = basis.stumps @ basis.coefficients
    return basis, float(np.max(np.abs(replay.path_prediction - expansion)))


def verify_orthogonal_expansion(model: ObliqueTreeModel, data: Dataset) -> float:
    """Max absolute gap, over training points, between the path-telescoped
    linear prediction and the stump expansion sum_t <y, psi_t> psi_t."""
    return stump_diagnostics(model, data)[1]


def stump_gram_matrix(basis: StumpBasis) -> np.ndarray:
    """Empirical Gram matrix of the stump columns (identity when the
    basis is orthonormal)."""
    return basis.stumps.T @ basis.stumps / basis.stumps.shape[0]


def linear_impurity_decrease(model: ObliqueTreeModel, data: Dataset) -> dict[int, float]:
    """Impurity decrease per internal node recomputed with node-wise
    linear predictions: the node's own full-target ridge fit as baseline
    (zero at the root) against the children's fits."""
    replay = _replay_fits(model, data)
    y = data.targets
    out = {}
    for slot, parent_fit, child_fit in _internal_fits(model, replay):
        idx = replay.views[slot].indices
        out[slot] = float(
            (np.sum((y - parent_fit)[idx] ** 2) - np.sum((y - child_fit)[idx] ** 2)) / data.n)
    return out
