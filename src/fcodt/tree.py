"""Oblique regression trees with ridge-projection splits.

A fitted tree is a flat list of nodes (root at index 0). Internal nodes
hold a projection over the node's feature representation plus a trailing
bias, a threshold, and child indices; leaves hold the mean of the targets
that reached them.

Two variant flags control the learner:

* ``concatenate`` - after a split, the node's projection scores are
  appended as a new feature column before the children are fit, so each
  extra tree level adds one feature (dimension d + depth).
* ``residual_path`` - children fit the residual of their ancestors'
  linear predictions instead of the raw targets, and prediction sums the
  projection scores along the decision path before adding the leaf value.
  The threshold then maximises the impurity decrease of the node-wise
  linear estimator of the stump theory (``stumps``):
  ``[sum (y_t - s)^2 - J_left - J_right] / n_total``, J_child being the
  penalised residual of a ridge fit of ``y_t - s`` on the node's features
  within that child (``best_residual_threshold``). Each child is credited
  with that fit, also one that becomes a leaf (at ``max_depth`` or below
  ``min_samples_split``) and keeps the mean of its residuals. Without the
  flag the threshold maximises the decrease around the child means
  (``best_threshold``), the criterion of constant children.

Both flags on gives the feature-concatenating learner; both off gives a
plain ridge-projection tree with mean leaves.

Every learner grows its trees in one loop (``_grow``): one level at a
time, several trees together, so that each level's ridge fits and
threshold searches run as batches. Only the split search differs
(``_split_nodes``): "mean" and "residual" search each node's ridge
projection by ``best_threshold`` or ``best_residual_threshold``, "axis"
(``cart``) each column by ``best_threshold``, each set of candidates as
one batch of nodes.
``METHODS`` names each learner of the comparison by its settings of that
loop, and ``fit_method(_many)`` fits one by name.
Every prediction goes through one router (``_walk``): ``route_batch``
(and ``predict_batch``, ``predict`` and ``decision_path(s)`` through it)
and ``replay_training_data`` only read what it yields. It and ``_grow``
split a node's rows by one rule, left iff score < threshold, and pass the
node's inputs to its children by one child step (``_child_inputs``):
``_grow`` selects each child's rows before the step, the router after it,
each the faster order for its caller.
Models load only when their nodes form one tree.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset, _fmt
from .linalg import SingularSystemError, _check_lambdas, solve_ridge_many


@dataclass(frozen=True)
class SplitCriteria:
    """Eligibility thresholds for splitting a node."""

    max_depth: int = 4
    min_samples_split: int = 20
    min_samples_leaf: int = 8
    min_gain: float = 0.0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        if self.min_samples_split < 2 * self.min_samples_leaf:
            raise ValueError(
                "min_samples_split must be at least twice min_samples_leaf")
        if not 0 <= self.min_gain < math.inf:  # a model file holds finite numbers only
            raise ValueError("min_gain must be finite and nonnegative")


@dataclass
class ObliqueNode:
    """Internal node: score = projection[:-1] @ features + projection[-1],
    route left iff score < threshold."""

    depth: int
    projection: np.ndarray
    threshold: float
    gain: float
    left: int
    right: int


@dataclass
class LeafNode:
    depth: int
    residual_mean: float
    sample_count: int


@dataclass
class ObliqueTreeModel:
    input_dim: int
    lam: float
    criteria: SplitCriteria
    concatenate: bool
    residual_path: bool
    nodes: list = field(default_factory=list)

    @property
    def n_internal(self) -> int:
        return sum(isinstance(n, ObliqueNode) for n in self.nodes)

    @property
    def n_leaves(self) -> int:
        return sum(isinstance(n, LeafNode) for n in self.nodes)

    @property
    def fitted_depth(self) -> int:
        return max(n.depth for n in self.nodes)


@dataclass
class SplitResult:
    """Outcome of one oblique split search on a node's rows."""

    weights: np.ndarray
    intercept: float
    threshold: float
    gain: float
    scores: np.ndarray
    left_indices: np.ndarray
    right_indices: np.ndarray


def concat_feature(X: np.ndarray, new_feature: np.ndarray) -> np.ndarray:
    """Append one column to a feature matrix: ``_child_inputs``, checked."""
    X = np.asarray(X, dtype=np.float64)
    col = np.asarray(new_feature, dtype=np.float64).reshape(-1)
    if col.shape[0] != X.shape[0]:
        raise ValueError(
            f"new feature has length {col.shape[0]} but matrix has {X.shape[0]} rows")
    return _child_inputs(X, None, col, concatenate=True, residual_path=False)[0]


def _child_inputs(X, incoming, scores, concatenate: bool, residual_path: bool):
    """The one child step: a split node's features ``X`` with its ``scores``
    appended when ``concatenate``, its ``incoming`` targets less them when
    ``residual_path`` (None stays None). Callers select the rows: growth
    before the step, routing after it."""
    if X is not None and concatenate:
        X = np.concatenate((X, scores[:, None]), axis=1)
    if incoming is not None and residual_path:
        incoming = incoming - scores
    return X, incoming


def _sort_scores(s: np.ndarray):
    """(order, rises) of the scores ``s``: their stable ascending order,
    and where the sorted scores strictly increase from one row to the
    next.

    numpy's default sort runs first, and the stable sort again only when
    the sorted scores tie (equal scores, ``-0.0`` and ``0.0``, or NaN):
    distinct scores have one ascending order, which any correct sort
    returns, and tied ones are kept in row order, so the order is the
    stable sort's on every CPU, whichever kernel numpy dispatches. Ridge
    projections and continuous feature columns seldom tie; integer and
    categorical columns tie at every node, where both sorts run.
    """
    order = np.argsort(s)
    ss = s[order]
    rises = ss[1:] > ss[:-1]
    if not rises.all():
        order = np.argsort(s, kind="stable")
    return order, rises


def _cut_table(scores: list, min_leaf):
    """(orders, order, ss, sizes, starts, node, at, bounds) of several
    nodes' ``scores``: each node's stable ascending order (``_sort_scores``),
    all rows' order with the nodes one after another, the scores in it,
    each node's row count and first row, each row's node, and each cut's
    last left row, node j's cuts at ``at[bounds[j]:bounds[j + 1]]``. A cut
    leaves the rows up to it on the left: the scores strictly increase
    there and each side keeps ``min_leaf`` rows (one count, or one per
    node)."""
    sizes = np.array([s.shape[0] for s in scores])
    starts = np.cumsum(sizes) - sizes
    orders = [_sort_scores(s)[0] for s in scores]
    order = np.concatenate([o + st for o, st in zip(orders, starts)])
    ss = np.concatenate(scores)[order]
    node = np.repeat(np.arange(len(scores)), sizes)
    # each node's first and one past its last cut, by their last left rows
    row = np.arange(ss.shape[0])
    valid = ((row >= np.repeat(starts + min_leaf - 1, sizes))
             & (row < np.repeat(starts + sizes - min_leaf, sizes)))
    valid[:-1] &= ss[1:] > ss[:-1]
    at = np.flatnonzero(valid)
    bounds = np.searchsorted(node[at], np.arange(len(scores) + 1))
    return orders, order, ss, sizes, starts, node, at, bounds


def _pick_cuts(ss, at, bounds, gains, min_gain: float) -> list:
    """(threshold, gain) of each node's first maximum of the ``gains`` of a
    cut table's cuts (``_cut_table``), or None below ``min_gain`` or without
    cuts; the threshold is the midpoint of the two scores the cut falls
    between, or a midpoint that cannot overflow where that one does. Gains
    are floored at zero, so when no cut gains (or a cut's gain is left at
    -inf) the first cut wins with gain 0; a gain that is NaN or +inf, from
    finite inputs whose sums overflow, raises a ValueError."""
    if not (gains < np.inf).all():
        raise ValueError("split search overflowed: a gain is not finite")
    gains = np.maximum(gains, 0.0)

    def pick(first, end):
        if first == end:
            return None
        best = first + int(np.argmax(gains[first:end]))  # first maximum = smallest threshold
        gain = float(gains[best])
        if gain < min_gain:
            return None
        lo = float(ss[at[best]])
        hi = float(ss[at[best] + 1])
        mid = (lo + hi) / 2.0
        if not math.isfinite(mid):
            mid = lo / 2.0 + hi / 2.0
        # keep the comparison `score < mid` consistent with the scanned
        # partition even when the midpoint rounds onto an endpoint
        return (mid if mid > lo else hi), gain

    return [pick(first, end) for first, end in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def _check_search_inputs(projections, y, n_total: int):
    """A one-node search's ``projections`` and ``y`` as checked 1-d floats."""
    s = np.asarray(projections, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = s.shape[0]
    if n != y.shape[0]:
        raise ValueError("projections and targets must have the same length")
    if n < 2:
        raise ValueError("need at least 2 samples to search for a threshold")
    if n_total < n:
        raise ValueError("n_total cannot be smaller than the node size")
    return s, y


def best_threshold(projections: np.ndarray, y: np.ndarray, n_total: int,
                   criteria: SplitCriteria):
    """Best midpoint threshold on sorted projections by impurity decrease.

    The gain of a candidate is the drop in summed squared error around the
    child means, normalized by the full training-set size ``n_total``: the
    criterion of a tree whose children predict constants. One sorted pass
    with prefix sums over the stable ascending order (``_sort_scores``),
    by a scan that runs a batch of nodes at once (``_mean_cuts``); ties in
    gain break toward the smallest threshold. Returns (threshold, gain) or
    None when no candidate is valid (constant projections, occupancy, or
    gain below ``min_gain``).
    """
    s, y = _check_search_inputs(projections, y, n_total)
    return _mean_cuts([s], [y], np.array([n_total]), criteria)[0]


@np.errstate(over="ignore", invalid="ignore")  # _pick_cuts refuses what overflows
def _mean_cuts(scores: list, targets: list, n_totals, criteria) -> list:
    """``best_threshold`` of several nodes as one batch: each node's scores,
    targets and training-set size."""
    _, order, ss, sizes, starts, node, at, bounds = _cut_table(
        scores, criteria.min_samples_leaf)
    ys = np.concatenate(targets)[order]
    # each node's own prefix sums of y and y^2, bit for bit those of the
    # node searched alone
    prefix = np.stack((ys, ys * ys))
    for start, end in zip(starts.tolist(), (starts + sizes).tolist()):
        np.cumsum(prefix[:, start:end], axis=1, out=prefix[:, start:end])
    cut_node = node[at]
    n = (sizes + 0.0)[cut_node]
    k = at - (starts - 1.0)[cut_node]  # rows on the left
    total_sum, total_sq = prefix.take((starts + sizes - 1)[cut_node], axis=1)
    left_sum, left_sq = prefix.take(at, axis=1)
    parent_sse = total_sq - total_sum * total_sum / n
    sse_left = left_sq - left_sum * left_sum / k
    sse_right = (total_sq - left_sq) - (total_sum - left_sum) ** 2 / (n - k)
    gains = (parent_sse - sse_left - sse_right) / n_totals[cut_node]
    return _pick_cuts(ss, at, bounds, gains, criteria.min_gain)


# spacing of the anchors of the child-objective scan (see _residual_cuts)
_BLOCK_ROWS = 16
# the first pass of anchors takes one in this many
_COARSE_BLOCKS = 4
# Gram entries (rows times (features + 2)^2) per batch of node searches:
# enough to spread the per-batch cost over many nodes, few enough to keep
# the batch's arrays small
_BATCH_GRAM = 8192 * 144
# matrix entries per LAPACK call in a search, bounding the arrays that
# LAPACK returns: each call factors as many matrices as fit
_FACTOR_ENTRIES = 32768


class _Workspace(threading.local):
    """The threshold search's larger work arrays, kept per thread from one
    search to the next. A level's search fills up to a few MiB; allocated
    anew each time, arrays that large come from fresh pages, one page
    fault per page, since the allocator hands large blocks back to the
    system when they are freed. Only the memory carries over: a search
    writes every entry it uses before using it."""

    def __init__(self):
        self.buffers = {}

    def array(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            # room to grow: each regrowth leaves a hole in the heap
            buf = self.buffers[name] = np.empty(size * 3 // 2, dtype)
        return buf[:size].reshape(shape)


_WORK = _Workspace()


def _innovations(gram: np.ndarray, lam: np.ndarray, tau: np.ndarray,
                 rows: np.ndarray) -> np.ndarray:
    """J of the rows of ``gram`` minus the rows of ``rows``, then J after
    each of those rows is added back, first to last. J is the penalised
    ridge objective of rows [1, x, r]: the minimum over (w, b) of
    sum (r - x.w - b)^2 + lam |w|^2, intercept unpenalised.

    ``gram`` stacks (k, q, q) Gram sums of rows [1, x, r] that include the
    (k, B, q) ``rows`` (zero rows add nothing). With B = 0 the one column
    is J of ``gram`` itself. Factor

        [[N,      A_rev^T,  h       ],
         [A_rev,  I,        r_rev   ],
         [h^T,    r_rev^T,  rr + tau]]

    with N the [1, x] block of ``gram`` plus ``lam`` on the x diagonal,
    and the block's rows (A, r) in reverse. Eliminating N leaves
    I - A N^-1 A^T = S^-1, rows reversed, where S = I + A M^-1 A^T is the
    predictive covariance of the block's rows under the fit on the other
    rows (penalised Gram M = N - A^T A). The factor of the reversed S^-1
    is the reversed inverse transpose of the factor of S, so the last row
    of the factor, read backwards, is the whitened innovation of the rows:
    the squares of its entries are the increments of J as the rows are
    added one at a time. The last pivot squared is J without the block
    plus ``tau``, which keeps that pivot away from zero. Only Cholesky
    factors are used: numpy's batched solves cost several times more.
    """
    k, q = gram.shape[:2]
    qa = q - 1  # intercept and features
    b = rows.shape[1]
    # numpy's Cholesky reads only the lower triangle; every entry it reads
    # is written
    omega = _WORK.array("bordered", (k, qa + b + 1, qa + b + 1))
    omega[:, :qa, :qa] = gram[:, :qa, :qa]
    omega[:, qa:-1, qa:-1] = np.eye(b)
    omega[:, -1, :qa] = gram[:, -1, :qa]
    omega[:, qa:-1, :qa] = rows[:, ::-1, :qa]
    omega[:, -1, qa:-1] = rows[:, ::-1, -1]
    diagonal = np.einsum("kii->ki", omega)  # writable view
    diagonal[:, 1:qa] += lam[:, None]
    diagonal[:, -1] = gram[:, -1, -1] + tau
    try:
        tail = np.linalg.cholesky(omega)[:, -1, :]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "singular system in the child fits of the threshold search") from exc
    out = np.empty((k, b + 1))
    out[:, 0] = tail[:, -1] ** 2 - tau
    np.cumsum(tail[:, -2:qa - 1:-1] ** 2, axis=1, out=out[:, 1:])
    out[:, 1:] += out[:, :1]
    return out


@np.errstate(over="ignore", invalid="ignore")  # _pick_cuts refuses what overflows
def _residual_cuts(scores: list, features: list, residuals: list,
                   lams: np.ndarray, n_totals: np.ndarray,
                   criteria: SplitCriteria) -> list:
    """(threshold, gain) or None for each of several residual-path nodes,
    searched as one batch (see ``best_residual_threshold``): each node's
    scores, feature matrix, residuals, penalty and training-set size.

    Each cut needs ``sum r^2 - J_left - J_right``, J_side being the
    penalised ridge objective of r on x over that side's rows. J at the
    first and last cut and every B rows between (the anchors) comes from
    the Gram sums there (``_innovations`` on no rows). Adding rows never
    lowers J, so between two anchors J_left is at least its value at the
    first and J_right at least its value at the second; a stretch whose
    bound stays below the node's best anchor cannot hold its maximum.
    Anchors are taken one in _COARSE_BLOCKS first, and the others only in
    the stretches between those that can hold it; then every gap of B rows
    whose bound stays below is dropped. In the others, J at every cut is J
    at an anchor plus the squared innovations of the rows in between
    (``_innovations`` on those rows): the left side adds the gap's rows to
    the rows before it, the right side adds them, last first, to the rows
    after it.
    """
    b = _BLOCK_ROWS
    p = features[0].shape[1]
    # unpenalised child fits need more rows than features
    orders, order, ss, sizes, starts, node, at, bounds = _cut_table(
        scores, np.where(lams > 0, criteria.min_samples_leaf,
                         max(criteria.min_samples_leaf, p + 1)))
    nblocks = -(-sizes // b)
    offsets = np.concatenate([[0], np.cumsum(nblocks)]) * b
    span = int(offsets[-1])

    r = np.concatenate(residuals)[order]
    # each row's place in Z (below), and each cut's, after its last left row
    zrow = offsets[node] + np.arange(ss.shape[0]) - starts[node]
    cut_pos = zrow[at] + 1
    cutmask = _WORK.array("cutmask", (span + 1,), bool)
    cutmask[:] = False
    cutmask[cut_pos] = True

    # per node, rows [1, x, r] with x and r centred (the free intercept
    # makes centring change no objective, and it keeps the Gram sums well
    # conditioned), each node starting a block of B rows and padded with
    # zero rows, which add nothing to any sum
    Z = _WORK.array("rows", (span + b, p + 2))
    Z[:] = 0.0
    Z[zrow, 0] = 1.0
    centred = r - (np.add.reduceat(r, starts) / sizes)[node]
    Z[zrow, -1] = centred
    totals = np.add.reduceat(r * r, starts)
    tau = np.add.reduceat(centred * centred, starts)
    ones = np.ones(sizes.max())
    for j, X in enumerate(features):
        n = sizes[j]
        np.subtract(X.take(orders[j], axis=0), ones[:n] @ X / n,
                    out=Z[offsets[j]:offsets[j] + n, 1:-1])

    decrease = _WORK.array("decrease", (span + 1,))
    decrease[:] = -np.inf
    active = np.flatnonzero((bounds[1:] > bounds[:-1]) & (tau > 0))
    if active.size:
        _search_intervals(Z, cutmask, offsets, nblocks, active,
                          cut_pos[bounds[active]], cut_pos[bounds[active + 1] - 1],
                          totals, tau, lams, decrease)
    # cuts that cannot hold the maximum, and every cut of a node with no
    # residual left, stay -inf
    return _pick_cuts(ss, at, bounds, decrease[cut_pos] / n_totals[node[at]],
                      criteria.min_gain)


def _search_intervals(Z, cutmask, offsets, nblocks, nodes, lo, hi, totals,
                      tau, lam, decrease):
    """Fill ``decrease`` at the cuts of ``nodes`` that can hold their
    node's maximum (see ``_residual_cuts``); ``lo`` and ``hi`` are each
    node's first and last cut, as positions in ``Z``."""
    b = _BLOCK_ROWS
    q = Z.shape[1]
    span = offsets[-1]
    m = nodes.shape[0]

    # per node, the Gram sums of its rows before each multiple of B (the
    # last one, at ``top``, of all its rows), then before its first and
    # before its last cut
    gstart = np.concatenate([[0], np.cumsum(nblocks[nodes] + 3)[:-1]])
    top = gstart + nblocks[nodes]
    grid = _WORK.array("grid", (top[-1] + 3, q, q))
    grid[gstart] = 0.0
    for g, j in zip(gstart, nodes):
        blocks = Z[offsets[j]:offsets[j + 1]].reshape(-1, b, q)
        transposed = _WORK.array("scratch", (nblocks[j], q, b))
        np.copyto(transposed, blocks.transpose(0, 2, 1))
        sums = grid[g + 1:g + 1 + nblocks[j]]
        np.matmul(transposed, blocks, out=sums)
        np.cumsum(sums, axis=0, out=sums)
    ends = np.concatenate([lo, hi])
    part = (ends // b * b)[:, None] + np.arange(b)
    part[part >= ends[:, None]] = span  # a zero row
    part = Z[part]
    grid[np.concatenate([top + 1, top + 2])] = (
        grid[(gstart + (ends.reshape(2, m) - offsets[nodes]) // b).ravel()]
        + np.matmul(part.transpose(0, 2, 1), part))
    del part

    # anchors: the first and last cut and every multiple of B between
    count = np.maximum((hi - 1) // b - lo // b, 0) + 1 + (hi > lo)
    k = np.repeat(np.arange(m), count)
    first = np.concatenate([[0], np.cumsum(count)[:-1]])
    last = first + count - 1
    rank = np.arange(k.shape[0]) - first[k]
    pts = np.where(rank == 0, lo[k], (lo[k] // b + rank) * b)
    pts[last] = hi
    npts = pts.shape[0]
    # each anchor's prefix in the grid
    prefix = gstart[k] + (pts - offsets[nodes[k]]) // b
    prefix[last] = top + 2
    prefix[first] = top + 1
    node_lam = lam[nodes[k]]
    node_tau = tau[nodes[k]]

    def factor(left, right, row_index):
        # _innovations on the Gram sums before anchors ``left`` and from
        # anchors ``right`` on (all rows less the rows before), each side
        # with its rows of ``row_index`` (2, len(left), width); as many
        # pairs per call as fit in _FACTOR_ENTRIES
        n, width = row_index.shape[1:]
        chunk = max(1, _FACTOR_ENTRIES // (2 * (q + width) ** 2))
        out = np.empty((2, n, width + 1))
        for i in range(0, n, chunk):
            # both anchors of a pair lie in one node
            sel = np.concatenate((left[i:i + chunk], right[i:i + chunk]))
            c = sel.shape[0] // 2
            gram = grid.take(prefix[sel], axis=0)
            np.subtract(grid.take(top[k[sel[c:]]], axis=0), gram[c:], out=gram[c:])
            rows = Z.take(row_index[:, i:i + c].reshape(2 * c, width), axis=0)
            out[:, i:i + c] = _innovations(gram, node_lam[sel], node_tau[sel],
                                           rows).reshape(2, c, width + 1)
        return out

    total_p = totals[nodes[k]]
    margin_p = 1e-10 * np.maximum(total_p, node_tau)
    objective = np.full((2, npts), np.nan)

    def anchor_objectives(chosen):
        # J of both sides at anchors ``chosen``, and the decrease at those
        # that are cuts; an anchor adds no rows
        no_rows = np.empty((2, chosen.shape[0], 0), np.intp)
        objective[:, chosen] = factor(chosen, chosen, no_rows)[:, :, 0]
        at = chosen[cutmask[pts[chosen]]]
        decrease[pts[at]] = total_p[at] - objective[0, at] - objective[1, at]

    def reaches_best(lo_end, hi_end):
        # adding rows never lowers J: between two anchors J_left is at least
        # its value at the first and J_right at least its value at the
        # second; whether that bound reaches the node's best anchor
        best = np.maximum.reduceat(decrease[pts], first)
        bound = total_p[lo_end] - objective[0, lo_end] - objective[1, hi_end]
        return bound >= best[k[lo_end]] - margin_p[lo_end]

    # anchors every _COARSE_BLOCKS * B rows first, then the others only in
    # the stretches between those that can hold the maximum
    coarse = np.flatnonzero((rank % _COARSE_BLOCKS == 0) | (rank == count[k] - 1))
    anchor_objectives(coarse)
    stretch = np.flatnonzero(k[coarse[:-1]] == k[coarse[1:]])
    stretch = stretch[reaches_best(coarse[stretch], coarse[stretch + 1])]
    start = coarse[stretch] + 1
    length = coarse[stretch + 1] - start
    anchor_objectives(np.repeat(start - np.cumsum(length) + length, length)
                      + np.arange(length.sum()))

    # the gaps of B rows that hold a cut and can hold the maximum; a gap
    # with an end left out above has no bound (NaN) and is dropped
    gap = np.flatnonzero(k[:-1] == k[1:])
    ccount = np.cumsum(cutmask)
    gap = gap[(ccount[pts[gap + 1] - 1] > ccount[pts[gap]]) & reaches_best(gap, gap + 1)]
    # each kept gap's rows, added to the left side first to last and to the
    # right side last to first, zero rows padding short gaps at the end;
    # each side starts from the anchor at the far end of the gap
    x0, x1 = pts[gap], pts[gap + 1]
    width = x1 - x0
    t = np.arange(b)
    real = t < width[:, None]
    scan = factor(gap + 1, gap, np.stack([np.where(real, x0[:, None] + t, span),
                                          np.where(real, x1[:, None] - 1 - t, span)]))
    # J_left at x0 + s is s rows into the left scan, J_right there is
    # width - s rows into the right scan
    s = np.arange(b + 1)
    pos = x0[:, None] + s
    j_right = np.take_along_axis(scan[1], np.clip(width[:, None] - s, 0, b), axis=1)
    inside = (s <= width[:, None]) & cutmask[np.minimum(pos, span)]
    decrease[pos[inside]] = (total_p[gap][:, None] - scan[0] - j_right)[inside]


def best_residual_threshold(projections: np.ndarray, features: np.ndarray,
                            residuals: np.ndarray, lam: float, n_total: int,
                            criteria: SplitCriteria):
    """Best midpoint threshold by the impurity decrease of the node-wise
    linear estimator: the criterion of a residual-path tree.

    On the residual path the children go on from the residuals
    r = y_t - s of their parent's projection s. The stump theory credits
    each child with its own ridge fit to r, and the gain of a candidate is

        [sum r^2 - J_left - J_right] / n_total,

    where J_child is the penalised residual of a ridge fit of r on the
    node's ``features`` within that child (penalty ``lam``, intercept
    unpenalised): the minimum over (w, b) of
    sum (r - x.w - b)^2 + lam |w|^2. Occupancy, ``min_gain``, the midpoint
    rule and the tie-break toward the smallest threshold are those of
    ``best_threshold``. At ``lam`` 0 the child fits are unpenalised, so a
    child needs more rows than there are features; a child design that is
    still singular raises SingularSystemError. Returns (threshold, gain)
    or None. A child that the tree then makes a leaf (at ``max_depth`` or
    below ``min_samples_split``) keeps the mean of r instead; it is
    scored by the linear fit all the same.
    """
    s, r = _check_search_inputs(projections, residuals, n_total)
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != s.shape[0]:
        raise ValueError("features must be a matrix with one row per projection")
    return _residual_cuts([s], [X], [r], _check_lambdas([lam]),
                          np.array([n_total]), criteria)[0]


def _split_nodes(nodes: list, lams: np.ndarray, n_totals: np.ndarray,
                 criteria: SplitCriteria, finder: str) -> list:
    """None or (projection, threshold, gain, scores) for each (X_t, y_t)
    node of equal width, with its own penalty and training-set size; the
    projection holds weights then bias, as in ``ObliqueNode``. ``finder``
    names the search, which has one shape: sets of one candidate
    projection per node, each set searched as one batch, and each node's
    first best candidate kept. "mean" and "residual" have one set, the
    ridge fits, searched by ``best_threshold`` or
    ``best_residual_threshold``; "axis" has one per column, that column
    as a unit projection with zero bias, searched by ``best_threshold``,
    so a gain tie goes to the lowest column. Every node of every set is
    sorted by ``_sort_scores``."""
    if finder == "axis":
        sets = [[(unit, 0.0, X_t[:, j]) for X_t, _ in nodes]
                for j, unit in enumerate(np.eye(nodes[0][0].shape[1]))]
    else:
        sets = [[(sol.weights, sol.intercept, X_t @ sol.weights + sol.intercept)
                 for sol, (X_t, _) in zip(solve_ridge_many(nodes, lams), nodes)]]
    found = []
    for fits in sets:
        scores = [s for _, _, s in fits]
        if finder == "residual":
            found.append(_residual_cuts(scores, [X_t for X_t, _ in nodes],
                                        [y_t - s for (_, y_t), s in zip(nodes, scores)],
                                        lams, n_totals, criteria))
        else:
            found.append(_mean_cuts(scores, [y_t for _, y_t in nodes], n_totals, criteria))
    # each node's first maximum over the sets; a candidate without a cut counts as -inf
    best = np.argmax([[-np.inf if hit is None else hit[1] for hit in hits]
                      for hits in found], axis=0)
    picks = [(sets[c][i], found[c][i]) for i, c in enumerate(best.tolist())]
    return [None if hit is None else (np.append(weights, intercept), *hit, scores)
            for (weights, intercept, scores), hit in picks]


def find_oblique_split(X_t: np.ndarray, y_t: np.ndarray, lam: float,
                       n_total: int, criteria: SplitCriteria):
    """Ridge-fit a projection on the node's rows and pick its best
    threshold by the decrease around the child means (``best_threshold``),
    as the plain ridge-projection tree does. Returns a SplitResult or None.
    """
    X_t = np.asarray(X_t, dtype=np.float64)
    y_t = np.asarray(y_t, dtype=np.float64).reshape(-1)
    if X_t.shape[0] < criteria.min_samples_split:
        raise ValueError(
            f"node has {X_t.shape[0]} rows, below min_samples_split={criteria.min_samples_split}")
    found = _split_nodes([(X_t, y_t)], np.array([float(lam)]), np.array([n_total]),
                         criteria, "mean")[0]
    if found is None:
        return None
    projection, threshold, gain, scores = found
    left = scores < threshold
    return SplitResult(projection[:-1], float(projection[-1]), threshold, gain, scores,
                       np.flatnonzero(left), np.flatnonzero(~left))


def _canonical_order(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The rows of ``X`` sorted by feature values, then target: row order
    must not leak into split arithmetic, so fits are permutation-invariant.
    When the first feature has no ties it alone fixes that order
    (``_sort_scores``); otherwise a lexicographic sort over every column
    and the target does."""
    order, rises = _sort_scores(X[:, 0])
    if rises.all():
        return order
    keys = (y,) + tuple(X[:, j] for j in range(X.shape[1] - 1, -1, -1))
    return np.lexsort(keys)


def _check_fit(data: Dataset, lam: float):
    if data.n < 1:
        raise ValueError("dataset is empty")
    if data.dim < 1:
        raise ValueError("dataset has no features")
    if not isinstance(lam, numbers.Real):  # a string, None or a list
        raise ValueError(f"lambda must be a single real number, got {lam!r}")
    _check_lambdas(lam)


def _first(models: list) -> ObliqueTreeModel:
    """The one tree of a ``_grow`` call; raises its failure."""
    if isinstance(models[0], Exception):
        raise models[0]
    return models[0]


def fit_fc_odt(data: Dataset, lam: float, criteria: SplitCriteria | None = None,
               *, concatenate: bool = True, residual_path: bool = True) -> ObliqueTreeModel:
    """Grow an oblique tree breadth-first, one level at a time.

    At each eligible node: ridge-fit a projection, pick the best threshold,
    record the projection scores, concatenate them as a new feature column
    (when ``concatenate``), subtract them from the targets (when
    ``residual_path``), and route rows by score < threshold. With
    ``residual_path`` the threshold maximises the decrease of the node-wise
    linear estimator, crediting each child with a ridge fit to the
    residuals (``best_residual_threshold``), also a child that becomes a
    leaf; without it, the decrease around the child means
    (``best_threshold``).
    Ineligible or unsplittable nodes become leaves holding the mean of
    their incoming targets.
    """
    return _first(_grow([(data, lam)], criteria, concatenate,
                        "residual" if residual_path else "mean"))


# The learners of the paper's comparison, each a setting of ``_grow``:
# name -> (concatenate, split search, takes a lambda). A method that takes
# no lambda is grown at 0.
METHODS = {
    "fc_odt": (True, "residual", True),
    "ridge_odt": (False, "mean", True),
    "cart": (False, "axis", False),
}


def fit_method_many(method: str, jobs, criteria: SplitCriteria | None = None) -> list:
    """A ``method`` tree (see ``METHODS``) for each (data, lam) in the
    iterable ``jobs``, all grown together by ``_grow``; each entry is the
    model or the ValueError its fit raised; any other exception is raised.
    Raises ValueError for a name not in ``METHODS``."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    concatenate, finder, takes_lambda = METHODS[method]
    if not takes_lambda:
        jobs = ((data, 0.0) for data, _ in jobs)
    return _grow(jobs, criteria, concatenate, finder)


def fit_method(method: str, data: Dataset, lam: float,
               criteria: SplitCriteria | None = None) -> ObliqueTreeModel:
    """One ``method`` tree (``fit_method_many`` on one job); raises the
    exception its fit raised."""
    return _first(fit_method_many(method, [(data, lam)], criteria))


def _grow(jobs, criteria: SplitCriteria | None, concatenate: bool, finder: str) -> list:
    """Grow a tree for each (data, lam) in the iterable ``jobs`` with the
    split search ``finder`` (see ``_split_nodes``): the one growth loop of
    every learner.

    The trees grow together, one level at a time, so a level's ridge fits
    and threshold searches run in a few batches over all trees. A node's
    arithmetic depends on its own rows only, so every tree is exactly the
    one grown alone. Each entry is the model, or the ValueError its fit
    raised. One frontier holds a record (tree, slot, X_t, y_t, lam,
    n_total) per node of the current depth, tree by tree and by slot
    within each tree. Only each tree's own reordered copy of its data is
    kept, so a generator of jobs holds one copy per tree. A child gets its
    rows of ``[X_t, scores]`` only when the next level searches it
    (``searched``); a child that will be a leaf keeps only its targets.
    """
    residual_path = finder == "residual"
    criteria = criteria or SplitCriteria()

    def searched(depth, rows):
        # whether a node at ``depth`` with ``rows`` rows gets a split search
        return depth < criteria.max_depth and rows >= criteria.min_samples_split

    out = []
    frontier = []
    for data, lam in jobs:
        try:
            _check_fit(data, lam)
        except ValueError as exc:
            out.append(exc)
            continue
        lam = float(lam)
        order = _canonical_order(data.features, data.targets)
        out.append(ObliqueTreeModel(
            input_dim=data.dim, lam=lam, criteria=criteria,
            concatenate=concatenate, residual_path=residual_path, nodes=[None]))
        frontier.append((len(out) - 1, 0, data.features[order], data.targets[order],
                         lam, data.n))
    depth = 0
    while frontier:
        splits = {}
        work = [node for node in frontier if searched(depth, node[3].shape[0])]
        for batch in _row_batches(work):
            for key, found in _split_batch(batch, criteria, finder):
                if isinstance(found, Exception):
                    out[key[0]] = found
                else:
                    splits[key] = found
        # children take slots in frontier order, so the numbering is breadth-first
        next_frontier = []
        for tree, slot, X_t, y_t, lam, n_total in frontier:
            model = out[tree]
            if isinstance(model, Exception):
                continue
            split = splits.get((tree, slot))
            if split is None:
                model.nodes[slot] = LeafNode(
                    depth=depth, residual_mean=float(y_t.mean()),
                    sample_count=y_t.shape[0])
                continue
            projection, threshold, gain, scores = split
            left_slot = len(model.nodes)
            model.nodes.extend([None, None])
            model.nodes[slot] = ObliqueNode(
                depth=depth,
                projection=projection,
                threshold=threshold,
                gain=gain,
                left=left_slot,
                right=left_slot + 1,
            )
            left = scores < threshold  # the router's rule
            n_left = np.count_nonzero(left)
            for slot_c, side, n in ((left_slot, left, n_left),
                                    (left_slot + 1, ~left, left.shape[0] - n_left)):
                next_frontier.append((tree, slot_c) + _child_inputs(
                    X_t.compress(side, axis=0) if searched(depth + 1, n) else None,
                    y_t.compress(side), scores.compress(side), concatenate, residual_path)
                    + (lam, n_total))
        frontier = next_frontier
        depth += 1
    return out


def _row_batches(work: list):
    """Consecutive runs of ``work`` of one feature width and at most
    _BATCH_GRAM Gram entries (or one node)."""
    start, rows = 0, 0
    for i, item in enumerate(work):
        width = item[2].shape[1]
        if rows and (width != work[start][2].shape[1]
                     or rows + item[3].shape[0] > _BATCH_GRAM // (width + 2) ** 2):
            yield work[start:i]
            start, rows = i, 0
        rows += item[3].shape[0]
    if start < len(work):
        yield work[start:]


def _split_batch(batch: list, criteria: SplitCriteria, finder: str) -> list:
    """((tree, slot), ``_split_nodes`` entry or ValueError) for each node
    record (tree, slot, X_t, y_t, lam, n_total) of ``batch``, searched with
    its own penalty and training-set size; when the batch fails, each
    tree's nodes are retried alone and a tree that still fails gets its
    ValueError; others are raised."""
    trees, slots, Xs, ys, lams, n_totals = zip(*batch)
    keys = list(zip(trees, slots))
    try:
        return list(zip(keys, _split_nodes(list(zip(Xs, ys)), np.array(lams),
                                           np.array(n_totals), criteria, finder)))
    except ValueError as exc:  # isolate the failing trees
        if len(set(trees)) == 1:
            return [(key, exc) for key in keys]
    return [entry for tree in dict.fromkeys(trees)
            for entry in _split_batch([node for node in batch if node[0] == tree],
                                      criteria, finder)]


class _RowError(ValueError):
    """A refused input row: ``row`` is its index in the routed matrix, and
    the message reads ``input row <row> <what>``."""

    def __init__(self, row, what: str):
        super().__init__(f"input row {row} {what}")
        self.row, self.what = int(row), what


def _walk(model: ObliqueTreeModel, X: np.ndarray, targets: np.ndarray | None = None):
    """Route the rows of ``X`` through ``model``: the one router.

    Yields (slot, rows, features, incoming, scores) for each node that at
    least one row reaches, parents before children: the indices of the
    node's rows in ``X``, their feature representation (with the
    ancestors' scores appended when ``concatenate``), their incoming
    targets (``targets`` less the ancestors' scores when
    ``residual_path``; None without ``targets``) and the node's projection
    scores (None at a leaf). Rows go left iff score < threshold. A score
    that overflows raises a ValueError naming the input row and the node.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if X.shape[1] != model.input_dim:
        raise ValueError(f"model expects {model.input_dim} features, data has {X.shape[1]}")
    if not np.isfinite(X).all():
        raise _RowError(np.argmin(np.isfinite(X).all(axis=1)), "has a NaN or infinite value")
    stack = [(0, np.arange(X.shape[0]), X, targets)] if X.shape[0] else []
    while stack:
        slot, rows, rep, incoming = stack.pop()
        node = model.nodes[slot]
        if isinstance(node, LeafNode):
            yield slot, rows, rep, incoming, None
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            scores = rep @ node.projection[:-1] + node.projection[-1]
        finite = np.isfinite(scores)
        if not finite.all():
            raise _RowError(rows[np.argmin(finite)],
                            f"overflows at node {slot}: its score is not finite")
        yield slot, rows, rep, incoming, scores
        rep, incoming = _child_inputs(rep, incoming, scores, model.concatenate,
                                      model.residual_path)
        left = scores < node.threshold
        for child, side in ((node.left, left), (node.right, ~left)):
            child_rows = rows[side]
            if child_rows.size:
                # compress copies the rows in half the time boolean indexing takes
                stack.append((child, child_rows, rep.compress(side, axis=0),
                              None if incoming is None else incoming[side]))


def predict(model: ObliqueTreeModel, x: np.ndarray) -> float:
    """Score a single point: ``predict_batch`` on one row."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return float(predict_batch(model, x)[0])


def predict_batch(model: ObliqueTreeModel, X: np.ndarray) -> np.ndarray:
    """Predict every row of ``X``: the ``predictions`` of ``route_batch``."""
    return route_batch(model, X).predictions


@dataclass
class Routing:
    """One routing pass over the rows of ``X``: ``predictions`` (what
    ``predict_batch`` returns), each row's leaf slot in ``leaves``,
    and in ``scores`` (rows x fitted depth) the projection scores along
    its path: row i's entry at column k is the score of its path node at
    depth k, for k below its leaf's depth (0.0 beyond). ``paths`` maps
    each reached node to the internal nodes from the root to it."""

    predictions: np.ndarray
    leaves: np.ndarray
    scores: np.ndarray
    paths: dict


def route_batch(model: ObliqueTreeModel, X: np.ndarray) -> Routing:
    """Route the rows of ``X`` once and keep what ``predict_batch`` and
    ``decision_paths`` read from the walk. With ``residual_path`` on, a
    row's prediction is the sum of the projection scores along its path,
    root first from 0.0, plus its leaf's value; otherwise the leaf value.
    A prediction that overflows raises a ValueError naming the input row
    and its leaf."""
    X = np.asarray(X, dtype=np.float64)
    leaves = np.zeros(X.shape[:1], dtype=np.intp)
    # depth-major, so that each node writes its rows into one contiguous row
    scores = np.zeros((model.fitted_depth,) + X.shape[:1])
    paths = {0: ()}
    for slot, rows, _, _, node_scores in _walk(model, X):
        node = model.nodes[slot]
        if node_scores is None:
            leaves[rows] = slot
            continue
        scores[node.depth][rows] = node_scores
        paths[node.left] = paths[node.right] = paths[slot] + (slot,)
    # each row's sum in path order: from 0.0, the scores of its path's
    # nodes, root first (the depths above its leaf's), then its leaf's value
    predictions = np.zeros(X.shape[:1])
    values = np.array([node.residual_mean if isinstance(node, LeafNode) else 0.0
                       for node in model.nodes])
    with np.errstate(over="ignore", invalid="ignore"):
        if model.residual_path:
            for depth_scores in scores:  # 0.0 below a row's leaf adds nothing
                predictions += depth_scores
        predictions += values[leaves]
    finite = np.isfinite(predictions)
    if not finite.all():
        row = np.argmin(finite)
        raise _RowError(row, f"overflows at leaf {leaves[row]}: its prediction is not finite")
    return Routing(predictions, leaves, scores.T, paths)


def decision_paths(model: ObliqueTreeModel, X: np.ndarray) -> list:
    """Internal-node visit sequence of each row of ``X``: (node index,
    score, went_left) triples, root first, with the scores
    ``predict_batch`` sums."""
    routing = route_batch(model, X)
    return [[(slot, s, s < model.nodes[slot].threshold)
             for slot, s in zip(routing.paths[leaf], row)]
            for leaf, row in zip(routing.leaves.tolist(), routing.scores.tolist())]


def decision_path(model: ObliqueTreeModel, x: np.ndarray) -> list:
    """``decision_paths`` of a single point."""
    return decision_paths(model, np.asarray(x, dtype=np.float64).reshape(1, -1))[0]


@dataclass
class ReplayNode:
    """Per-node view of the training data under a fitted model: row
    indices into the original dataset, the node's concatenated feature
    matrix, incoming (residual) targets, and the node's projection scores
    (None for leaves)."""

    indices: np.ndarray
    features: np.ndarray
    incoming: np.ndarray
    scores: np.ndarray | None


def replay_training_data(model: ObliqueTreeModel, data: Dataset) -> dict[int, ReplayNode]:
    """Route a dataset through a fitted model, reconstructing the feature
    representation and incoming targets of each node it reaches."""
    return {slot: ReplayNode(rows, rep, incoming, scores) for slot, rows, rep, incoming, scores
            in _walk(model, data.features, data.targets)}


FORMAT_TAG = "fcodt-model"
FORMAT_VERSION = 1


# the header lines after the format line: each field's name and type, in order
_HEADER = (("input_dim", int), ("lambda", float), ("max_depth", int),
           ("min_samples_split", int), ("min_samples_leaf", int), ("min_gain", float),
           ("concatenate", bool), ("residual_path", bool), ("nodes", int))


def model_to_text(model: ObliqueTreeModel) -> str:
    """Self-describing text serialization; floats carry 17 significant
    digits so models round-trip exactly."""
    c = model.criteria
    values = (model.input_dim, model.lam, c.max_depth, c.min_samples_split,
              c.min_samples_leaf, c.min_gain, model.concatenate, model.residual_path,
              len(model.nodes))
    lines = [f"{FORMAT_TAG} {FORMAT_VERSION}"]
    lines.extend(f"{name} {_fmt(value) if kind is float else int(value)}"
                 for (name, kind), value in zip(_HEADER, values))
    for node in model.nodes:
        if isinstance(node, ObliqueNode):
            proj = " ".join(_fmt(v) for v in node.projection)
            lines.append(
                f"split {node.depth} {_fmt(node.threshold)} {_fmt(node.gain)} "
                f"{node.left} {node.right} {proj}")
        else:
            lines.append(
                f"leaf {node.depth} {_fmt(node.residual_mean)} {node.sample_count}")
    return "\n".join(lines) + "\n"


def _number(text: str, cast, where: str):
    """``cast(text)``, finite; otherwise a ValueError naming ``where``."""
    try:
        value = cast(text)
    except ValueError:
        raise ValueError(f"{where}: malformed number {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: non-finite value {text!r}")
    return value


def _flag(text: str, where: str) -> bool:
    """A header flag: ``0`` or ``1``; otherwise a ValueError naming ``where``."""
    value = _number(text, int, where)
    if value not in (0, 1):
        raise ValueError(f"{where}: expected 0 or 1, got {text!r}")
    return bool(value)


def model_from_text(text: str) -> ObliqueTreeModel:
    """Parse a ``model_to_text`` document. A malformed line, a wrong field
    count, a non-finite number, a flag other than 0 or 1 or a negative
    lambda raises ValueError naming the field and, on a node line, the
    node index."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty model document")
    head = lines[0].split()
    if len(head) != 2 or head[0] != FORMAT_TAG:
        raise ValueError("not a model document")
    if _number(head[1], int, "format version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {head[1]}")

    # a name alone on its line reads as an empty value, which _number rejects
    texts = dict((ln.split(maxsplit=1) + [""])[:2] for ln in lines[1:1 + len(_HEADER)])
    missing = [name for name, _ in _HEADER if name not in texts]
    if missing:
        raise ValueError(f"model document missing fields: {missing}")
    (input_dim, lam, max_depth, min_split, min_leaf, min_gain, concatenate, residual_path,
     n_nodes) = (_flag(texts[name], name) if kind is bool else _number(texts[name], kind, name)
                 for name, kind in _HEADER)
    try:
        _check_lambdas(lam)  # finite already: only the sign can fail
    except ValueError:
        raise ValueError(f"lambda: negative value {texts['lambda']!r}") from None
    model = ObliqueTreeModel(
        input_dim=input_dim,
        lam=lam,
        criteria=SplitCriteria(max_depth, min_split, min_leaf, min_gain),
        concatenate=concatenate,
        residual_path=residual_path,
        nodes=[],
    )
    node_lines = lines[1 + len(_HEADER):]
    if len(node_lines) != n_nodes:
        raise ValueError(f"expected {n_nodes} node lines, found {len(node_lines)}")
    for i, ln in enumerate(node_lines):
        kind, *values = ln.split()
        if kind == "split":
            depth = _number(values[0], int, f"node {i} depth") if values else 0
            expected_len = (model.input_dim + depth + 1 if model.concatenate
                            else model.input_dim + 1)
            if len(values) != 5 + expected_len:
                raise ValueError(
                    f"node {i}: split at depth {depth} has {len(values)} fields, expected "
                    f"{5 + expected_len} (depth, threshold, gain, left, right and "
                    f"{expected_len} projection entries)")
            model.nodes.append(ObliqueNode(
                depth=depth,
                threshold=_number(values[1], float, f"node {i} threshold"),
                gain=_number(values[2], float, f"node {i} gain"),
                left=_number(values[3], int, f"node {i} left"),
                right=_number(values[4], int, f"node {i} right"),
                projection=np.array([_number(v, float, f"node {i} projection[{j}]")
                                     for j, v in enumerate(values[5:])]),
            ))
        elif kind == "leaf":
            if len(values) != 3:
                raise ValueError(f"node {i}: leaf has {len(values)} fields, expected 3 "
                                 f"(depth, value, count)")
            model.nodes.append(LeafNode(
                depth=_number(values[0], int, f"node {i} depth"),
                residual_mean=_number(values[1], float, f"node {i} value"),
                sample_count=_number(values[2], int, f"node {i} count"),
            ))
        else:
            raise ValueError(f"node {i}: unknown node kind {kind!r}")
    _check_tree(model.nodes)
    return model


def _check_tree(nodes: list):
    """Raise ValueError unless ``nodes`` form one tree rooted at node 0:
    the root at depth 0 has no parent, every other node has exactly one,
    one level deeper than it, so every node is reachable from the root."""
    if not nodes:
        raise ValueError("model has no nodes")
    if nodes[0].depth != 0:
        raise ValueError("node 0 (the root) must have depth 0")
    parent = {}
    for i, node in enumerate(nodes):
        if not isinstance(node, ObliqueNode):
            continue
        if node.left == node.right:
            raise ValueError(f"node {i} has identical children")
        for child in (node.left, node.right):
            if not 0 < child < len(nodes):
                raise ValueError(f"node {i} references invalid child {child}")
            if child in parent:
                raise ValueError(
                    f"node {child} has two parents, nodes {parent[child]} and {i}")
            parent[child] = i
            if nodes[child].depth != node.depth + 1:
                raise ValueError(
                    f"node {child} has depth {nodes[child].depth} but its parent, "
                    f"node {i}, has depth {node.depth}")
    for i in range(1, len(nodes)):
        if i not in parent:
            raise ValueError(f"node {i} has no parent, so it is unreachable from node 0")
