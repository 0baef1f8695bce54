"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's own code paths: elimination instead
of Cholesky, quadratic rescans instead of prefix sums, enumeration instead
of closed forms. The explain and stump references are the exceptions:
they keep the per-row and per-node form of a batched library path, built
on the parts it batches (the router, ``solve_ridge``). So is the stable
threshold scan, the earlier ``best_threshold`` kept step for step, which
the library must match bit for bit.
"""

import itertools

import numpy as np


def gauss_solve_full_pivot(A, b):
    """Solve A x = b by Gaussian elimination with full pivoting."""
    A = np.array(A, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = A.shape[0]
    col_perm = np.arange(n)
    for k in range(n):
        sub = np.abs(A[k:, k:])
        i_rel, j_rel = np.unravel_index(np.argmax(sub), sub.shape)
        i, j = k + i_rel, k + j_rel
        if A[i, j] == 0.0:
            raise ValueError("singular matrix in full-pivot elimination")
        A[[k, i], :] = A[[i, k], :]
        b[[k, i]] = b[[i, k]]
        A[:, [k, j]] = A[:, [j, k]]
        col_perm[[k, j]] = col_perm[[j, k]]
        for r in range(k + 1, n):
            f = A[r, k] / A[k, k]
            A[r, k:] -= f * A[k, k:]
            b[r] -= f * b[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - A[k, k + 1:] @ x[k + 1:]) / A[k, k]
    out = np.zeros(n)
    out[col_perm] = x
    return out


def ridge_oracle(X, y, lam):
    """(X^T X + lam I) w = X^T y via full-pivot elimination (no intercept)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = X.shape[1]
    return gauss_solve_full_pivot(X.T @ X + lam * np.eye(d), X.T @ y)


def ridge_oracle_intercept(X, y, lam):
    """Augmented normal equations with an unpenalized intercept column.

    Returns (weights, intercept).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    reg = np.zeros((d + 1, d + 1))
    reg[:d, :d] = lam * np.eye(d)
    sol = gauss_solve_full_pivot(Xa.T @ Xa + reg, Xa.T @ y)
    return sol[:d], sol[d]


def sse(y):
    y = np.asarray(y, dtype=np.float64)
    return float(np.sum((y - y.mean()) ** 2)) if y.size else 0.0


def best_threshold_bruteforce(scores, y, n_total, min_leaf, min_gain=0.0):
    """Quadratic rescan of every midpoint of adjacent distinct sorted scores.

    Returns (threshold, gain) or None, with the same tie-break as the
    library contract: smallest threshold among equal gains.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    distinct = np.unique(scores)
    if distinct.size < 2:
        return None
    parent = sse(y)
    best = None
    for lo, hi in zip(distinct[:-1], distinct[1:]):
        mid = (lo + hi) / 2.0
        if not mid > lo:
            mid = hi
        left = scores < mid
        nl, nr = int(left.sum()), int((~left).sum())
        if nl < min_leaf or nr < min_leaf:
            continue
        gain = (parent - sse(y[left]) - sse(y[~left])) / n_total
        gain = max(gain, 0.0)
        if best is None or gain > best[1]:
            best = (mid, gain)
    if best is None or best[1] < min_gain:
        return None
    return best


def best_threshold_stable_scan(scores, y, n_total, min_leaf, min_gain=0.0):
    """The prefix-sum scan of ``best_threshold`` over numpy's stable sort
    of the scores, every sort and every sum as it was before the library
    sorted with the default sort. Returns (threshold, gain) or None."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = s.shape[0]
    order = np.argsort(s, kind="stable")
    ss = s[order]
    ys = y[order]
    sizes = np.flatnonzero(ss[1:] > ss[:-1]) + 1
    valid = sizes[(sizes >= min_leaf) & (n - sizes >= min_leaf)]
    if valid.size == 0:
        return None
    csum = np.cumsum(ys)
    csq = np.cumsum(ys * ys)
    total_sum = csum[-1]
    total_sq = csq[-1]
    parent_sse = total_sq - total_sum * total_sum / n
    k = valid.astype(np.float64)
    left_sum = csum[valid - 1]
    left_sq = csq[valid - 1]
    sse_left = left_sq - left_sum * left_sum / k
    sse_right = (total_sq - left_sq) - (total_sum - left_sum) ** 2 / (n - k)
    gains = np.maximum((parent_sse - sse_left - sse_right) / n_total, 0.0)
    best = int(np.argmax(gains))
    gain = float(gains[best])
    if gain < min_gain:
        return None
    lo = ss[valid[best] - 1]
    hi = ss[valid[best]]
    mid = (lo + hi) / 2.0
    return (float(mid) if mid > lo else float(hi)), gain


def cart_split_bruteforce(X, y, n_total, min_leaf, min_gain=0.0):
    """Exhaustive (feature, midpoint) scan; lowest feature index wins ties."""
    X = np.asarray(X, dtype=np.float64)
    best = None
    for j in range(X.shape[1]):
        found = best_threshold_bruteforce(X[:, j], y, n_total, min_leaf, min_gain)
        if found is None:
            continue
        if best is None or found[1] > best[2]:
            best = (j, found[0], found[1])
    return best


def cart_tree_bruteforce(X, y, n_total, max_depth, min_split, min_leaf, min_gain=0.0):
    """Recursively enumerated CART splits, returned as a nested dict."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(y) < min_split or max_depth == 0:
        return {"leaf": True, "mean": float(y.mean()), "count": len(y)}
    found = cart_split_bruteforce(X, y, n_total, min_leaf, min_gain)
    if found is None:
        return {"leaf": True, "mean": float(y.mean()), "count": len(y)}
    j, thr, gain = found
    left = X[:, j] < thr
    return {
        "leaf": False,
        "feature": j,
        "threshold": thr,
        "gain": gain,
        "left": cart_tree_bruteforce(X[left], y[left], n_total, max_depth - 1,
                                     min_split, min_leaf, min_gain),
        "right": cart_tree_bruteforce(X[~left], y[~left], n_total, max_depth - 1,
                                      min_split, min_leaf, min_gain),
    }


def rank_sum_exact_pvalue(a, b):
    """Two-sided rank-sum p-value by exhaustive enumeration of all
    C(n1+n2, n1) group assignments (midranks for ties)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    pooled = np.concatenate([a, b])
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(pooled.size)
    sorted_vals = pooled[order]
    i = 0
    while i < pooled.size:
        j = i
        while j + 1 < pooled.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n1 = a.size
    w_obs = ranks[:n1].sum()
    mu = ranks.sum() * n1 / pooled.size
    dev = abs(w_obs - mu)
    count = 0
    total = 0
    for combo in itertools.combinations(range(pooled.size), n1):
        total += 1
        w = ranks[list(combo)].sum()
        if abs(w - mu) >= dev - 1e-12:
            count += 1
    return count / total


def _stacked_ridge(X, y, lam):
    """Ridge as stacked least squares with the intercept row left
    unpenalized: returns (augmented design, stacked system, stacked
    target, lstsq coefficients)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    if lam > 0:
        pen = np.sqrt(lam) * np.eye(d + 1)
        pen[d, d] = 0.0
        A = np.vstack([Xa, pen])
        rhs = np.concatenate([y, np.zeros(d + 1)])
    else:
        A, rhs = Xa, y
    coef, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return Xa, A, rhs, coef


def projection_fit(X, y, lam):
    """Least-squares/ridge prediction vector via lstsq on an augmented
    system (independent of the library's Cholesky route)."""
    Xa, _, _, coef = _stacked_ridge(X, y, lam)
    return Xa @ coef


def penalised_residual(X, y, lam):
    """min over (w, b) of |y - X w - b|^2 + lam |w|^2: the squared
    residual of the stacked least-squares system."""
    _, A, rhs, coef = _stacked_ridge(X, y, lam)
    return float(np.sum((A @ coef - rhs) ** 2))


def ridge_weights(X, y, lam):
    """Feature weights of the stacked least-squares ridge fit."""
    return _stacked_ridge(X, y, lam)[3][:-1]


def residual_threshold_bruteforce(scores, X, r, lam, n_total, min_leaf,
                                  min_gain=0.0):
    """Rescan of every midpoint of adjacent distinct sorted scores for a
    residual-path node: each side's penalised residual comes from its own
    lstsq ridge fit of the residuals ``r`` on the node's features ``X``.

    Returns (threshold, gain) or None, smallest threshold among equal
    gains.
    """
    scores = np.asarray(scores, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    distinct = np.unique(scores)
    if distinct.size < 2:
        return None
    total = float(r @ r)
    best = None
    for lo, hi in zip(distinct[:-1], distinct[1:]):
        mid = (lo + hi) / 2.0
        if not mid > lo:
            mid = hi
        left = scores < mid
        nl, nr = int(left.sum()), int((~left).sum())
        if nl < min_leaf or nr < min_leaf:
            continue
        gain = (total - penalised_residual(X[left], r[left], lam)
                - penalised_residual(X[~left], r[~left], lam)) / n_total
        gain = max(gain, 0.0)
        if best is None or gain > best[1]:
            best = (mid, gain)
    if best is None or best[1] < min_gain:
        return None
    return best


def csv_reference(source):
    """Cell-by-cell CSV reader: the header cells (None when every cell of
    the first non-blank line reads as a number) and the body as an
    ``(n, ncols)`` array, each cell read by ``float()`` in a per-row
    loop. Errors name the 1-based source line; a non-finite cell is
    reported only once every cell has been read."""
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in source]
    numbered = [(no, ln) for no, ln in enumerate(lines, start=1) if ln.strip()]
    if not numbered:
        return None, np.zeros((0, 0))

    def numeric(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    first = [c.strip() for c in numbered[0][1].split(",")]
    header = None if all(numeric(c) for c in first) else first
    body = numbered[1:] if header is not None else numbered
    ncols = len(first)
    rows = []
    for no, line in body:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != ncols:
            raise ValueError(f"row {no}: expected {ncols} cells, got {len(cells)}")
        values = []
        for j, cell in enumerate(cells):
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(f"row {no}, column {j + 1}: non-numeric cell {cell!r}")
        rows.append(values)
    for (no, line), values in zip(body, rows):
        for j, value in enumerate(values):
            if not np.isfinite(value):
                cell = line.split(",")[j].strip()
                raise ValueError(f"row {no}, column {j + 1}: non-finite cell {cell!r}")
    return header, np.array(rows, dtype=np.float64).reshape(len(rows), ncols)


def decision_paths_reference(model, X):
    """Each row's (node, score, went_left) path, root first, appended one
    row at a time as the router reaches each internal node."""
    from fcodt.tree import _walk

    paths = [[] for _ in range(np.asarray(X).shape[0])]
    for slot, rows, _, _, scores in _walk(model, X):
        if scores is not None:
            threshold = model.nodes[slot].threshold
            for i, s in zip(rows.tolist(), scores.tolist()):
                paths[i].append((slot, s, s < threshold))
    return paths


def explain_reference(model, X):
    """The text of ``fcodt predict --explain`` on the rows of ``X``:
    ``predict_batch`` predictions and ``decision_paths_reference`` paths,
    each number formatted and each row joined on its own."""
    from fcodt.tree import predict_batch

    lines = ["prediction,path_nodes,path_scores"]
    if X.shape[0]:
        for pred, path in zip(predict_batch(model, X), decision_paths_reference(model, X)):
            nodes = ";".join(str(p[0]) for p in path)
            scores = ";".join(format(p[1], ".17g") for p in path)
            lines.append(f"{format(pred, '.17g')},{nodes},{scores}")
    return "\n".join(lines) + "\n"


def stumps_reference(model, data):
    """The four stump diagnostics with one ``solve_ridge`` call per node
    and per leaf and a replay of the data for each: (compute_stumps,
    verify_orthogonal_expansion, path_linear_prediction,
    linear_impurity_decrease) as (StumpBasis fields, float, array, dict)."""
    from fcodt.linalg import predict_linear, solve_ridge
    from fcodt.tree import ObliqueNode, replay_training_data

    lam = max(model.lam, 1e-12)
    y = data.targets
    n = data.n
    replay = replay_training_data(model, data)
    fits = {}
    for slot, view in replay.items():
        fits[slot] = np.zeros(n)
        fits[slot][view.indices] = predict_linear(
            solve_ridge(view.features, y[view.indices], lam), view.features)

    y_scale = max(1.0, float(np.sqrt(np.mean(y * y))))
    columns, coefs, node_ids, dropped = [], [], [], []
    decreases = {}
    for slot, node in enumerate(model.nodes):
        if not isinstance(node, ObliqueNode):
            continue
        parent_fit = fits[slot] if slot != 0 else 0.0
        delta = fits[node.left] + fits[node.right] - parent_fit
        norm = float(np.sqrt(np.mean(delta * delta)))
        if norm <= 1e-7 * y_scale:
            dropped.append(slot)
        else:
            psi = delta / norm
            columns.append(psi)
            coefs.append(float(np.mean(y * psi)))
            node_ids.append(slot)
        idx = replay[slot].indices
        parent_pred = fits[slot][idx] if slot != 0 else 0.0
        child_pred = (fits[node.left] + fits[node.right])[idx]
        decreases[slot] = float((np.sum((y[idx] - parent_pred) ** 2)
                                 - np.sum((y[idx] - child_pred) ** 2)) / n)
    stumps = np.column_stack(columns) if columns else np.zeros((n, 0))
    coefs = np.asarray(coefs)

    path_pred = np.zeros(n)
    for slot, view in replay_training_data(model, data).items():
        if isinstance(model.nodes[slot], ObliqueNode):
            path_pred[view.indices] += view.scores
        else:
            path_pred[view.indices] += predict_linear(
                solve_ridge(view.features, view.incoming, lam), view.features)
    gap = float(np.max(np.abs(path_pred - stumps @ coefs))) if n else 0.0
    return (stumps, coefs, node_ids, dropped), gap, path_pred, decreases
