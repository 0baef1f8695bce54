"""Machine-speed reference for normalising timings on a shared machine.

On a machine shared with other tenants the CPU speed available to one
process drifts (by ±20% over tens of seconds, and by more over minutes),
and the drift moves every timing alike. The benchmark runs this fixed
kernel before and after every operation and divides the operation's time
by how much slower the kernel ran than ``KERNEL_REF_S``, so timings read
as if taken at one reference speed. The kernel mixes the kinds of work fcodt does (small
dense algebra in numpy, Python-level loops, sorting and cumulative sums,
float formatting and parsing) and calls no fcodt code, so no change to
the package can change it.
"""

from __future__ import annotations

import time

# kernel time at the reference speed: its typical best-of-two time on a
# 2-core x86-64 Linux machine with Python 3.11 and numpy 2.4
KERNEL_REF_S = 0.004


def _kernel() -> float:
    import numpy as np  # imported here so that importing this module stays cheap

    rng = np.random.default_rng(0)
    acc = 0.0
    # small systems and Python-level loops, as in a node's ridge solve
    X = rng.random((400, 12))
    y = rng.random(400)
    for _ in range(4):
        A = X.T @ X + 0.1 * np.eye(12)
        L = np.zeros_like(A)
        for j in range(A.shape[0]):
            L[j, j] = np.sqrt(A[j, j] - L[j, :j] @ L[j, :j])
            L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
        order = np.argsort(X @ L[:, 0], kind="stable")
        acc += np.cumsum(y[order])[-1]
    # whole-table array work, as in canonical sorting and routing rows
    Z = rng.random((2000, 16))
    Zc = Z - Z.mean(axis=0)
    rows = Z[np.lexsort(tuple(Z[:, j] for j in range(10)))]
    left = rows[:, 0] < 0.5
    child = np.hstack([rows[left], rows[left][:, :1]])
    acc += np.cumsum(child @ np.ones(child.shape[1]))[-1] + (Zc.T @ Zc)[0, 0]
    # float formatting and parsing, as in CSV and model text
    text = ",".join(format(v, ".17g") for v in X[:100].ravel())
    return acc + sum(float(t) for t in text.split(","))


def slowdown() -> float:
    """How many times slower than the reference the machine runs now
    (best of two kernel runs)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best / KERNEL_REF_S
