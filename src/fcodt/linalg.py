"""Dense linear algebra for ridge-projection splits.

Everything here is deterministic: identical inputs produce bit-identical
outputs. Matrices are plain float64 numpy arrays in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NotPositiveDefiniteError(ValueError):
    """Raised when a Cholesky pivot is not strictly positive."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"matrix is not positive definite (pivot {pivot_index})")


class SingularSystemError(ValueError):
    """Raised when an unregularized system is rank-deficient."""


@dataclass(frozen=True)
class RidgeSolution:
    """Closed-form ridge fit: weights over the input columns plus an
    unpenalized intercept."""

    weights: np.ndarray
    intercept: float
    lam: float


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={X.ndim}")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix contains non-finite entries")
    return X

def _as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return v


def _factors(A: np.ndarray) -> bool:
    """Whether LAPACK's Cholesky factorisation of ``A`` succeeds."""
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def _check_lambdas(lams) -> np.ndarray:
    """``lams``, one penalty or several, as float64; a ValueError names
    the first one that is not finite and nonnegative."""
    lams = np.asarray(lams, dtype=np.float64)
    bad = ~((lams >= 0) & (lams < np.inf))  # negative, NaN or inf
    if bad.any():
        raise ValueError(f"lambda must be finite and nonnegative, got {lams[bad][0]}")
    return lams


def spd_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive-definite A: LAPACK's Cholesky
    factorisation checks positive definiteness, then ``np.linalg.solve``
    solves, the two calls ``solve_ridge_many`` makes.

    When either call fails, NotPositiveDefiniteError names the
    pivot k of the smallest leading (k+1)x(k+1) block that fails to
    factor. An exactly singular A has a zero pivot that rounds either
    way, so it can fail there or at the next pivot, or pass the check;
    if the solve then meets the exact zero, the error names the last
    pivot.
    """
    A = _as_matrix(A)
    b = _as_vector(b)
    n = A.shape[0]
    if n != A.shape[1]:
        raise ValueError(f"matrix must be square, got {n}x{A.shape[1]}")
    if n != b.shape[0]:
        raise ValueError(f"dimension mismatch: A is {n}x{n}, b has length {b.shape[0]}")
    try:
        np.linalg.cholesky(A)
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            next((k for k in range(n) if not _factors(A[:k + 1, :k + 1])), n - 1)) from None


def solve_ridge(X: np.ndarray, y: np.ndarray, lam: float,
                fit_intercept: bool = True) -> RidgeSolution:
    """Minimize ||y - X w - b 1||^2 + lam ||w||^2 with the intercept b
    unpenalized (b fixed to 0 when fit_intercept is off).

    Solved through the regularized normal equations on centered data; a
    rank check guards the factorization when lam is 0. ``lam`` must be
    finite and nonnegative.
    """
    X = _as_matrix(X)
    y = _as_vector(y)
    n = X.shape[0]
    if n != y.shape[0]:
        raise ValueError(f"dimension mismatch: X has {n} rows, y has length {y.shape[0]}")
    if n < 1:
        raise ValueError("need at least one sample")

    return solve_ridge_many([(X, y)], [lam], fit_intercept=fit_intercept)[0]


def solve_ridge_many(problems: list, lams, fit_intercept: bool = True) -> list:
    """``solve_ridge`` for each (X, y) in ``problems``, all of the same
    width, each with its own penalty in ``lams``, through one batched
    factorisation. Each result depends only on its own problem. A ValueError
    names a system that is singular or whose solve overflows."""
    d = problems[0][0].shape[1]
    lams = _check_lambdas(lams)
    grams = np.empty((len(problems), d, d))
    rhs = np.empty((len(problems), d, 1))
    means = []
    ones = np.ones(max(X.shape[0] for X, _ in problems))
    # a sum that overflows shows in the weights, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (X, y) in enumerate(problems):
            if fit_intercept:
                x_mean = ones[:X.shape[0]] @ X / X.shape[0]
                y_mean = y.sum() / y.shape[0]
            else:
                x_mean, y_mean = np.zeros(d), 0.0
            Xc = X - x_mean
            if lams[i] == 0.0 and np.linalg.matrix_rank(Xc) < d:
                raise SingularSystemError(
                    "singular system: design matrix is rank-deficient at lambda=0")
            np.matmul(Xc.T, Xc, out=grams[i])
            np.matmul(Xc.T, y - y_mean, out=rhs[i, :, 0])
            means.append((x_mean, y_mean))
    diag = np.arange(d)
    grams[:, diag, diag] += lams[:, None]
    # LAPACK's Cholesky check can pass an exactly singular system that the
    # solve then meets; either failure leaves as the one error
    try:
        np.linalg.cholesky(grams)
        weights = np.linalg.solve(grams, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        raise SingularSystemError("singular system: matrix is not positive definite") from None
    # finite inputs whose sums overflow pass LAPACK and leave inf or NaN
    if not np.isfinite(weights).all():
        raise ValueError("ridge solve overflowed: the weights are not finite")
    return [RidgeSolution(weights=w, intercept=float(y_mean - x_mean @ w) if fit_intercept else 0.0,
                          lam=float(lam))
            for w, (x_mean, y_mean), lam in zip(weights, means, lams)]


def predict_linear(model: RidgeSolution, X: np.ndarray) -> np.ndarray:
    """Row-wise dot(weights, row) + intercept."""
    X = _as_matrix(X)
    if X.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"dimension mismatch: model has {model.weights.shape[0]} weights, X has {X.shape[1]} columns")
    return X @ model.weights + model.intercept
