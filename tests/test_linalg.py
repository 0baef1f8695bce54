import numpy as np
import pytest

from fcodt.linalg import (
    NotPositiveDefiniteError,
    RidgeSolution,
    SingularSystemError,
    predict_linear,
    solve_ridge,
    solve_ridge_many,
    spd_solve,
)
from oracles import ridge_oracle, ridge_oracle_intercept


class TestSpdSolve:
    def test_identity(self):
        x = spd_solve(np.eye(2), np.array([3.0, -1.0]))
        assert np.array_equal(x, [3.0, -1.0])

    def test_diagonal(self):
        x = spd_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0], atol=0, rtol=1e-15)

    def test_random_spd_matches_pivoted_elimination(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            M = rng.normal(size=(8, 8))
            A = M.T @ M + np.eye(8)
            b = rng.normal(size=8)
            expect = np.linalg.solve(A, b)
            got = spd_solve(A, b)
            assert np.max(np.abs(got - expect)) < 1e-10

    def test_residual_bound(self):
        rng = np.random.default_rng(11)
        M = rng.normal(size=(12, 12))
        A = M.T @ M + np.eye(12)
        b = rng.normal(size=12)
        x = spd_solve(A, b)
        resid = np.linalg.norm(A @ x - b)
        bound = 1e-10 * (np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b))
        assert resid <= bound

    def test_not_positive_definite_names_pivot(self):
        A = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NotPositiveDefiniteError) as err:
            spd_solve(A, np.array([1.0, 1.0]))
        assert err.value.pivot_index == 1

    @pytest.mark.parametrize("pivot", [2, 3])
    def test_pivot_is_first_failing_leading_block(self, pivot):
        # A = L D L^T: the leading blocks before ``pivot`` are positive definite
        L = np.tril(np.random.default_rng(pivot).normal(size=(4, 4)), -1) + np.eye(4)
        D = np.array([1.0, 2.0, 3.0, 4.0])
        D[pivot] = -1.0
        with pytest.raises(NotPositiveDefiniteError) as err:
            spd_solve(L @ np.diag(D) @ L.T, np.ones(4))
        assert err.value.pivot_index == pivot

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(6, 6))
        A = M.T @ M + np.eye(6)
        b = rng.normal(size=6)
        x = spd_solve(A, b)
        assert np.allclose(A @ x, b, rtol=1e-9, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spd_solve(np.eye(3), np.ones(2))

    def test_non_square_refused(self):
        with pytest.raises(ValueError, match="^matrix must be square, got 2x3$"):
            spd_solve(np.ones((2, 3)), np.ones(2))

    def test_exact_zero_met_by_the_solve_names_the_last_pivot(self):
        # the Cholesky check passes, and the solve meets the exact zero
        with pytest.raises(NotPositiveDefiniteError) as err:
            spd_solve(np.array([[5.0, 8.0], [8.0, 12.8]]), np.ones(2))
        assert err.value.pivot_index == 1

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(5, 5))
        A = M.T @ M + np.eye(5)
        b = rng.normal(size=5)
        x1 = spd_solve(A.copy(), b.copy())
        x2 = spd_solve(A.copy(), b.copy())
        assert np.array_equal(x1, x2)


class TestSolveRidge:
    def test_identity_design_no_intercept(self):
        sol = solve_ridge(np.eye(2), np.array([2.0, 4.0]), 0.0, fit_intercept=False)
        assert np.allclose(sol.weights, [2.0, 4.0], atol=1e-12)
        assert sol.intercept == 0.0

    def test_huge_penalty_shrinks_to_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30) * 3 + 5
        sol = solve_ridge(X, y, 1e12)
        scale = float(np.max(np.abs(y)))
        assert np.all(np.abs(sol.weights) <= 1e-6 * scale)
        assert abs(sol.intercept - y.mean()) < 1e-5 * scale

    def test_matches_pivoted_elimination_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 5))
        y = rng.normal(size=20)
        expect = ridge_oracle(X, y, 0.1)
        sol = solve_ridge(X, y, 0.1, fit_intercept=False)
        assert np.max(np.abs(sol.weights - expect)) < 1e-8

    def test_intercept_matches_augmented_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(25, 4)) + 2.0
        y = rng.normal(size=25) + 10.0
        w, b = ridge_oracle_intercept(X, y, 0.5)
        sol = solve_ridge(X, y, 0.5)
        assert np.max(np.abs(sol.weights - w)) < 1e-8
        assert abs(sol.intercept - b) < 1e-8

    def test_singular_at_lambda_zero(self):
        X = np.ones((5, 2))  # two identical columns
        y = np.arange(5.0)
        with pytest.raises(SingularSystemError):
            solve_ridge(X, y, 0.0)

    def test_rejects_nonfinite(self):
        X = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError):
            solve_ridge(X, np.array([1.0]), 1.0)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            solve_ridge(np.eye(2), np.ones(2), -1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_rejects_non_finite_lambda(self, lam):
        # a NaN penalty would give NaN weights, an infinite one zero weights
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {lam}"):
            solve_ridge(np.eye(2), np.ones(2), lam)
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {lam}"):
            solve_ridge_many([(np.eye(2), np.ones(2))] * 2, [0.1, lam])

    def test_overflowing_solve_refused(self):
        # finite entries whose Gram sums overflow: LAPACK passes the inf and
        # NaN sums, and the weights would be NaN
        X = np.array([[1.0, 2.0], [1e308, -1e308], [3.0, 1.0], [0.0, 5.0]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match="^ridge solve overflowed: the weights are not finite$"):
            solve_ridge(X, np.arange(4.0), 0.1)

    def test_shrinkage_monotone_in_lambda(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 6))
        y = rng.normal(size=40)
        lams = [0.0, 1e-3, 1e-1, 1.0, 10.0, 1e3]
        norms = [np.linalg.norm(solve_ridge(X, y, lam).weights) for lam in lams]
        for small, large in zip(norms[:-1], norms[1:]):
            assert large <= small + 1e-9

    def test_sse_never_worse_than_mean(self):
        rng = np.random.default_rng(5)
        for lam in [0.0, 0.1, 10.0, 1e4]:
            X = rng.normal(size=(30, 5))
            y = rng.normal(size=30) + 4.0
            sol = solve_ridge(X, y, lam)
            fit = predict_linear(sol, X)
            sse_fit = np.sum((y - fit) ** 2)
            sse_mean = np.sum((y - y.mean()) ** 2)
            assert sse_fit <= sse_mean + 1e-9

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        lam = 0.2
        sol = solve_ridge(X, y, lam, fit_intercept=False)
        resid = (X.T @ X + lam * np.eye(3)) @ sol.weights - X.T @ y
        scale = max(1.0, float(np.max(np.abs(X.T @ y))))
        assert np.max(np.abs(resid)) <= 1e-8 * scale


    @pytest.mark.parametrize("X, y, message", [
        (np.ones(3), np.ones(3), "expected a 2-d matrix, got ndim=1"),
        (np.ones((3, 2)), np.array([1.0, np.nan, 1.0]), "vector contains non-finite entries"),
        (np.ones((3, 2)), np.ones(2), "dimension mismatch: X has 3 rows, y has length 2"),
        (np.ones((0, 2)), np.ones(0), "need at least one sample"),
    ])
    def test_refused_inputs(self, X, y, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_ridge(X, y, 1.0)

    def test_identical_columns_at_a_vanishing_penalty(self):
        # 1e-300 vanishes beside the Gram entries, so the system stays singular
        x = np.arange(5.0)
        with pytest.raises(SingularSystemError,
                           match="^singular system: matrix is not positive definite$"):
            solve_ridge(np.column_stack([x, x]), x, 1e-300)

    @pytest.mark.parametrize("x", [np.arange(7.0), np.array([1.0, 2.0]),
                                   np.array([0.1, 0.2, 0.7])],
                             ids=["arange7", "two_rows", "three_rows"])
    def test_identical_columns_that_pass_the_cholesky_check(self, x):
        # LAPACK's check passes these; the solve meets the exact zero
        # and fails with the same error
        with pytest.raises(SingularSystemError,
                           match="^singular system: matrix is not positive definite$"):
            solve_ridge(np.column_stack([x, x]), x, 1e-300)


class TestPredictLinear:
    def test_zero_weights_constant(self):
        model = RidgeSolution(weights=np.zeros(3), intercept=2.5, lam=0.0)
        out = predict_linear(model, np.ones((4, 3)))
        assert np.array_equal(out, np.full(4, 2.5))

    def test_coordinate_projection(self):
        model = RidgeSolution(weights=np.array([1.0, 0.0]), intercept=0.0, lam=0.0)
        X = np.array([[3.0, 9.0], [-1.0, 4.0]])
        assert np.array_equal(predict_linear(model, X), X[:, 0])

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=6)
        b = rng.normal()
        X = rng.normal(size=(11, 6))
        model = RidgeSolution(weights=w, intercept=b, lam=0.0)
        got = predict_linear(model, X)
        for i in range(11):
            expect = sum(w[j] * X[i, j] for j in range(6)) + b
            assert abs(got[i] - expect) < 1e-12

    def test_dimension_mismatch(self):
        model = RidgeSolution(weights=np.zeros(3), intercept=0.0, lam=0.0)
        with pytest.raises(ValueError):
            predict_linear(model, np.ones((2, 4)))
