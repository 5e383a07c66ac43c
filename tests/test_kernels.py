import numpy as np
import pytest

from sevi import kernels
from sevi.gwr import adaptive_bandwidths, kernel_weight


def _oracle(coords, X, y, bandwidths, kernel):
    """Per-location WLS from the normal equations with `np.linalg.solve`."""
    n, p = X.shape
    beta = np.zeros((n, p))
    fitted, s_ii, s_norm2 = np.zeros(n), np.zeros(n), np.zeros(n)
    for i in range(n):
        d = np.hypot(*(coords - coords[i]).T)
        w = np.array([kernel_weight(dj, bandwidths[i], kernel) for dj in d])
        A = X.T @ (w[:, None] * X)
        beta[i] = np.linalg.solve(A, X.T @ (w * y))
        c = np.linalg.solve(A, X[i])
        fitted[i] = X[i] @ beta[i]
        s_ii[i] = X[i] @ c
        s_norm2[i] = np.sum((w * (X @ c)) ** 2)
    return beta, fitted, s_ii, s_norm2


@pytest.mark.parametrize("kernel", ["gaussian", "bisquare"])
@pytest.mark.parametrize("adaptive", [False, True])
def test_gwr_fit_all_matches_normal_equations(kernel, adaptive):
    rng = np.random.default_rng(11)
    n = 60
    coords = rng.uniform(0, 2000, (n, 2))
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    y = X @ np.array([1.0, 2.0, 3.0]) + rng.normal(0, 0.1, n)
    bw = adaptive_bandwidths(coords, 20) if adaptive else np.full(n, 1200.0)

    beta, fitted, s_ii, s_norm2, flags = kernels.gwr_fit_all(
        coords[:, 0].copy(), coords[:, 1].copy(), X, y, bw, kernels.KERNEL_CODES[kernel])

    assert np.all(flags == kernels.FLAG_OK)
    for got, want in zip((beta, fitted, s_ii, s_norm2), _oracle(coords, X, y, bw, kernel)):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def test_near_singular_system_ridged_although_lapack_factors_it():
    # x2 differs from x1 by 1e-7 noise: every local X'WX is positive definite
    # in floating point, but its smallest pivot sits below _CHOL_TOL of the
    # largest diagonal, so the pivot rule must still send it to the ridge
    rng = np.random.default_rng(0)
    n = 40
    coords = rng.uniform(0, 1000, (n, 2))
    x1 = rng.normal(size=n)
    x2 = x1 + 1e-7 * rng.normal(size=n)
    y = rng.normal(size=n)
    X = np.column_stack([np.ones(n), x1, x2])
    bw = np.full(n, 500.0)

    w = np.exp(-0.5 * (np.hypot(*(coords - coords[0]).T) / 500.0) ** 2)
    A = X.T @ (w[:, None] * X)
    L = np.linalg.cholesky(A)  # LAPACK alone does not object
    assert np.min(np.diag(L)) ** 2 <= kernels._CHOL_TOL * np.max(np.diag(A))

    *_, flags = kernels.gwr_fit_all(coords[:, 0].copy(), coords[:, 1].copy(), X, y, bw,
                                    kernels.KERNEL_GAUSSIAN)
    assert np.all(flags == kernels.FLAG_RIDGED)
