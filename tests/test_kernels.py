import numpy as np
import pytest

from sevi import kernels
from sevi.gwr import adaptive_bandwidths

from .oracles import chol, kernel_weight


def _fit_all(coords, X, Y, bandwidths, kernel, dist=None, full=True):
    """`kernels.gwr_fit_all` with the design's operands built for the call."""
    return kernels.gwr_fit_all(coords, X, Y, bandwidths, kernel, kernels.gwr_operands(X, Y),
                               dist, full)


def _local_system(coords, X, bandwidths, kernel, i):
    """Kernel weights and X'WX at location i, one weight at a time."""
    d = np.hypot(*(coords - coords[i]).T)
    w = np.array([kernel_weight(dj, bandwidths[i], kernel) for dj in d])
    return w, X.T @ (w[:, None] * X)


def _oracle(coords, X, y, bandwidths, kernel, rows=None):
    """Per-location WLS from the normal equations with `np.linalg.solve`, at
    `rows` (default all); other rows stay zero."""
    n, p = X.shape
    beta = np.zeros((n, p))
    fitted, s_ii, s_norm2 = np.zeros(n), np.zeros(n), np.zeros(n)
    for i in range(n) if rows is None else rows:
        w, A = _local_system(coords, X, bandwidths, kernel, i)
        beta[i] = np.linalg.solve(A, X.T @ (w * y))
        c = np.linalg.solve(A, X[i])
        fitted[i] = X[i] @ beta[i]
        s_ii[i] = X[i] @ c
        s_norm2[i] = np.sum((w * (X @ c)) ** 2)
    return beta, fitted, s_ii, s_norm2


def _reference_flags(coords, X, bandwidths, kernel):
    """Per-location pivot rule, ridge and singular verdict, one `chol` at a time."""
    n, p = X.shape
    flags = np.zeros(n, dtype=np.int8)
    for i in range(n):
        _, A = _local_system(coords, X, bandwidths, kernel, i)
        if chol(A) is None:
            lam = kernels.RIDGE_REL * np.trace(A) / p
            ridged = chol(A + lam * np.eye(p)) is not None
            flags[i] = kernels.FLAG_RIDGED if ridged else kernels.FLAG_SINGULAR
    return flags


def _check_against_oracle(n, kernel, adaptive):
    rng = np.random.default_rng(11)
    coords = rng.uniform(0, 2000, (n, 2))
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    y = X @ np.array([1.0, 2.0, 3.0]) + rng.normal(0, 0.1, n)
    bw = (adaptive_bandwidths(kernels.pairwise_distances(coords), 20) if adaptive
          else np.full(n, 1200.0))

    beta, fitted, s_ii, s_norm2, flags = _fit_all(coords, X, y[:, None], bw, kernel)

    assert beta.shape == (n, 3, 1) and fitted.shape == (n, 1)
    assert np.all(flags == kernels.FLAG_OK)
    for got, want in zip((beta[:, :, 0], fitted[:, 0], s_ii, s_norm2),
                         _oracle(coords, X, y, bw, kernel)):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("kernel", ["gaussian", "bisquare"])
@pytest.mark.parametrize("adaptive", [False, True])
def test_gwr_fit_all_matches_normal_equations(kernel, adaptive):
    _check_against_oracle(60, kernel, adaptive)


@pytest.mark.parametrize("kernel", ["gaussian", "bisquare"])
def test_gwr_fit_all_across_row_blocks(kernel):
    n = 400
    assert kernels._block_rows(n, 3, 1) < n  # the locations span more than one row block
    _check_against_oracle(n, kernel, adaptive=True)


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

    *_, flags = _fit_all(coords, X, y[:, None], bw, "gaussian")
    assert np.all(flags == kernels.FLAG_RIDGED)


def test_gwr_fit_all_multiple_responses_match_single_calls():
    rng = np.random.default_rng(5)
    n = 80
    coords = rng.uniform(0, 2000, (n, 2))
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    Y = X @ rng.normal(size=(3, 3)) + rng.normal(0, 0.2, (n, 3))
    bw = np.full(n, 900.0)

    beta, fitted, s_ii, s_norm2, flags = _fit_all(coords, X, Y, bw, "gaussian")

    assert beta.shape == (n, 3, 3) and fitted.shape == (n, 3)
    assert np.all(flags == kernels.FLAG_OK)
    for k in range(3):
        b1, f1, *single = _fit_all(coords, X, Y[:, k:k + 1].copy(), bw, "gaussian")
        oracle = _oracle(coords, X, Y[:, k], bw, "gaussian")
        for got, one, want in zip((beta[:, :, k], fitted[:, k], s_ii, s_norm2),
                                  (b1[:, :, 0], f1[:, 0], *single[:2]), oracle):
            np.testing.assert_allclose(got, one, rtol=1e-10, atol=0)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def _mixed_block(zero_row):
    """Bisquare at 100 m: a dense cluster gives clean systems, and isolated
    points see only themselves (rank 1, ridged). With `zero_row`, the last
    isolated point has a zero row, so its X'WX == 0, which no ridge repairs.
    Either way the stacked Cholesky raises for all n systems of the call."""
    rng = np.random.default_rng(3)
    cluster = rng.uniform(0, 150, (24, 2))
    isolated = 1000.0 * np.arange(1, 7)[:, None] * np.ones((6, 2))
    coords = np.vstack([cluster, isolated])
    n = len(coords)
    X = rng.normal(size=(n, 3))
    if zero_row:
        X[-1] = 0.0
    return coords, X, rng.normal(size=n), np.full(n, 100.0)


def _counting_fallback(monkeypatch):
    """A list that gets one entry per system that `kernels._failed_pivots`
    tests alone."""
    calls = []
    failed_pivots = kernels._failed_pivots

    def count(A):
        if len(A) == 1:
            calls.append(1)
        return failed_pivots(A)

    monkeypatch.setattr(kernels, "_failed_pivots", count)
    return calls


def test_mixed_block_falls_back_to_per_row_pivot_rule(monkeypatch):
    coords, X, y, bw = _mixed_block(zero_row=True)
    calls = _counting_fallback(monkeypatch)

    *solution, flags = _fit_all(coords, X, y[:, None], bw, "bisquare")

    assert len(calls) >= len(coords)  # the stack was re-checked row by row
    want = _reference_flags(coords, X, bw, "bisquare")
    np.testing.assert_array_equal(flags, want)
    assert set(np.unique(flags)) == {kernels.FLAG_OK, kernels.FLAG_RIDGED,
                                     kernels.FLAG_SINGULAR}
    assert solution == [None] * 4  # a singular system: the flags alone


def test_per_row_fallback_solves_clean_and_ridged_rows(monkeypatch):
    coords, X, y, bw = _mixed_block(zero_row=False)
    calls = _counting_fallback(monkeypatch)

    beta, _, _, _, flags = _fit_all(coords, X, y[:, None], bw, "bisquare")

    assert len(calls) >= len(coords)  # the stack was re-checked row by row
    np.testing.assert_array_equal(flags, _reference_flags(coords, X, bw, "bisquare"))
    assert set(np.unique(flags)) == {kernels.FLAG_OK, kernels.FLAG_RIDGED}
    clean = np.flatnonzero(flags == kernels.FLAG_OK)
    want_beta = _oracle(coords, X, y, bw, "bisquare", rows=clean)[0]
    np.testing.assert_allclose(beta[clean, :, 0], want_beta[clean], rtol=1e-10, atol=0)
    assert np.all(np.isfinite(beta))


def _apply_pivot_rule_before(A):
    """`kernels._apply_pivot_rule` as it was before the ridged systems were
    tested as one stack: one `chol` per failing system."""
    p = A.shape[1]
    flags = np.zeros(len(A), dtype=np.int8)
    for r in np.flatnonzero(_failed_pivots_before(A)):
        lam = kernels.RIDGE_REL * float(np.trace(A[r])) / p
        ridged = A[r] + lam * np.eye(p)
        if chol(ridged) is None:
            flags[r] = kernels.FLAG_SINGULAR
        else:
            A[r] = ridged
            flags[r] = kernels.FLAG_RIDGED
    return flags


@pytest.mark.parametrize("stack_passes", [True, False])
def test_stacked_pivot_rule_and_ridge_match_the_per_system_code(stack_passes):
    # 10,000 local systems X'WX of 10 parameters from 1 to 14 weighted rows,
    # rank-deficient ones among full-rank ones. A jitter far above round-off
    # makes LAPACK accept the whole stack, and the rank-deficient systems
    # fail on their smallest pivot. Without it LAPACK rejects the stack, and
    # each system is tested alone; the all-zero systems stay singular after
    # the ridge
    rng = np.random.default_rng(31)
    n, p = 10_000, 10
    G = rng.normal(size=(n, 14, p)) * (np.arange(14) < rng.integers(1, 15, n)[:, None])[:, :, None]
    if not stack_passes:
        G[rng.choice(n, 5, replace=False)] = 0.0
    A = np.einsum("sri,srj->sij", G, G)
    if stack_passes:
        A += 1e-13 * np.trace(A, axis1=1, axis2=2)[:, None, None] / p * np.eye(p)
        np.linalg.cholesky(A)
    A_before = A.copy()

    flags = kernels._apply_pivot_rule(A)

    assert np.array_equal(flags, _apply_pivot_rule_before(A_before))
    assert np.array_equal(A, A_before)
    assert {kernels.FLAG_OK, kernels.FLAG_RIDGED} <= set(flags.tolist())
    assert (kernels.FLAG_SINGULAR in flags) != stack_passes


def test_one_distance_function_gives_the_bits_of_both_former_formulas():
    rng = np.random.default_rng(37)
    px, py = rng.uniform(-4e4, 4e4, (2, 600))
    ax, ay = rng.uniform(-4e4, 4e4, (2, 90))
    x, y = np.column_stack([px, py]).T  # a GWR design's coordinate columns
    for lo, hi in ((0, 256), (256, 512), (512, 600)):
        # a chunk of the spillover field, then a row block of a GWR fit
        spill = np.hypot(ax[None, :] - px[lo:hi, None], ay[None, :] - py[lo:hi, None])
        assert np.array_equal(kernels._distances(px[lo:hi], py[lo:hi], ax, ay), spill)
        assert np.array_equal(kernels._distances(x[lo:hi], y[lo:hi], x, y),
                              np.hypot(x[None, :] - x[lo:hi, None], y[None, :] - y[lo:hi, None]))


def _clustered_with_isolated(n_cluster=290, n_isolated=4, seed=17):
    """A cluster whose locations span several row blocks, plus points 100 km
    away from it and from each other, which see only themselves at short
    bandwidths (rank-1 systems, ridged)."""
    rng = np.random.default_rng(seed)
    coords = np.vstack([rng.uniform(0, 2000, (n_cluster, 2)),
                        1e5 * np.arange(1, n_isolated + 1)[:, None] * np.ones((n_isolated, 2))])
    n = len(coords)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
    Y = X @ rng.normal(size=(4, 3)) + rng.normal(0, 0.3, (n, 3))
    return coords, X, Y


def test_distance_matrix_rows_equal_the_per_block_distances():
    coords, _, _ = _clustered_with_isolated()
    n = len(coords)
    rows = kernels._block_rows(n, 4, 3)
    assert rows < n
    cx, cy = coords[:, 0].copy(), coords[:, 1].copy()
    dist = kernels.pairwise_distances(coords)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        block = np.hypot(cx[None, :] - cx[lo:hi, None], cy[None, :] - cy[lo:hi, None])
        assert np.array_equal(dist[lo:hi], block)


@pytest.mark.parametrize("kernel", ["gaussian", "bisquare"])
@pytest.mark.parametrize("bandwidth", [400.0, 1500.0])
def test_aicc_mode_matches_the_full_fit(kernel, bandwidth):
    coords, X, Y = _clustered_with_isolated()
    n = len(coords)
    assert n > kernels._block_rows(n, X.shape[1], Y.shape[1])  # more than one row block
    bw = np.full(n, bandwidth)
    dist = kernels.pairwise_distances(coords)

    beta, fitted, s_ii, s_norm2, flags = _fit_all(coords, X, Y, bw, kernel)
    no_beta, aicc_fitted, aicc_s_ii, no_norms, aicc_flags = _fit_all(
        coords, X, Y, bw, kernel, dist, full=False)

    assert no_beta is None and no_norms is None
    np.testing.assert_array_equal(aicc_flags, flags)
    assert set(np.unique(flags)) == {kernels.FLAG_OK, kernels.FLAG_RIDGED}
    np.testing.assert_allclose(aicc_fitted, fitted, rtol=1e-12, atol=0)
    np.testing.assert_allclose(aicc_s_ii, s_ii, rtol=1e-12, atol=0)


def _failed_pivots_before(A):
    """Boolean mask of the stacked matrices that fail the pivot rule of
    `chol`, as the block kernels below checked it."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:  # raised for the whole stack; find the culprits
        return np.array([chol(a) is None for a in A], dtype=bool)
    dmax = np.max(np.diagonal(A, axis1=1, axis2=2), axis=1)
    dmin_l = np.min(np.diagonal(L, axis1=1, axis2=2), axis=1)
    return dmin_l ** 2 <= kernels._CHOL_TOL * dmax


def _fit_all_before(coords, X, Y, bandwidths, kernel, dist=None, full=True):
    """`gwr_fit_all` as it was before X'WX was formed from its upper triangle:
    the full p x p row-wise outer products, and row blocks of 2**14 kernel
    weights."""
    n, p = X.shape
    m = Y.shape[1]
    XX = (X[:, :, None] * X[:, None, :]).reshape(n, p * p)
    XY = (X[:, :, None] * Y[:, None, :]).reshape(n, p * m)
    beta = np.zeros((n, p, m)) if full else None
    fitted = None if full else np.zeros((n, m))
    s_ii = np.zeros(n)
    s_norm2 = np.zeros(n) if full else None
    flags = np.zeros(n, dtype=np.int8)

    x, y = coords[:, 0], coords[:, 1]
    rows = max(1, (1 << 14) // n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        d = kernels._distances(x[lo:hi], y[lo:hi], x, y) if dist is None else dist[lo:hi]
        t = d / bandwidths[lo:hi, None]
        if kernel == "gaussian":
            W = np.exp(-0.5 * t * t)
        else:
            W = np.where(t < 1.0, (1.0 - t * t) ** 2, 0.0)
        A = (W @ XX).reshape(-1, p, p)
        B = (W @ XY).reshape(-1, p, m)

        failed = _failed_pivots_before(A)
        blk_flags = flags[lo:hi]
        for r in np.flatnonzero(failed):
            lam = kernels.RIDGE_REL * float(np.trace(A[r])) / p
            ridged = A[r] + lam * np.eye(p)
            if chol(ridged) is None:
                blk_flags[r] = kernels.FLAG_SINGULAR
            else:
                A[r] = ridged
                blk_flags[r] = kernels.FLAG_RIDGED

        ok = np.flatnonzero(blk_flags != kernels.FLAG_SINGULAR)
        xi = X[lo:hi][ok]
        rows_ok = lo + ok
        if full:
            sol = np.linalg.solve(A[ok], np.concatenate([B[ok], xi[:, :, None]], axis=2))
            beta[rows_ok] = sol[:, :, :m]
            c = sol[:, :, m]
            sx = W[ok] * (c @ X.T)
            s_norm2[rows_ok] = np.einsum("ij,ij->i", sx, sx)
        else:
            c = np.linalg.solve(A[ok], xi[:, :, None])[:, :, 0]
            fitted[rows_ok] = np.einsum("ip,ipm->im", c, B[ok])
        s_ii[rows_ok] = np.einsum("ip,ip->i", xi, c)

    if full:
        fitted = np.einsum("ip,ipm->im", X, beta)
    return beta, fitted, s_ii, s_norm2, flags


def _benchmark_shaped(n, seed=23):
    """A design of the benchmark cities' shape: n locations on a 2.4 km
    square, nine predictors plus the intercept, eight responses."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 2400, (n, 2))
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 9))])
    Y = X @ rng.normal(size=(10, 8)) + rng.normal(0, 0.5, (n, 8))
    return coords, X, Y


# Bandwidths that keep every local system far from the pivot boundary: each
# fit is clean under both kernels. Near it a last-bit difference can move a
# location across; under bisquare at 400 m with n = 1000, one location's
# ridge flag differs between the two kernels.
@pytest.mark.parametrize("kernel", ["gaussian", "bisquare"])
@pytest.mark.parametrize("n, bandwidth, full", [
    (160, 900.0, True), (160, 900.0, False), (1000, 600.0, True)])
def test_symmetric_kernel_matches_the_kernel_before(kernel, n, bandwidth, full):
    coords, X, Y = _benchmark_shaped(n)
    bw = np.full(n, bandwidth)
    dist = None if full else kernels.pairwise_distances(coords)

    got = _fit_all(coords, X, Y, bw, kernel, dist, full)
    want = _fit_all_before(coords, X, Y, bw, kernel, dist, full)

    np.testing.assert_array_equal(got[-1], want[-1])
    assert np.all(got[-1] == kernels.FLAG_OK)
    # beta, fitted values, hat diagonal and hat-row norms (None in the search)
    for g, w in zip(got[:-1], want[:-1]):
        if w is None:
            assert g is None
            continue
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("n, p, m", [
    (160, 10, 8), (1000, 10, 8), (294, 4, 3), (400, 3, 1),
    (1000, 42, 1),  # n x p(p+1)/2 = 903,000 is above the budget: one row per block
])
def test_every_block_gemm_stays_within_the_budget(monkeypatch, n, p, m):
    rng = np.random.default_rng(n + p)
    coords = rng.uniform(0, 2400, (n, 2))
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    Y = rng.normal(size=(n, m))
    blocks = []
    distances = kernels._distances

    def record_block(px, py, sx, sy):
        lo = int(np.flatnonzero(coords[:, 0] == px[0])[0])  # the coordinates are distinct
        blocks.append((lo, lo + len(px)))
        return distances(px, py, sx, sy)

    monkeypatch.setattr(kernels, "_distances", record_block)

    _fit_all(coords, X, Y, np.full(n, 5000.0), "gaussian")

    width = max(p * (p + 1) // 2, p * m)  # the wider operand, X'WX's triangle or X'WY
    budget = kernels._GEMM_BUDGET
    assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
    assert blocks[-1][1] == n
    rows = blocks[0][1]
    if n * width > budget:
        assert all(hi - lo == 1 for lo, hi in blocks)
    else:
        assert all((hi - lo) * n * width <= budget for lo, hi in blocks)
        assert rows == n or (rows + 1) * n * width > budget  # no smaller than needed


def test_operands_built_once_equal_those_built_per_call():
    coords, X, Y = _clustered_with_isolated()
    n = len(coords)
    bw = np.full(n, 400.0)
    dist = kernels.pairwise_distances(coords)
    operands = kernels.gwr_operands(X, Y)
    for columns in ([0, 1, 2], [2, 0], [1]):
        sub = operands.columns(columns)
        per_call = kernels.gwr_operands(X, Y[:, columns])
        for got, want in zip(sub, per_call):
            assert got.flags.c_contiguous and np.array_equal(got, want)
        for full, d in ((True, None), (False, dist)):
            got = kernels.gwr_fit_all(coords, X, Y[:, columns], bw, "bisquare", sub, d, full)
            want = kernels.gwr_fit_all(coords, X, Y[:, columns], bw, "bisquare", per_call, d,
                                       full)
            for g, w in zip(got, want):
                assert (g is None and w is None) or np.array_equal(g, w)


def _block_solve_kernel(coords, X, Y, bandwidths, kernel, dist=None, full=True):
    """`gwr_fit_all` as it was before the pivot rule, the ridge and the solve
    moved after the block loop: each row block checked, ridged and solved its
    own systems, the full fit formed the hat-row norms from an n-wide pass
    over the block's weights, and its fitted values were x_i . beta_i."""
    n, p = X.shape
    m = Y.shape[1]
    iu, ju, XX, XY = kernels.gwr_operands(X, Y)
    beta = np.zeros((n, p, m)) if full else None
    fitted = None if full else np.zeros((n, m))
    s_ii = np.zeros(n)
    s_norm2 = np.zeros(n) if full else None
    flags = np.zeros(n, dtype=np.int8)

    x, y = coords[:, 0], coords[:, 1]
    rows = kernels._block_rows(n, p, m)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        d = kernels._distances(x[lo:hi], y[lo:hi], x, y) if dist is None else dist[lo:hi]
        t = d / bandwidths[lo:hi, None]
        if kernel == "gaussian":
            W = np.exp(-0.5 * t * t)
        else:
            W = np.where(t < 1.0, (1.0 - t * t) ** 2, 0.0)
        upper = W @ XX
        A = np.empty((hi - lo, p, p))
        A[:, iu, ju] = upper
        A[:, ju, iu] = upper
        B = (W @ XY).reshape(-1, p, m)

        failed = _failed_pivots_before(A)
        blk_flags = flags[lo:hi]
        for r in np.flatnonzero(failed):
            lam = kernels.RIDGE_REL * float(np.trace(A[r])) / p
            ridged = A[r] + lam * np.eye(p)
            if chol(ridged) is None:
                blk_flags[r] = kernels.FLAG_SINGULAR
            else:
                A[r] = ridged
                blk_flags[r] = kernels.FLAG_RIDGED

        ok = np.flatnonzero(blk_flags != kernels.FLAG_SINGULAR)
        xi = X[lo:hi][ok]
        rows_ok = lo + ok
        if full:
            sol = np.linalg.solve(A[ok], np.concatenate([B[ok], xi[:, :, None]], axis=2))
            beta[rows_ok] = sol[:, :, :m]
            c = sol[:, :, m]
            sx = W[ok] * (c @ X.T)
            s_norm2[rows_ok] = np.einsum("ij,ij->i", sx, sx)
        else:
            c = np.linalg.solve(A[ok], xi[:, :, None])[:, :, 0]
            fitted[rows_ok] = np.einsum("ip,ipm->im", c, B[ok])
        s_ii[rows_ok] = np.einsum("ip,ip->i", xi, c)

    if full:
        fitted = np.einsum("ip,ipm->im", X, beta)
    return beta, fitted, s_ii, s_norm2, flags


def _clustered_with_zero_row():
    """`_clustered_with_isolated` whose last (isolated) location has a zero
    row: at short bandwidths its X'WX is 0, singular after the ridge, and the
    stacked Cholesky raises for the whole call."""
    coords, X, Y = _clustered_with_isolated()
    X[-1] = 0.0
    return coords, X, Y


# beta, the hat diagonal, the flags and every output of the search are
# bit-equal: each system is the same matrix with the same right-hand sides,
# solved by the same LAPACK LU. The full fit's fitted values (c . X'WY for
# x_i . beta_i) and hat-row norms (c' X'W^2X c for the n-wide pass) are
# rounded differently. c' X'W^2X c loses digits where c is large, on ridged
# systems: measured 5.0e-11 of the largest norm under bisquare at 150 m with
# n = 1000 (202 ridged rows). On the zero-row design a system stays singular,
# so the call returns its flags and no solution.
@pytest.mark.parametrize("kernel", ["gaussian", "bisquare"])
@pytest.mark.parametrize("design, n, bandwidth, full", [
    ("benchmark", 160, 900.0, True), ("benchmark", 160, 900.0, False),
    ("benchmark", 160, 300.0, True), ("benchmark", 160, 300.0, False),
    ("benchmark", 1000, 600.0, True), ("benchmark", 1000, 150.0, True),
    ("zero_row", None, 100.0, True), ("zero_row", None, 100.0, False),
    ("zero_row", None, 1500.0, True), ("zero_row", None, 1500.0, False),
])
def test_one_solve_kernel_matches_the_block_solve_kernel(kernel, design, n, bandwidth, full):
    coords, X, Y = _benchmark_shaped(n) if design == "benchmark" else _clustered_with_zero_row()
    n = len(coords)
    bw = np.full(n, bandwidth)
    dist = None if full else kernels.pairwise_distances(coords)

    beta, fitted, s_ii, s_norm2, flags = _fit_all(coords, X, Y, bw, kernel, dist, full)
    want = _block_solve_kernel(coords, X, Y, bw, kernel, dist, full)

    np.testing.assert_array_equal(flags, want[4])
    if design == "zero_row":
        assert kernels.FLAG_SINGULAR in flags and kernels.FLAG_RIDGED in flags
        assert beta is None and fitted is None and s_ii is None and s_norm2 is None
        return
    assert np.array_equal(s_ii, want[2])
    if not full:
        assert beta is None and s_norm2 is None
        assert np.array_equal(fitted, want[1])
        return
    assert np.array_equal(beta, want[0])
    assert np.max(np.abs(fitted - want[1])) <= 1e-12 * np.max(np.abs(want[1]))
    clean = np.all(flags == kernels.FLAG_OK)
    bound = 1e-12 if clean else 1e-9
    assert np.max(np.abs(s_norm2 - want[3])) <= bound * np.max(np.abs(want[3]))
