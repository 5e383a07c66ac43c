"""Hot numeric kernels: spillover field accumulation and local GWR fits.

`spill_field` evaluates the gated decay sum over the id-sorted anchors in
chunks of points. `gwr_fit_all` fits every location; its row blocks only
form the local systems. Per block, one GEMM forms all local X'WX and one
forms X'WY for every response column, so the responses of a design share
one pass. X'WX is symmetric, so its GEMM runs against the p(p+1)/2
upper-triangle products X[:, i] * X[:, j] (i <= j) only, and its result is
mirrored into the full matrices. These product operands depend on the
design alone; `gwr_operands` builds them once, and a caller that fits one
design many times (the bandwidth search) passes them to every call. The
full fit adds one GEMM for X'W^2X, which gives the hat-row norms; the AICc
search reads neither them nor the coefficients and skips it.

After the loop, one path serves both modes: `_failed_pivots`, a stacked
LAPACK Cholesky, finds the systems whose smallest pivot falls below
`_CHOL_TOL` of their largest diagonal, and one more call tests them all
ridged. If a system stays singular after its ridge, the call returns the
flags alone; otherwise one `np.linalg.solve` runs over all n systems in
place. `_distances` measures the distances of both kernels.

Row blocks are sized by GEMM work, not by weights: a block of `rows`
locations multiplies its (rows, n) weights by an (n, width) operand, and
rows x n x width, for the wider of the two operands, stays within
`_GEMM_BUDGET` multiply-adds (one row at least), so OpenBLAS runs every
GEMM on the calling thread.
"""

from typing import NamedTuple

import numpy as np

# GWR location flags
FLAG_OK = 0
FLAG_RIDGED = 1
FLAG_SINGULAR = 2

RIDGE_REL = 1e-8       # ridge = RIDGE_REL * trace(A) / p on near-singular systems
_CHOL_TOL = 1e-12      # pivot threshold relative to max initial diagonal

_SPILL_CHUNK = 256     # points per distance block; bounds memory at chunk x anchors
# multiply-adds (rows x n x width) per GWR block GEMM. OpenBLAS 0.3.31 runs a
# dgemm against C-ordered operands on the calling thread up to 1,000,000
# multiply-adds and splits it across threads above (measured: one thread at
# 1,000,000, two at 1,008,000). On a 2-CPU host those threads saved no wall
# time on either benchmark city, while they raised the CPU time of a small
# city `run` by a third; they also made the last bits of a fit depend on the
# thread count.
_GEMM_BUDGET = 900_000


# ---------------------------------------------------------------------------
# spillover field
# ---------------------------------------------------------------------------

def spill_field(px, py, ax, ay, sigma, d_max, decay):
    """Distance-decayed, threshold-gated anchor sum at every point; `decay`
    is "gaussian", "exponential" or "linear".

    Anchor arrays must already be in the canonical (id-sorted) order; each
    point's terms are then summed in a deterministic order.
    """
    n = px.shape[0]
    out = np.zeros(n)
    for lo in range(0, n, _SPILL_CHUNK):
        hi = min(lo + _SPILL_CHUNK, n)
        d = _distances(px[lo:hi], py[lo:hi], ax, ay)
        inside = d <= d_max
        if decay == "gaussian":
            vals = np.exp(-(d * d) / (2.0 * sigma[None, :] ** 2))
        elif decay == "exponential":
            vals = np.exp(-d / sigma[None, :])
        else:
            vals = np.maximum(0.0, 1.0 - d / d_max)
        out[lo:hi] = np.where(inside, vals, 0.0).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# GWR local weighted least squares
# ---------------------------------------------------------------------------

def _failed_pivots(A):
    """Mask of the stacked systems A (s, p, p) that fail the pivot rule:
    LAPACK finds the system not positive definite, or its smallest squared
    pivot is at most `_CHOL_TOL` times its largest diagonal. LAPACK raises
    for the whole stack, so then each system is tested alone."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.ones(1, dtype=bool)
        return np.concatenate([_failed_pivots(A[r:r + 1]) for r in range(len(A))])
    dmax = np.max(np.diagonal(A, axis1=1, axis2=2), axis=1)
    dmin_l = np.min(np.diagonal(L, axis1=1, axis2=2), axis=1)
    return dmin_l ** 2 <= _CHOL_TOL * dmax


def _apply_pivot_rule(A):
    """Flags (0 clean, 1 ridged, 2 singular) of the stacked systems A under
    the pivot rule of `_failed_pivots`. A failing system gets a ridge of
    `RIDGE_REL` times its mean diagonal and, if that passes, is replaced by
    it in A."""
    p = A.shape[1]
    flags = np.zeros(len(A), dtype=np.int8)
    failed = np.flatnonzero(_failed_pivots(A))
    lam = RIDGE_REL * np.trace(A[failed], axis1=1, axis2=2) / p
    ridged = A[failed] + lam[:, None, None] * np.eye(p)
    singular = _failed_pivots(ridged)
    flags[failed] = np.where(singular, FLAG_SINGULAR, FLAG_RIDGED)
    A[failed[~singular]] = ridged[~singular]
    return flags


def _distances(px, py, sx, sy):
    """Euclidean distances (len(px), len(sx)) from each point (px, py) to
    each site (sx, sy)."""
    return np.hypot(sx[None, :] - px[:, None], sy[None, :] - py[:, None])


def pairwise_distances(coords):
    """(n, n) Euclidean distances between the rows of `coords`; its row
    blocks are bit-equal to those `gwr_fit_all` measures without it."""
    x, y = coords[:, 0], coords[:, 1]
    return _distances(x, y, x, y)


class GwrOperands(NamedTuple):
    """The product operands of one design's block GEMMs (`gwr_operands`)."""

    iu: np.ndarray   # row and column index of each upper-triangle entry of X'WX
    ju: np.ndarray
    XX: np.ndarray   # (n, p(p+1)/2) C-contiguous, column k is X[:, iu[k]] * X[:, ju[k]]
    XY: np.ndarray   # (n, p m), entry [r, i m + k] is X[r, i] * Y[r, k]

    def columns(self, columns) -> "GwrOperands":
        """The operands of the response `columns` only: XX is shared, XY is a
        copy of the columns' products."""
        n, p = len(self.XX), int(self.iu[-1]) + 1  # triu_indices(p) ends at p - 1
        XY = self.XY.reshape(n, p, -1)[:, :, columns].reshape(n, -1)
        return self._replace(XY=np.ascontiguousarray(XY))


def gwr_operands(X, Y) -> GwrOperands:
    """The product operands of `gwr_fit_all` for predictors `X` (n, p) and
    responses `Y` (n, m), built once per design."""
    n, p = X.shape
    iu, ju = np.triu_indices(p)
    # the fancy-indexed product comes out Fortran-ordered, and OpenBLAS threaded
    # a GEMM against that layout at 897,600 multiply-adds, where it runs one
    # against a C-ordered operand on the calling thread
    XX = np.ascontiguousarray(X[:, iu] * X[:, ju])
    XY = (X[:, :, None] * Y[:, None, :]).reshape(n, p * Y.shape[1])
    return GwrOperands(iu, ju, XX, XY)


def _block_rows(n, p, m):
    """Locations per row block for n locations, p predictors and m responses:
    the block's GEMMs, (rows, n) weights against the (n, p(p+1)/2) and
    (n, p m) operands, stay within `_GEMM_BUDGET` multiply-adds, or the block
    is one row."""
    width = max(p * (p + 1) // 2, p * m)
    return max(1, _GEMM_BUDGET // (n * width))


def gwr_fit_all(coords, X, Y, bandwidths, kernel, operands, dist=None, full=True):
    """Local WLS at every location of the (n, 2) `coords` for the m response
    columns of `Y` (n, m), which share X, under the "gaussian" or "bisquare"
    `kernel`. `operands` is `gwr_operands(X, Y)`, which the caller builds
    once per design and passes to every call. `dist` is
    `pairwise_distances(coords)` when the caller holds it; otherwise each row
    block's distances are computed in the block.

    Returns coefficients (n, p, m), fitted values (n, m), the hat diagonal
    and hat-row squared norms and a per-location flag (0 clean, 1 ridged,
    2 singular); the last three depend on X and the weights only, so they
    are shared by all responses. If any location is singular, only the flags
    are returned, with None for the other four outputs. With
    c = (X'WX)^-1 x_i, the hat diagonal is x_i . c, the fitted values are
    c . X'WY (X'WX is symmetric) and the hat-row norm is c' X'W^2X c, so S is
    never materialized. With `full=False` (the AICc search) X'W^2X, the
    coefficients and the hat-row norms are not formed; they come back as None.
    """
    n, p = X.shape
    m = Y.shape[1]
    iu, ju, XX, XY = operands
    A = np.empty((n, p, p))
    B = np.empty((n, p, m))
    M = np.empty((n, p, p)) if full else None

    x, y = coords[:, 0], coords[:, 1]
    rows = _block_rows(n, p, m)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        d = _distances(x[lo:hi], y[lo:hi], x, y) if dist is None else dist[lo:hi]
        t = d / bandwidths[lo:hi, None]
        if kernel == "gaussian":
            W = np.exp(-0.5 * t * t)
        else:
            W = np.where(t < 1.0, (1.0 - t * t) ** 2, 0.0)
        upper = W @ XX
        A[lo:hi, iu, ju] = upper
        A[lo:hi, ju, iu] = upper
        B[lo:hi] = (W @ XY).reshape(-1, p, m)
        if full:
            upper = (W * W) @ XX
            M[lo:hi, iu, ju] = upper
            M[lo:hi, ju, iu] = upper

    flags = _apply_pivot_rule(A)
    if np.any(flags == FLAG_SINGULAR):
        return None, None, None, None, flags
    rhs = X[:, :, None]
    if full:
        # one solve for all right-hand sides: X'WY -> beta_i, x_i -> c
        rhs = np.concatenate([B, rhs], axis=2)
    sol = np.linalg.solve(A, rhs)
    c = sol[:, :, -1]
    s_ii = np.einsum("ip,ip->i", X, c)  # self-weight is kernel(0) == 1
    fitted = np.einsum("ip,ipm->im", c, B)
    if not full:
        return None, fitted, s_ii, None, flags
    return sol[:, :, :m], fitted, s_ii, np.einsum("ip,ipq,iq->i", c, M, c), flags
