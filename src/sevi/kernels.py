"""Hot numeric kernels: spillover field accumulation and local GWR fits.

`spill_field` evaluates the gated decay sum over the id-sorted anchors in
chunks of points. `gwr_fit_all` solves one local weighted least-squares
system per location with a LAPACK Cholesky factorization; a system whose
smallest pivot falls below `_CHOL_TOL` of its largest diagonal is re-solved
with a small ridge and flagged.
"""

import numpy as np
from scipy.linalg import cho_solve

DECAY_GAUSSIAN = 0
DECAY_EXPONENTIAL = 1
DECAY_LINEAR = 2
DECAY_CODES = {"gaussian": DECAY_GAUSSIAN, "exponential": DECAY_EXPONENTIAL, "linear": DECAY_LINEAR}

KERNEL_GAUSSIAN = 0
KERNEL_BISQUARE = 1
KERNEL_CODES = {"gaussian": KERNEL_GAUSSIAN, "bisquare": KERNEL_BISQUARE}

# GWR location flags
FLAG_OK = 0
FLAG_RIDGED = 1
FLAG_SINGULAR = 2

RIDGE_REL = 1e-8       # ridge = RIDGE_REL * trace(A) / p on near-singular systems
_CHOL_TOL = 1e-12      # pivot threshold relative to max initial diagonal

_SPILL_CHUNK = 256     # points per distance block; bounds memory at chunk x anchors


# ---------------------------------------------------------------------------
# spillover field
# ---------------------------------------------------------------------------

def spill_field(px, py, ax, ay, sigma, d_max, decay_code):
    """Distance-decayed, threshold-gated anchor sum at every point.

    Anchor arrays must already be in the canonical (id-sorted) order; each
    point's terms are then summed in a deterministic order.
    """
    n = px.shape[0]
    out = np.zeros(n)
    for lo in range(0, n, _SPILL_CHUNK):
        hi = min(lo + _SPILL_CHUNK, n)
        d = np.hypot(ax[None, :] - px[lo:hi, None], ay[None, :] - py[lo:hi, None])
        inside = d <= d_max
        if decay_code == DECAY_GAUSSIAN:
            vals = np.exp(-(d * d) / (2.0 * sigma[None, :] ** 2))
        elif decay_code == DECAY_EXPONENTIAL:
            vals = np.exp(-d / sigma[None, :])
        else:
            vals = np.maximum(0.0, 1.0 - d / d_max)
        out[lo:hi] = np.where(inside, vals, 0.0).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# GWR local weighted least squares
# ---------------------------------------------------------------------------

def _chol(A):
    """Lower Cholesky factor of A, or None when A fails the pivot rule: its
    largest diagonal is not positive, LAPACK finds it not positive definite,
    or a squared pivot is at most `_CHOL_TOL` times the largest diagonal."""
    dmax = float(np.max(np.diag(A)))
    if dmax <= 0.0:
        return None
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    if float(np.min(np.diag(L))) ** 2 <= _CHOL_TOL * dmax:
        return None
    return L


def gwr_fit_all(cx, cy, X, y, bandwidths, kernel_code):
    """Local WLS at every location: coefficients, fitted values, hat diagonal
    and hat-row squared norms (streamed, S never materialized), plus a
    per-location flag (0 clean, 1 ridged, 2 singular)."""
    n, p = X.shape
    beta = np.zeros((n, p))
    s_ii = np.zeros(n)
    s_norm2 = np.zeros(n)
    fitted = np.zeros(n)
    flags = np.zeros(n, dtype=np.int8)

    for i in range(n):
        t = np.hypot(cx - cx[i], cy - cy[i]) / bandwidths[i]
        if kernel_code == KERNEL_GAUSSIAN:
            w = np.exp(-0.5 * t * t)
        else:
            w = np.where(t < 1.0, (1.0 - t * t) ** 2, 0.0)

        Xw = X * w[:, None]
        A = X.T @ Xw

        L = _chol(A)
        if L is None:
            lam = RIDGE_REL * float(np.trace(A)) / p
            L = _chol(A + lam * np.eye(p))
            if L is None:
                flags[i] = FLAG_SINGULAR
                continue
            flags[i] = FLAG_RIDGED

        # one solve for both right-hand sides: X'Wy -> beta_i, x_i -> c = A^-1 x_i
        sol = cho_solve((L, True), np.column_stack([Xw.T @ y, X[i]]), check_finite=False)
        bi, c = sol[:, 0], sol[:, 1]
        beta[i] = bi
        fitted[i] = X[i] @ bi
        s_ii[i] = X[i] @ c  # self-weight is kernel(0) == 1
        sx = w * (X @ c)
        s_norm2[i] = float(sx @ sx)

    return beta, fitted, s_ii, s_norm2, flags
