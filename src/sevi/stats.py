"""Rank statistics, PCA with varimax rotation, and the Kruskal-Wallis test.

Ranks, correlations, the correlation eigendecomposition that `pca` and
`scoring.alternative_indices` read, and the H statistic are computed here
with numpy; the chi-square tail of H is a closed-form sum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import ComputationError, ValidationError

FLAT_RTOL = 1e-9  # a segment mean of k equal values is off by about k 2^-53, relative


def is_flat(column: np.ndarray) -> bool:
    """Whether `column` spans no more than FLAT_RTOL of its magnitude:
    max - min <= FLAT_RTOL * max(|min|, |max|). An all-zero column is flat."""
    mn, mx = float(column.min()), float(column.max())
    return mx - mn <= FLAT_RTOL * max(abs(mn), abs(mx))


# ---------------------------------------------------------------------------
# ranks and correlation
# ---------------------------------------------------------------------------

def rankdata(values) -> np.ndarray:
    """Average ranks (1-based); tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(np.asarray(values, dtype=float),
                                   return_inverse=True, return_counts=True)
    # a run of t tied values ending at rank r shares the rank r - (t - 1) / 2
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise ComputationError("correlation undefined for a constant vector")
    return float(xc @ yc) / (sx * sy)


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties, over x and y
    of one length (both callers pass columns of the same segments)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 3:
        raise ValidationError(f"need at least 3 observations, got {len(x)}")
    return _pearson(rankdata(x), rankdata(y))


@dataclass
class CorrelationMatrix:
    labels: list[str]
    values: np.ndarray  # (k, k), symmetric, unit diagonal


def spearman_matrix(matrix: np.ndarray, labels: list[str]) -> CorrelationMatrix:
    """Pairwise `spearman` of the columns of `matrix`, one label per column."""
    matrix = np.asarray(matrix, dtype=float)
    k = matrix.shape[1]
    out = np.eye(k)
    for a in range(k):
        for b in range(a + 1, k):
            rho = spearman(matrix[:, a], matrix[:, b])
            out[a, b] = rho
            out[b, a] = rho
    return CorrelationMatrix(labels=list(labels), values=out)


# ---------------------------------------------------------------------------
# PCA and varimax
# ---------------------------------------------------------------------------

@dataclass
class VarimaxResult:
    loadings: np.ndarray     # rotated loadings
    sweeps: int
    converged: bool


@dataclass
class PcaModel:
    loadings: np.ndarray                 # (k, n_components) eigenvector loadings
    explained_variance_ratio: np.ndarray  # all k ratios, descending
    rotated_loadings: np.ndarray         # varimax-rotated retained loadings
    rotation_converged: bool
    rotation_sweeps: int


def varimax(loadings: np.ndarray, tol: float = 1e-6, max_iter: int = 100) -> VarimaxResult:
    """Raw varimax rotation by cyclic pairwise planar rotations.

    Each pair (a, b) is rotated by the angle maximizing the varimax
    criterion in that plane: phi = atan2(num, den) / 4 with
    num = 2 (p * sum(uv) - sum(u) sum(v)),
    den = p * sum(u^2 - v^2) - (sum(u)^2 - sum(v)^2),
    u = La^2 - Lb^2, v = 2 La Lb. Sweeps stop when the largest angle in a
    sweep drops below `tol`; non-convergence warns and returns the last
    iterate. Orthogonality preserves row communalities. `loadings` is
    (p, k) with k >= 2 factors: `pca` rotates only two or more components.
    """
    A = np.array(loadings, dtype=float)
    p, k = A.shape

    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        max_angle = 0.0
        for a in range(k - 1):
            for b in range(a + 1, k):
                u = A[:, a] ** 2 - A[:, b] ** 2
                v = 2.0 * A[:, a] * A[:, b]
                num = 2.0 * (p * float(u @ v) - u.sum() * v.sum())
                den = p * float(u @ u - v @ v) - (u.sum() ** 2 - v.sum() ** 2)
                phi = 0.25 * math.atan2(num, den)
                if abs(phi) <= 1e-300:
                    continue
                max_angle = max(max_angle, abs(phi))
                c, s = math.cos(phi), math.sin(phi)
                col_a = A[:, a].copy()
                A[:, a] = c * col_a + s * A[:, b]
                A[:, b] = -s * col_a + c * A[:, b]
        if max_angle < tol:
            converged = True
            break
    if not converged:
        warnings.warn(f"varimax did not converge within {max_iter} sweeps "
                      f"(last max angle {max_angle:.3e}); returning last iterate")
    return VarimaxResult(loadings=A, sweeps=sweeps, converged=converged)


def correlation_components(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The z-scores of the columns of `matrix` (n, k), the eigenvalues of
    their correlation matrix in descending order, clipped at 0, and its
    eigenvectors as columns in that order, each signed so that its
    largest-magnitude entry is positive. Every column varies, and n >= 2."""
    n, k = matrix.shape
    z = (matrix - matrix.mean(axis=0)) / matrix.std(axis=0, ddof=1)
    corr = (z.T @ z) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    for j in range(k):
        peak = np.argmax(np.abs(eigvecs[:, j]))
        if eigvecs[peak, j] < 0:
            eigvecs[:, j] = -eigvecs[:, j]
    return z, eigvals, eigvecs


def pca(matrix: np.ndarray, n_components: int = 4) -> PcaModel:
    """Correlation-matrix PCA with a deterministic sign convention.

    The components are those of `correlation_components`; the retained ones
    are varimax-rotated. `n_components` is in [1, k], as the config checks
    it for the nine indicators (`pca_components`). Every column varies: the
    pipeline reads the indicator columns that `scoring.align_and_normalize`
    checked.
    """
    matrix = np.asarray(matrix, dtype=float)
    if len(matrix) < 10:
        raise ValidationError(f"PCA needs at least 10 rows, got {len(matrix)}")
    _, eigvals, eigvecs = correlation_components(matrix)

    ratios = eigvals / eigvals.sum()
    retained = eigvecs[:, :n_components]
    if n_components >= 2:
        rot = varimax(retained)
        rotated, converged, sweeps = rot.loadings, rot.converged, rot.sweeps
    else:
        rotated, converged, sweeps = retained.copy(), True, 0
    return PcaModel(loadings=retained, explained_variance_ratio=ratios,
                    rotated_loadings=rotated, rotation_converged=converged,
                    rotation_sweeps=sweeps)


# ---------------------------------------------------------------------------
# chi-square survival
# ---------------------------------------------------------------------------

def chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function P(X >= x) with `dof` degrees of freedom.

    With h = x / 2, an even `dof` gives sum_{i < dof/2} e^-h h^i / i!, and an
    odd one gives erfc(sqrt(h)) + sum_{i=1}^{(dof-1)/2} e^-h h^(i-1/2) / G(i+1/2).
    Each term is formed in log space, so none underflows before the sum does.
    `x` is >= 0, as the Kruskal-Wallis H, a sum of squares, is.
    """
    if dof < 1 or dof != int(dof):
        raise ValidationError(f"degrees of freedom must be an integer >= 1, got {dof}")
    dof = int(dof)
    if x == 0:
        return 1.0
    h = 0.5 * x
    log_h = math.log(h)
    if dof % 2 == 0:
        terms = [math.exp(i * log_h - h - math.lgamma(i + 1)) for i in range(dof // 2)]
    else:
        terms = [math.erfc(math.sqrt(h))]
        terms += [math.exp((i - 0.5) * log_h - h - math.lgamma(i + 0.5))
                  for i in range(1, (dof - 1) // 2 + 1)]
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Kruskal-Wallis
# ---------------------------------------------------------------------------

@dataclass
class KwResult:
    h: float
    dof: int
    p_value: float
    tie_correction: float


def kruskal_wallis(groups: list) -> KwResult:
    """Rank-based H test across two or more groups.

    Ties share average ranks and H is divided by the tie-correction factor
    1 - sum(t^3 - t) / (N^3 - N). With all pooled values identical the
    statistic is defined as 0 with p = 1. `groups` are two or more non-empty
    groups: the validation stage passes the three tiers of `tertile_split`.
    """
    arrays = [np.asarray(g, dtype=float) for g in groups]
    pooled = np.concatenate(arrays)
    n_total = len(pooled)
    if n_total < 5:
        raise ValidationError(f"need at least 5 observations in total, got {n_total}")

    dof = len(arrays) - 1
    ranks = rankdata(pooled)

    # tie correction over runs of equal pooled values
    t = np.unique(pooled, return_counts=True)[1].astype(float)
    correction = 1.0 - float(np.sum(t ** 3 - t)) / (n_total ** 3 - n_total)
    if correction == 0.0:  # every value identical
        return KwResult(h=0.0, dof=dof, p_value=1.0, tie_correction=0.0)

    # 12 / (N (N + 1)) sum n_j (mean rank_j - (N + 1) / 2)^2: every term is >= 0
    h = 0.0
    offset = 0
    for arr in arrays:
        r = ranks[offset:offset + len(arr)]
        h += len(arr) * (r.sum() / len(arr) - 0.5 * (n_total + 1)) ** 2
        offset += len(arr)
    h = 12.0 / (n_total * (n_total + 1)) * h / correction
    return KwResult(h=h, dof=dof, p_value=chi2_sf(h, dof), tie_correction=correction)


# ---------------------------------------------------------------------------
# tertiles
# ---------------------------------------------------------------------------

TERTILE_LABELS = ("low", "mid", "high")


def sorted_quantiles(ordered, qs) -> list[float]:
    """Quantiles `qs` of the ascending 1-D array `ordered`, bit for bit as
    numpy's default "linear" method: at the index (n - 1) q, the lerp
    a + (b - a) g, or b - (b - a) (1 - g) when g >= 0.5."""
    last = len(ordered) - 1
    out = []
    for q in qs:
        i = min(math.floor(last * q), last)
        a, b = float(ordered[i]), float(ordered[min(i + 1, last)])
        g = last * q - i
        out.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))
    return out


def tertile_split(values) -> list[str]:
    """Tier labels cut at c1 and c2, the largest values at or below the
    interpolated 1/3 and 2/3 quantiles: v <= c1 "low", v <= c2 "mid", else
    "high". Should a tier stay empty, c2 is clamped into [u[1], u[-2]] over
    the sorted distinct values u and c1 to below c2. Tied values share a
    label, and three or more distinct values give three non-empty tiers;
    fewer raise. The validation stage passes 3 or more values.
    """
    values = np.asarray(values, dtype=float)
    ordered = np.sort(values)
    # a bare np.unique would import numpy.ma (numpy 2.4 asks np.ma.is_masked)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if len(distinct) < 3:
        raise ComputationError(
            f"tertile split needs at least 3 distinct values, got {len(distinct)}")
    q1, q2 = sorted_quantiles(ordered, (1.0 / 3.0, 2.0 / 3.0))
    c1, c2 = distinct[np.searchsorted(distinct, [q1, q2], side="right") - 1]
    c2 = min(max(c2, distinct[1]), distinct[-2])
    c1 = min(c1, distinct[np.searchsorted(distinct, c2) - 1])
    tier = (values > c1).astype(int) + (values > c2)
    return [TERTILE_LABELS[t] for t in tier.tolist()]
