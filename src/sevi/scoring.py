"""Directional alignment, min-max normalization, entropy weighting,
block aggregation, TOPSIS closeness, and the two alternative composites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .indicators import BLOCKS, INDICATOR_NAMES

_ENTROPY_SNAP = 1e-12  # divergences below this are indistinguishable from zero


@dataclass
class ColumnMeta:
    name: str
    aligned: bool          # stored values are 1 - raw for cost-direction columns
    raw_min: float         # min/max of the benefit-aligned raw column
    raw_max: float
    constant: bool


@dataclass
class NormalizedMatrix:
    values: np.ndarray                      # (n, 9) in [0, 1]
    columns: list[ColumnMeta]


def align_and_normalize(raw: np.ndarray, segment_ids: list[str] | None = None) -> NormalizedMatrix:
    """Benefit-align the closure column (1 - cr) and min-max scale every
    column to [0, 1]; constant columns map to 0.5 everywhere."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != len(INDICATOR_NAMES):
        raise ValidationError(
            f"expected an (n, {len(INDICATOR_NAMES)}) indicator matrix, got {raw.shape}"
        )
    n = raw.shape[0]
    if n < 2:
        raise ValidationError(f"normalization needs at least 2 segments, got {n}")
    if segment_ids is None:
        segment_ids = [str(i) for i in range(n)]

    bad = np.argwhere(~np.isfinite(raw))
    if len(bad):
        i, j = bad[0]
        raise ValidationError(
            f"non-finite indicator value: segment {segment_ids[i]!r}, "
            f"column {INDICATOR_NAMES[j]!r}"
        )

    aligned = raw.copy()
    cr_col = INDICATOR_NAMES.index("cr")
    aligned[:, cr_col] = 1.0 - aligned[:, cr_col]

    values = np.empty_like(aligned)
    columns = []
    for j, name in enumerate(INDICATOR_NAMES):
        col = aligned[:, j]
        mn, mx = float(col.min()), float(col.max())
        constant = mx == mn
        if constant:
            values[:, j] = 0.5
        else:
            values[:, j] = (col - mn) / (mx - mn)
        columns.append(ColumnMeta(name=name, aligned=j == cr_col,
                                  raw_min=mn, raw_max=mx, constant=constant))
    return NormalizedMatrix(values=values, columns=columns)


def entropy_weights(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy-divergence weights and column entropies of one normalized block.

    p_ij = r_ij / sum_i r_ij, e_j = -(1/ln n) sum_i p ln p (0 ln 0 := 0),
    w_j = (1 - e_j) / sum_k (1 - e_k). Columns whose divergence is below
    1e-12 (constant or all-zero columns) get weight 0; if every column is
    degenerate the weights are uniform.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2:
        raise ValidationError(f"expected a 2-D block, got shape {block.shape}")
    n, k = block.shape
    if n < 2:
        raise ValidationError(f"entropy weighting needs at least 2 rows, got {n}")
    if np.any(block < 0):
        raise ValidationError("entropy weighting expects nonnegative normalized values")

    log_n = np.log(n)
    divergence = np.empty(k)
    entropies = np.empty(k)
    for j in range(k):
        col = block[:, j]
        total = col.sum()
        if total <= 0:
            entropies[j] = 1.0  # no information
            divergence[j] = 0.0
            continue
        p = col / total
        nz = p > 0
        e = -(p[nz] * np.log(p[nz])).sum() / log_n
        entropies[j] = e
        d = 1.0 - e
        divergence[j] = d if d > _ENTROPY_SNAP else 0.0

    total_div = divergence.sum()
    if total_div == 0.0:
        weights = np.full(k, 1.0 / k)
    else:
        weights = divergence / total_div
    return weights, entropies


def compute_weight_matrix(nm: NormalizedMatrix) -> tuple[dict[str, np.ndarray],
                                                         dict[str, np.ndarray]]:
    """Each block's entropy weights and its column entropies, two dicts keyed
    by `BLOCKS` in its order; each block's weights sum to 1."""
    weights, entropies = {}, {}
    for name, (lo, hi) in BLOCKS.items():
        weights[name], entropies[name] = entropy_weights(nm.values[:, lo:hi])
    return weights, entropies


def block_aggregate(values: np.ndarray, weights: dict[str, np.ndarray]) -> np.ndarray:
    """Apply the block-diagonal weights, keyed by `BLOCKS`: (n, 9) values ->
    one dimension score column per block."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    dims = np.empty((values.shape[0], len(BLOCKS)))
    for d, (name, (lo, hi)) in enumerate(BLOCKS.items()):
        w = weights[name]
        if len(w) != hi - lo:
            raise ValidationError(f"block {name!r} expects {hi - lo} weights, got {len(w)}")
        dims[:, d] = values[:, lo:hi] @ w
    return dims


def topsis(dims: np.ndarray) -> np.ndarray:
    """Closeness to the ideal over benefit-oriented dimension scores: the
    SEVI of each row, in [0, 1]."""
    dims = np.asarray(dims, dtype=float)
    if dims.ndim != 2:
        raise ValidationError(f"expected a 2-D dimension matrix, got shape {dims.shape}")
    n = dims.shape[0]
    if n < 2:
        raise ValidationError(f"TOPSIS needs at least 2 segments, got {n}")

    d_plus = np.linalg.norm(dims - dims.max(axis=0), axis=1)
    d_minus = np.linalg.norm(dims - dims.min(axis=0), axis=1)
    denom = d_plus + d_minus
    return np.where(denom == 0.0, 0.5, d_minus / np.where(denom == 0.0, 1.0, denom))


def first_component_scores(values: np.ndarray) -> np.ndarray:
    """First-principal-component scores of a column-standardized matrix.

    Constant columns carry no variance and are excluded; with fewer than two
    usable columns the lone column (or a constant 0.5 vector) is returned.
    """
    values = np.asarray(values, dtype=float)
    std = values.std(axis=0)
    usable = std > 0
    if usable.sum() == 0:
        return np.full(values.shape[0], 0.5)
    z = (values[:, usable] - values[:, usable].mean(axis=0)) / std[usable]
    if usable.sum() == 1:
        return z[:, 0]
    corr = (z.T @ z) / (z.shape[0] - 1) if z.shape[0] > 1 else np.eye(z.shape[1])
    eigvals, eigvecs = np.linalg.eigh(corr)
    v1 = eigvecs[:, -1]
    return z @ v1


def alternative_indices(nm: NormalizedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Equal-weight TOPSIS and the rescaled first-component composite.

    The PCA variant is sign-fixed to correlate positively with the
    equal-weight index, then min-max rescaled to [0, 1].
    """
    eq = topsis(block_aggregate(nm.values, {name: np.full(hi - lo, 1.0 / (hi - lo))
                                            for name, (lo, hi) in BLOCKS.items()}))

    scores = first_component_scores(nm.values)
    if scores.std() > 0 and eq.std() > 0:
        if np.corrcoef(scores, eq)[0, 1] < 0:
            scores = -scores
    rng = scores.max() - scores.min()
    if rng == 0:
        pca_index = np.full(len(scores), 0.5)
    else:
        pca_index = (scores - scores.min()) / rng
    return eq, pca_index
