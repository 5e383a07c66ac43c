"""Directional alignment, min-max normalization, entropy weighting,
block aggregation, TOPSIS closeness, and the two alternative composites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .indicators import BLOCKS, INDICATOR_INPUTS, INDICATOR_NAMES
from .stats import FLAT_RTOL, is_flat

_ENTROPY_SNAP = 1e-12  # divergences below this are indistinguishable from zero


@dataclass
class ColumnMeta:
    name: str
    aligned: bool          # stored values are 1 - raw for cost-direction columns
    raw_min: float         # min/max of the benefit-aligned raw column
    raw_max: float


@dataclass
class NormalizedMatrix:
    values: np.ndarray                      # (n, 9) in [0, 1]
    columns: list[ColumnMeta]


def align_and_normalize(raw: np.ndarray, segment_ids: list[str] | None = None) -> NormalizedMatrix:
    """Benefit-align the closure column (1 - cr) and min-max scale every
    column to [0, 1]. A flat column (`is_flat`, after the alignment) carries
    no information to weight: the first one raises a ValidationError naming
    the indicator, its raw value and the input columns it is computed from."""
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
        if is_flat(col):
            raise ValidationError(
                f"indicator {name!r} is {float(raw[0, j])!r} at all {n} segments (to a "
                f"relative {FLAT_RTOL:g}), so it carries no information to weight; it is "
                f"computed from {', '.join(INDICATOR_INPUTS[name])}")
        mn, mx = float(col.min()), float(col.max())
        values[:, j] = (col - mn) / (mx - mn)
        columns.append(ColumnMeta(name=name, aligned=j == cr_col, raw_min=mn, raw_max=mx))
    return NormalizedMatrix(values=values, columns=columns)


def entropy_weights(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy-divergence weights and column entropies of one normalized block.

    p_ij = r_ij / sum_i r_ij, e_j = -(1/ln n) sum_i p ln p (0 ln 0 := 0),
    w_j = (1 - e_j) / sum_k (1 - e_k). Each column is a normalized one, with
    maximum 1. A column whose divergence is below 1e-12 gets weight 0; if
    every one does, the weights are uniform.
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
        p = col / col.sum()
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

    The matrix is a normalized one: at least two rows, and every column
    varies, as `align_and_normalize` checks.
    """
    values = np.asarray(values, dtype=float)
    z = (values - values.mean(axis=0)) / values.std(axis=0)
    corr = (z.T @ z) / (z.shape[0] - 1)
    eigvecs = np.linalg.eigh(corr)[1]  # ascending eigenvalues: the first component is last
    return z @ eigvecs[:, -1]


def alternative_indices(nm: NormalizedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Equal-weight TOPSIS and the rescaled first-component composite.

    The PCA variant is sign-fixed to correlate positively with the
    equal-weight index where that varies, then min-max rescaled to [0, 1];
    the first component's scores vary, with sample variance lambda_1 >= 1.
    """
    eq = topsis(block_aggregate(nm.values, {name: np.full(hi - lo, 1.0 / (hi - lo))
                                            for name, (lo, hi) in BLOCKS.items()}))

    scores = first_component_scores(nm.values)
    if eq.std() > 0 and np.corrcoef(scores, eq)[0, 1] < 0:
        scores = -scores
    return eq, (scores - scores.min()) / (scores.max() - scores.min())
