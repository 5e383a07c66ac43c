"""Scalar references that the tests hold the vectorized kernels to.

`decay_value` and `field_at` give the spillover field one term and one
point at a time, as `spillover.field_all` must; `kernel_weight` gives one
GWR weight, as `kernels.gwr_fit_all`'s row blocks must; `chol` applies the
pivot rule to one local system, as `kernels._failed_pivots` does to a
stack. No command calls them, so they live with the tests.
"""

from __future__ import annotations

import math

import numpy as np

from sevi.exceptions import ValidationError
from sevi.kernels import _CHOL_TOL
from sevi.geodata import MallAnchor
from sevi.spillover import SigmaTable, SpilloverConfig, _sorted_anchor_arrays


def decay_value(d: float, sigma: float, config: SpilloverConfig) -> float:
    """Single decay term in [0, 1], gated to zero beyond the threshold."""
    if d < 0:
        raise ValidationError(f"distance must be >= 0, got {d}")
    if sigma <= 0:
        raise ValidationError(f"sigma must be > 0, got {sigma}")
    if d > config.threshold_m:
        return 0.0
    if config.decay == "gaussian":
        return math.exp(-(d * d) / (2.0 * sigma * sigma))
    if config.decay == "exponential":
        return math.exp(-d / sigma)
    return max(0.0, 1.0 - d / config.threshold_m)


def field_at(x: float, y: float, anchors: list[MallAnchor], sigma_table: SigmaTable,
             config: SpilloverConfig) -> float:
    """Spillover value at the point (x, y): a scalar scan of the id-sorted anchors,
    gated at the threshold and summed in ascending anchor-id order. The
    reference that tests hold `field_all` to."""
    ax, ay, sig = _sorted_anchor_arrays(anchors, sigma_table)
    acc = 0.0
    for j in range(len(ax)):
        d = math.hypot(ax[j] - x, ay[j] - y)
        if d <= config.threshold_m:
            acc += decay_value(d, sig[j], config)
    return acc


def kernel_weight(d: float, bandwidth: float, kernel: str = "gaussian") -> float:
    """Spatial weight in [0, 1] for a neighbor at distance d."""
    if d < 0:
        raise ValidationError(f"distance must be >= 0, got {d}")
    if bandwidth <= 0:
        raise ValidationError(f"bandwidth must be > 0, got {bandwidth}")
    t = d / bandwidth
    if kernel == "gaussian":
        return math.exp(-0.5 * t * t)
    if kernel == "bisquare":
        return (1.0 - t * t) ** 2 if t < 1.0 else 0.0
    raise ValidationError(f"unknown kernel {kernel!r}")


def chol(A):
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
