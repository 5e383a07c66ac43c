"""Anchor decay-bandwidth calibration and threshold-gated spillover fields.

Bandwidths come from the average nearest-neighbor distance within each
anchor category; field values sum a distance-decay term over all anchors
inside a hard threshold. Summation is always in ascending anchor-id order
so outputs are bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .exceptions import CalibrationError
from .geodata import MallAnchor, PointTable

DECAYS = ("gaussian", "exponential", "linear")
DEFAULT_THRESHOLD_M = 2000.0
DEFAULT_SWEEP_M = (1000.0, 2000.0, 3000.0)


@dataclass(frozen=True)
class SpilloverConfig:
    """A positive, finite gate distance in meters and one of DECAYS; the
    config checks both (`pipeline.CONFIG_KEYS`: `spillover.threshold_m`,
    `.decay` and the sweeps)."""

    threshold_m: float = DEFAULT_THRESHOLD_M
    decay: str = "gaussian"


@dataclass
class SigmaTable:
    """Per-category decay bandwidth with provenance (computed vs imputed)."""

    sigma_m: dict[str, float] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)


def calibrate_sigma(anchors: list[MallAnchor]) -> SigmaTable:
    """Mean nearest-competitor distance per category.

    Categories with a single anchor receive the unweighted mean of the
    computed category bandwidths (provenance "imputed"). Fails when no
    category has two or more anchors, or when a category's anchors are all
    coincident (zero bandwidth is not a usable decay scale).
    """
    by_cat: dict[str, list[MallAnchor]] = {}
    for a in anchors:
        by_cat.setdefault(a.category, []).append(a)

    table = SigmaTable()
    computed: list[float] = []
    for cat in sorted(by_cat):
        members = by_cat[cat]
        if len(members) < 2:
            continue
        x = np.array([a.x for a in members], dtype=float)
        y = np.array([a.y for a in members], dtype=float)
        dx = x[:, None] - x[None, :]
        dy = y[:, None] - y[None, :]
        # not `kernels._distances`: np.hypot rounds some of these distances one
        # unit in the last place away from this sqrt, and sigma would move
        dist = np.sqrt(dx * dx + dy * dy)
        # an anchor is not its own competitor; a coincident twin still gives 0
        np.fill_diagonal(dist, np.inf)
        # a left-to-right sum in member order: np.sum's pairwise order would
        # move the last bits of sigma
        total = sum(dist.min(axis=1).tolist())
        sigma = total / len(members)
        if sigma <= 0.0:
            raise CalibrationError(
                f"category {cat!r}: all anchors coincide, nearest-neighbor bandwidth is 0"
            )
        table.sigma_m[cat] = sigma
        table.provenance[cat] = "computed"
        computed.append(sigma)

    if not computed:
        raise CalibrationError(
            "no anchor category has two or more members; nothing to calibrate or impute from"
        )
    imputed = sum(computed) / len(computed)
    for cat in sorted(by_cat):
        if cat not in table.sigma_m:
            table.sigma_m[cat] = imputed
            table.provenance[cat] = "imputed"
    return table


def _sorted_anchor_arrays(anchors: list[MallAnchor], sigma_table: SigmaTable):
    """x, y and bandwidth of the id-sorted anchors; `sigma_table` has each one's category."""
    ordered = sorted(anchors, key=lambda a: a.id)
    ax = np.array([a.x for a in ordered], dtype=float)
    ay = np.array([a.y for a in ordered], dtype=float)
    sig = np.array([sigma_table.sigma_m[a.category] for a in ordered], dtype=float)
    return ax, ay, sig


def field_all(points: PointTable, anchors: list[MallAnchor], sigma_table: SigmaTable,
              config: SpilloverConfig) -> np.ndarray:
    """Spillover values at the points (`points.x`, `points.y`) via
    `kernels.spill_field`.

    The kernel evaluates the gate directly over the id-sorted anchor arrays;
    the tests hold it to a scalar scan of the same arrays, one point at a
    time (`field_at` in `tests/oracles.py`).
    """
    ax, ay, sig = _sorted_anchor_arrays(anchors, sigma_table)
    return kernels.spill_field(points.x, points.y, ax, ay, sig, float(config.threshold_m),
                               config.decay)
