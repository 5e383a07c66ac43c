"""The nine street-level indicators, computed per segment from detection
counts, brand tallies, and spillover values.

Counts are summed over both sides of every sampling point on a segment and
divided by the segment length once. The brand-premium series is optionally
smoothed along the route (window confined within a segment) before the
segment aggregate is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .geodata import BrandTally, SamplingPoint, StreetSegment

INDICATOR_NAMES = ("sd", "cr", "br", "mv", "md", "nd", "pp", "gr", "gd")

# dimension blocks over the canonical column order
BLOCKS = {
    "activity": (0, 4),      # sd, cr (aligned), br, mv
    "utilization": (4, 7),   # md, nd, pp
    "environment": (7, 9),   # gr, gd
}

DEFAULT_SMOOTHING_WINDOW = 5


@dataclass(frozen=True)
class BrandWeights:
    """Tier weights for the brand-premium numerator."""

    local: float = 1.0
    international: float = 1.5
    ordinary: float = 0.0

    def __post_init__(self):
        vals = (self.local, self.international, self.ordinary)
        if not all(np.isfinite(v) for v in vals):
            raise ValidationError(f"brand weights must be finite, got {vals}")
        if not (self.international >= self.local >= self.ordinary >= 0):
            raise ValidationError(
                "brand weights must satisfy international >= local >= ordinary >= 0, "
                f"got {vals}"
            )

    def score(self, tally: BrandTally) -> float:
        return (tally.n_local * self.local
                + tally.n_international * self.international
                + tally.n_ordinary * self.ordinary)


@dataclass(frozen=True)
class IndicatorVector:
    sd: float
    cr: float
    br: float
    mv: float
    md: float
    nd: float
    pp: float
    gr: float
    gd: float
    no_signboards: bool = False  # cr and br were forced to 0 for lack of storefronts

    def as_array(self) -> np.ndarray:
        return np.array([self.sd, self.cr, self.br, self.mv, self.md,
                         self.nd, self.pp, self.gr, self.gd], dtype=float)


def clamp_closures(nc: int, ns: int) -> int:
    """Detection-noise guard: closures can never exceed storefronts."""
    return min(nc, ns)


def smooth_along_route(values, window: int = DEFAULT_SMOOTHING_WINDOW) -> np.ndarray:
    """Centered moving mean over a route-ordered series.

    At the boundaries the window shrinks to the available neighbors, so the
    output has the input's length. window must be odd and >= 1.
    """
    if window < 1 or window % 2 == 0:
        raise ValidationError(f"smoothing window must be odd and >= 1, got {window}")
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        return values.copy()
    half = window // 2
    out = np.empty(n)
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        out[i] = values[lo:hi].mean()
    return out


def point_brand_ratio(tally: BrandTally, signboards: int, weights: BrandWeights) -> float:
    if signboards <= 0:
        return 0.0
    return weights.score(tally) / signboards


def brand_ratio_series(points: list[SamplingPoint], tallies: dict[str, BrandTally],
                       weights: BrandWeights) -> tuple[np.ndarray, np.ndarray]:
    """Per-point brand premium along a route-ordered segment.

    Returns (ratio series, signboard counts); points without a tally count
    as zero-brand observations.
    """
    ns = np.array([p.detections.signboards_left + p.detections.signboards_right
                   for p in points], dtype=float)
    series = np.array([
        point_brand_ratio(tallies.get(p.id, BrandTally()), int(ns[i]), weights)
        for i, p in enumerate(points)
    ])
    return series, ns


def smoothed_brand_ratio(points: list[SamplingPoint], tallies: dict[str, BrandTally],
                         weights: BrandWeights,
                         window: int = DEFAULT_SMOOTHING_WINDOW
                         ) -> tuple[float, bool, np.ndarray]:
    """Segment brand premium from the smoothed point-level series.

    The segment value is the signboard-weighted mean of the smoothed
    per-point ratios, which reduces exactly to the plain weighted-count
    ratio when window == 1. Returns (value, no_signboards, smoothed series).
    """
    series, ns = brand_ratio_series(points, tallies, weights)
    smoothed = smooth_along_route(series, window)
    total = ns.sum()
    if total <= 0:
        return 0.0, True, smoothed
    return float((smoothed * ns).sum() / total), False, smoothed


def segment_indicators(segment: StreetSegment, points: list[SamplingPoint],
                       br: float, mv_value: float) -> IndicatorVector:
    """Aggregate one segment's indicator vector around its brand premium
    `br` (see `smoothed_brand_ratio`) and spillover value `mv_value`."""
    if segment.length_m <= 0:
        raise ValidationError(f"segment {segment.id!r} has non-positive length")
    length = segment.length_m

    def total(attr: str) -> int:
        return sum(getattr(p.detections, f"{attr}_left")
                   + getattr(p.detections, f"{attr}_right") for p in points)

    ns = total("signboards")
    nc = clamp_closures(total("closed"), ns)
    greens = total("green_pixels")
    pixels = total("total_pixels")

    no_signboards = ns == 0
    cr = 0.0 if no_signboards else nc / ns

    return IndicatorVector(
        sd=ns / length,
        cr=cr,
        br=0.0 if no_signboards else br,
        mv=mv_value,
        md=total("motor") / length,
        nd=total("nonmotor") / length,
        pp=total("persons") / length,
        gr=0.0 if pixels == 0 else greens / pixels,
        gd=total("glass") / length,
        no_signboards=no_signboards,
    )
