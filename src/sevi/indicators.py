"""The nine street-level indicators, computed per segment from detection
counts and brand tallies; the pipeline adds the spillover indicator `mv`.

`indicator_table` works in the route order of `PointTable.route`, where each
segment's points are one contiguous slice of the permuted columns. Counts
are summed over both sides of every point of a segment with
`np.add.reduceat`, which is exact on integers, and divided by the segment
length once. The brand-premium series is smoothed in one pass over the
route (`smooth_along_route` with the segment bounds). The signboard-weighted
brand numerator, as `mv`, is one `np.sum` per segment slice
(`PointTable.segment_sums`): `np.add.reduceat` would add the floats in
another order than the pairwise summation of `np.sum` and move their last
bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .exceptions import ConfigError, ValidationError
from .geodata import BrandTally, PointTable, StreetSegment

# each indicator, in the canonical column order, with the input columns it is
# computed from (`*` is a points.csv count's left and right sides)
INDICATOR_INPUTS = {
    "sd": ("points.signboards_*", "segments.length_m"),
    "cr": ("points.closed_*", "points.signboards_*"),
    "br": ("brands.n_local", "brands.n_international", "brands.n_ordinary",
           "points.signboards_*"),
    "mv": ("points.lon", "points.lat", "anchors.lon", "anchors.lat", "anchors.category"),
    "md": ("points.motor_*", "segments.length_m"),
    "nd": ("points.nonmotor_*", "segments.length_m"),
    "pp": ("points.persons_*", "segments.length_m"),
    "gr": ("points.green_pixels_*", "points.total_pixels_*"),
    "gd": ("points.glass_*", "segments.length_m"),
}
INDICATOR_NAMES = tuple(INDICATOR_INPUTS)

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
        # the config checks that each weight is a finite number
        if not self.international >= self.local >= self.ordinary >= 0:
            raise ConfigError(
                "brand_weights.international >= brand_weights.local >= brand_weights.ordinary "
                f">= 0 must hold, got {self.international}, {self.local}, {self.ordinary}")


def smooth_along_route(values, window: int = DEFAULT_SMOOTHING_WINDOW,
                       bounds=None) -> np.ndarray:
    """Centered moving mean over a route-ordered series, within the runs
    values[bounds[k]:bounds[k + 1]] (default: one run). At a run's ends the
    window shrinks to the available neighbors. `window` is odd and >= 1, as
    the config checks it (`smoothing_window`).

    A window's values are added left to right from 0.0, with 0.0 for the
    positions outside the run, as np.mean adds fewer than eight values: up
    to window 7 each mean is bit for bit np.mean's.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    bounds = np.asarray([0, n] if bounds is None else bounds)
    start, end = (np.repeat(b, np.diff(bounds)) for b in (bounds[:-1], bounds[1:]))
    half, at = window // 2, np.arange(n)
    total = np.zeros(n)
    for shift in range(-half, half + 1):
        src = at + shift
        total += np.where((src >= start) & (src < end), values.take(src, mode="clip"), 0.0)
    return total / (np.minimum(at + half + 1, end) - np.maximum(at - half, start))


def indicator_table(points: PointTable, segments: dict[str, StreetSegment],
                    tallies: dict[str, BrandTally], weights: BrandWeights,
                    window: int = DEFAULT_SMOOTHING_WINDOW):
    """Matrix of the indicators other than `mv`, the one that depends on the
    spillover setting, of the segments that hold points, sorted by id.

    A point's brand premium is its tier-weighted brand count per signboard
    (0 without signboards or tally). A segment's `br` is the signboard-
    weighted mean of the smoothed point series (the plain weighted-count
    ratio when window == 1). Closures are clamped to storefronts; no
    signboards give cr = br = 0. Every segment length is positive, as the
    loader checks it. A non-finite indicator (a length so small that a
    density overflows) raises a ValidationError naming the first one, its
    segment and its inputs: every reader of the matrix reads finite values.

    Returns (segment_ids, (k, 8) matrix in INDICATOR_NAMES order less `mv`,
    per-segment no-signboard flags, smoothed point brand series in table order).
    """
    segment_ids, perm, bounds = points.route
    length = np.array([segments[sid].length_m for sid in segment_ids], dtype=float)

    def total(name: str) -> np.ndarray:
        return np.add.reduceat(points.both_sides(name)[perm], bounds[:-1])

    rows = (tallies.get(pid, (0, 0, 0)) for pid in points.ids.tolist())
    tally = np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                        count=3 * len(points)).reshape(-1, 3)
    score = (tally[:, 0] * weights.local + tally[:, 1] * weights.international
             + tally[:, 2] * weights.ordinary)
    ns = points.both_sides("signboards")
    ratio = np.where(ns > 0, score / np.maximum(ns, 1), 0.0)[perm]
    point_br = np.empty(len(points))
    point_br[perm] = smooth_along_route(ratio, window, bounds)
    br_sum = points.segment_sums(point_br * ns)
    ns_seg = total("signboards")

    closed = np.minimum(total("closed"), ns_seg)  # so 0 where there are no signboards
    pixels = total("total_pixels")
    with np.errstate(over="ignore"):  # an overflow is named below
        matrix = np.column_stack([
            ns_seg / length, closed / np.maximum(ns_seg, 1),
            np.where(ns_seg > 0, br_sum / np.maximum(ns_seg, 1), 0.0),
            total("motor") / length, total("nonmotor") / length, total("persons") / length,
            np.where(pixels == 0, 0.0, total("green_pixels") / np.maximum(pixels, 1)),
            total("glass") / length,
        ])
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        i, j = bad[0]
        name = [name for name in INDICATOR_NAMES if name != "mv"][j]
        raise ValidationError(
            f"indicator {name!r} is {float(matrix[i, j])!r} at segment {segment_ids[i]!r}; "
            f"it is computed from {', '.join(INDICATOR_INPUTS[name])}")
    return segment_ids, matrix, ns_seg == 0, point_br
