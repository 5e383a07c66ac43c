"""Report arithmetic and plain-text rendering for run and robustness outputs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ComputationError, ValidationError
from .geodata import PERIODS
from .stats import KwResult, TERTILE_LABELS


def growth_pct(high: float, low: float) -> float:
    """Relative growth of the high tier over the low tier, in percent."""
    if low == 0:
        raise ComputationError("growth undefined: low-tier mean is zero")
    return 100.0 * (high - low) / low


def mean_adjusted_r2(values) -> float:
    """Average explanatory power over a set of per-period fits."""
    values = [float(v) for v in values]
    if not values:
        raise ValidationError("no adjusted R^2 values to average")
    return sum(values) / len(values)


@dataclass
class TierValidation:
    """Tertile stratification of the brand premium against POI density."""

    tier_n: dict[str, int]
    mean_total_poi: dict[str, float]
    mean_premium_poi: dict[str, float]
    growth_total_pct: float
    growth_premium_pct: float
    kw_total: KwResult
    n_active: int
    n_points: int

    @property
    def coverage(self) -> float:
        return self.n_active / self.n_points if self.n_points else 0.0


# ---------------------------------------------------------------------------
# plain-text tables
# ---------------------------------------------------------------------------

def _fmt_table(headers, rows, title=None) -> str:
    cols = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[j]) for r in cols) for j in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[j]) for j, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[j] for j in range(len(headers))))
    for row in rows:
        lines.append("  ".join(str(c).ljust(widths[j]) for j, c in enumerate(row)))
    return "\n".join(lines)


def render_r2_grid(grid: dict[str, dict[str, float]], title: str) -> str:
    """One row per period of `grid` (period -> column key -> adjusted R^2),
    its columns in the order of the first period's keys."""
    column_keys = list(grid[PERIODS[0]])
    headers = ["period"] + column_keys + ["mean"]
    rows = []
    for period in PERIODS:
        vals = [grid[period][k] for k in column_keys]
        rows.append([period] + [f"{v:.4f}" for v in vals]
                    + [f"{mean_adjusted_r2(vals):.4f}"])
    col_means = [mean_adjusted_r2([grid[p][k] for p in PERIODS]) for k in column_keys]
    rows.append(["mean"] + [f"{v:.4f}" for v in col_means]
                + [f"{mean_adjusted_r2(col_means):.4f}"])
    return _fmt_table(headers, rows, title=title)


def render_correlation(labels: list[str], matrix: np.ndarray, title: str) -> str:
    headers = [""] + list(labels)
    rows = [[labels[i]] + [f"{matrix[i][j]:.3f}" for j in range(len(labels))]
            for i in range(len(labels))]
    return _fmt_table(headers, rows, title=title)


def render_tier_table(tv: TierValidation) -> str:
    rows = []
    for tier in TERTILE_LABELS:
        rows.append([tier, tv.tier_n[tier],
                     f"{tv.mean_total_poi[tier]:.2f}", f"{tv.mean_premium_poi[tier]:.2f}"])
    rows.append(["growth (high vs low)", "",
                 f"{tv.growth_total_pct:+.1f}%", f"{tv.growth_premium_pct:+.1f}%"])
    table = _fmt_table(["brand tier", "n", "mean total POI", "mean premium POI"], rows,
                       title="Brand-premium tiers vs POI density "
                             f"({tv.n_active}/{tv.n_points} active points, "
                             f"{100.0 * tv.coverage:.1f}% coverage)")
    kw = tv.kw_total
    return (table + f"\nKruskal-Wallis on total POI counts: H = {kw.h:.3f}, "
            f"dof = {kw.dof}, p = {kw.p_value:.3e}")


def render_run_summary(sevi_stats: dict, r2_by_period: dict[str, float],
                       weights: dict, tier_validation: TierValidation) -> str:
    parts = ["Street economic vitality run summary",
             "=" * 42, ""]
    rows = [[k, f"{v:.4f}"] for k, v in sevi_stats.items()]
    parts.append(_fmt_table(["sevi statistic", "value"], rows))
    parts.append("")
    rows = [[name, ", ".join(f"{w:.4f}" for w in ws)] for name, ws in weights.items()]
    parts.append(_fmt_table(["block", "entropy weights"], rows))
    parts.append("")
    rows = [[p, f"{r2_by_period[p]:.4f}"] for p in PERIODS]
    rows.append(["mean", f"{mean_adjusted_r2([r2_by_period[p] for p in PERIODS]):.4f}"])
    parts.append(_fmt_table(["period", "adjusted R^2"], rows,
                            title="Time-sliced GWR explanatory power"))
    parts.append("")
    parts.append(render_tier_table(tier_validation))
    parts.append("")
    return "\n".join(parts)


def render_robustness(doc: dict, tier_validation: TierValidation) -> str:
    """The text of the `robustness.json` document `doc`; the tier table is
    rendered from `tier_validation`, which `doc` records."""
    parts = ["Robustness checks", "=" * 42, ""]
    parts.append(render_r2_grid(doc["r2_by_threshold"],
                                "Adjusted R^2 under alternative spillover thresholds (m)"))
    parts.append("")
    parts.append(render_r2_grid(doc["r2_by_decay"],
                                "Adjusted R^2 under alternative distance-decay forms"))
    parts.append("")
    corr = doc["index_correlation"]
    parts.append(render_correlation(corr["labels"], corr["matrix"],
                                    "Rank correlation of alternative composite indices"))
    parts.append("")
    parts.append(render_tier_table(tier_validation))
    parts.append("")
    return "\n".join(parts)
