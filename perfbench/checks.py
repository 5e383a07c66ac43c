"""Output checks for one repetition of a benchmark workload.

A `run` repetition must leave a manifest whose checksums match the files on
disk, finite headline values in their valid ranges, and local GWR
coefficients that an independent weighted least-squares solve reproduces at
a few locations of every period. A `robustness` repetition must leave a
complete, finite R^2 grid. Where `references.json` holds values recorded for
the workload and seed, the headline values must match them within TOLERANCE.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).resolve().parent / "references.json"

# |value - reference| <= TOLERANCE * max(1, |reference|); the artifacts round
# to 6 decimals, so this admits rounding flips and nothing larger
TOLERANCE = 1e-5

# the independent solve reads X and the bandwidth back from 6-decimal files
SPOT_TOLERANCE = 1e-3
SPOT_LOCATIONS = 4

PERIODS = ("wd_am", "wd_md", "wd_pm", "wd_nt", "we_am", "we_md", "we_pm", "we_nt")
EARTH_RADIUS_M = 6378137.0


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    headline: dict[str, float] = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)   # artifact -> sha256

    @property
    def ok(self) -> bool:
        return not self.problems


def load_reference(workload: str, seed: int) -> dict[str, float] | None:
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return refs["workloads"].get(workload, {}).get(str(seed))


def check(command: str, city: Path, outdir: Path,
          reference: dict[str, float] | None) -> Outcome:
    """Check the artifacts one `sevi <command>` left in `outdir`."""
    out = Outcome()
    try:
        if command == "run":
            _check_run(city, outdir, out)
        else:
            _check_robustness(outdir, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        out.problems.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
        return out
    if reference is not None:
        for key, ref in reference.items():
            value = out.headline.get(key)
            if value is None or not abs(value - ref) <= TOLERANCE * max(1.0, abs(ref)):
                out.problems.append(f"{key} = {value}, reference {ref}")
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite_r2(out: Outcome, label: str, value) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value <= 1.0):
        out.problems.append(f"{label} = {value!r} is not a finite R^2")


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_run(city: Path, outdir: Path, out: Outcome) -> None:
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    out.files = dict(manifest["files"])
    for name, digest in out.files.items():
        if _sha256(outdir / name) != digest:
            out.problems.append(f"{name} does not match its manifest checksum")

    summary = json.loads((outdir / "gwr_summary.json").read_text(encoding="utf-8"))
    r2 = [summary["periods"][p]["adjusted_r2"] for p in PERIODS]
    for p, value in zip(PERIODS, r2):
        _finite_r2(out, f"adjusted_r2[{p}]", value)
    mean_r2 = summary["mean_adjusted_r2"]
    _finite_r2(out, "mean_adjusted_r2", mean_r2)
    if out.ok and abs(mean_r2 - sum(r2) / len(r2)) > 2e-6:
        out.problems.append(f"mean_adjusted_r2 {mean_r2} is not the mean of the periods")

    kw = json.loads((outdir / "kw.json").read_text(encoding="utf-8"))
    if not (math.isfinite(kw["h"]) and kw["h"] >= 0 and 0.0 <= kw["p_value"] <= 1.0):
        out.problems.append(f"Kruskal-Wallis H {kw['h']} / p {kw['p_value']} out of range")

    sevi = [float(row["sevi"]) for row in _read_csv(outdir / "sevi.csv")]
    if not sevi or not all(0.0 <= v <= 1.0 for v in sevi):
        out.problems.append("sevi.csv scores are empty or outside [0, 1]")
    else:
        out.headline["sevi_mean"] = sum(sevi) / len(sevi)
    out.headline["mean_adjusted_r2"] = mean_r2
    out.headline["kw_h"] = kw["h"]
    out.problems.extend(_spot_check_gwr(city, outdir, summary))


def _spot_check_gwr(city: Path, outdir: Path, summary: dict) -> list[str]:
    """Re-solve the local WLS at a few locations per period from the inputs
    and the written normalized predictors, and compare the coefficients."""
    xy_by_segment: dict[str, list[tuple[float, float]]] = {}
    for row in _read_csv(city / "points.csv"):
        lon, lat = math.radians(float(row["lon"])), math.radians(float(row["lat"]))
        xy = (EARTH_RADIUS_M * lon, EARTH_RADIUS_M * math.asinh(math.tan(lat)))
        xy_by_segment.setdefault(row["segment_id"], []).append(xy)
    uv = {(row["segment_id"], row["period"]): float(row["uv"])
          for row in _read_csv(city / "lbs.csv")}
    normalized = {row["segment_id"]: [float(v) for k, v in row.items() if k != "segment_id"]
                  for row in _read_csv(outdir / "normalized.csv")}

    problems = []
    for period in PERIODS:
        info = summary["periods"][period]
        if info["kernel"] != "gaussian" or info["bandwidth_m"] is None:
            continue
        rows = _read_csv(outdir / f"gwr_{period}.csv")
        ids = [row["segment_id"] for row in rows]
        beta = np.array([[float(row[k]) for k in row if k.startswith("beta_")] for row in rows])
        coords = np.array([np.mean(xy_by_segment[sid], axis=0) for sid in ids])
        X = np.column_stack([np.ones(len(ids)), [normalized[sid] for sid in ids]])
        y = np.array([uv[(sid, period)] for sid in ids])
        bw = float(info["bandwidth_m"])
        for i in np.linspace(0, len(ids) - 1, SPOT_LOCATIONS).astype(int):
            d = np.hypot(coords[:, 0] - coords[i, 0], coords[:, 1] - coords[i, 1])
            w = np.exp(-0.5 * (d / bw) ** 2)
            expected = np.linalg.solve(X.T @ (X * w[:, None]), X.T @ (w * y))
            err = float(np.max(np.abs(expected - beta[i])))
            if err > SPOT_TOLERANCE * max(1.0, float(np.max(np.abs(expected)))):
                problems.append(f"gwr_{period}.csv row {ids[i]}: coefficients differ from "
                                f"an independent solve by {err:.3g}")
    return problems


def _check_robustness(outdir: Path, out: Outcome) -> None:
    out.files = {name: _sha256(outdir / name) for name in ("robustness.json", "robustness.txt")}
    doc = json.loads((outdir / "robustness.json").read_text(encoding="utf-8"))
    for grid in ("r2_by_threshold", "r2_by_decay"):
        cells = doc[grid]
        if sorted(cells) != sorted(PERIODS):
            out.problems.append(f"{grid} covers periods {sorted(cells)}")
            continue
        for period in PERIODS:
            if len(cells[period]) != 3:
                out.problems.append(f"{grid}[{period}] has {len(cells[period])} cells, not 3")
            for key, value in cells[period].items():
                _finite_r2(out, f"{grid}[{period}][{key}]", value)
                out.headline[f"{grid}.{period}.{key}"] = value
