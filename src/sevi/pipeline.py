"""Configuration, the analysis core, and artifact emission.

The pipeline is the ordered table `STAGES`: load -> calibrate_sigma ->
spillover_field -> indicators -> normalize -> entropy_weights -> scores ->
stats -> validation -> gwr -> geojson -> report. Each entry holds the stage
name, the `until` group it ends (if any) and a writer that returns the file
names its file writers return. `_City` and `_Analysis` hold the results, each
property named after the stage that computes it on first read. `run` loops
over the table: each stage computes and writes inside one `_run_stage`,
which turns a package error or a failed write into a `StageError` naming the
stage; the loop records the stage in the manifest of per-file checksums and
stops after the `until` group, and the manifest is written inside the last
stage that ran; the `load` stage deletes the manifest of an earlier run, so a
failed run leaves none. `robustness` reads one analysis per spillover setting
of its sweeps, whose stage errors name it, and writes its reports inside a
stage of its own; `ingest` loads the input tables and writes validated copies
inside an `ingest` stage, and `decode_to_files` decodes and writes its
assignments inside a `brands decode` stage; each makes its output directory
inside its first stage.

`CONFIG_KEYS` gives each leaf key of the config its default and its kind;
`DEFAULT_CONFIG` is built from it by the walk that `--set` uses.

Each artifact format has one writer, which returns the name of its file.
`write_csv` writes every table, the synthetic fixtures and the validated
copies included; a caller passes a table as its columns. `write_json` writes
every JSON document, the manifest included. `emit_geojson` writes the map.
Each checks its floats before it opens its file, so a NaN or infinite float
fails the write, naming the file and the column or key, and leaves no file.
Reruns on identical inputs are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cached_property, reduce, wraps
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import yaml

from . import gwr, indicators, report, scoring, spillover, stats
from .exceptions import (ComputationError, ConfigError, SeviError, StageError,
                         ValidationError)
from .geodata import (ANCHORS_HEADER, BRANDS_HEADER, LBS_HEADER, PERIODS, POINTS_HEADER,
                      POIS_HEADER, SEGMENTS_HEADER, BrandTally, CityTables, TablePaths,
                      load_tables)
from .gwr import KERNELS, GwrDesign, GwrFit, coef_summary
from .indicators import BLOCKS, INDICATOR_NAMES, BrandWeights, indicator_table
from .report import TierValidation

if TYPE_CHECKING:  # brandsem is imported by the brand workflows only
    from . import brandsem


# A kind checks one config value: kind(key, value) returns the value, parsed
# for the bandwidth, or raises a ConfigError naming the dotted key.
def _check(ok: bool, key: str, value, what: str):
    if not ok:
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


def _finite(key, value):
    # PyYAML reads 1e3, and even 1.0e3, as text
    if isinstance(value, str) and _reads_as_finite_number(value):
        raise ConfigError(f"{key} must be a finite number, got the string {value!r}; YAML reads "
                          "an exponent as a number only with a dot and a sign, as in 1.0e+3")
    # YAML booleans load as bool, which Python counts as int
    return _check(isinstance(value, (int, float)) and not isinstance(value, bool)
                  and abs(value) <= sys.float_info.max, key, value, "a finite number")


def _positive(key, value):
    return _check(_finite(key, value) > 0, key, value, "positive and finite")


def _integer(low, high=math.inf):
    return lambda key, value: _check(
        isinstance(value, int) and not isinstance(value, bool) and low <= value <= high,
        key, value, f"an integer in [{low}, {high}]")


_count = _integer(1)


def _odd(key, value):
    return _check(_count(key, value) % 2 == 1, key, value, "odd")


def _one_of(*choices):
    return lambda key, value: _check(value in choices, key, value, f"one of {choices}")


def _path(nullable=False):
    return lambda key, value: _check(isinstance(value, str) and value != "" and "\0" not in value
                                     or nullable and value is None,
                                     key, value, "a non-empty path" + " or null" * nullable)


def _list_of(kind, label=lambda entry: entry):
    """A non-empty list of `kind` whose entries have distinct labels."""
    def check(key, value):
        _check(isinstance(value, list) and value != [], key, value, "a non-empty list")
        labels = [label(kind(f"{key}[{i}]", entry)) for i, entry in enumerate(value)]
        for i, name in enumerate(labels):
            if name in labels[:i]:
                raise ConfigError(f"{key} entries {value[labels.index(name)]!r} and {value[i]!r} "
                                  f"share the label {name!r}; the labels must be distinct")
        return value
    return check


def _reads_as_finite_number(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _bandwidth(key, value):
    """"aicc", ("adaptive", m) for m nearest neighbours, or fixed meters."""
    if value == "aicc":
        return value
    try:
        if isinstance(value, str) and value.startswith("adaptive:"):
            return ("adaptive", _count(key, int(value.split(":", 1)[1])))
        return float(_positive(key, value))
    except (ConfigError, ValueError):
        if isinstance(value, str) and _reads_as_finite_number(value):
            raise  # `_finite` names the form YAML reads as a number, 1.0e+3
        raise ConfigError(f"{key} must be 'aicc', 'adaptive:m' with an integer m >= 1, "
                          f"or a positive, finite number of meters, got {value!r}") from None


# each leaf key of the config, dotted, with its default and its kind, in config order
CONFIG_KEYS = {
    "inputs.format": ("csv", _one_of("csv", "geojson")),
    **{f"inputs.{table}": (f"{table}.csv", _path())
       for table in ("points", "segments", "anchors", "pois", "lbs")},
    "inputs.brands": ("brands.csv", _path(nullable=True)),
    "output_dir": ("out", _path()),
    "spillover.threshold_m": (spillover.DEFAULT_THRESHOLD_M, _positive),
    "spillover.decay": ("gaussian", _one_of(*spillover.DECAYS)),
    # robustness outputs label each threshold by its whole meters
    "spillover.sweep_thresholds": (list(spillover.DEFAULT_SWEEP_M),
                                   _list_of(_positive, label=int)),
    "spillover.sweep_decays": (list(spillover.DECAYS), _list_of(_one_of(*spillover.DECAYS))),
    **{f"brand_weights.{tier}": (weight, _finite)
       for tier, weight in asdict(BrandWeights()).items()},
    "smoothing_window": (indicators.DEFAULT_SMOOTHING_WINDOW, _odd),
    "poi_radius_m": (50.0, _positive),
    "pca_components": (4, _integer(1, len(INDICATOR_NAMES))),
    "gwr.kernel": ("gaussian", _one_of(*KERNELS)),
    "gwr.bandwidth": ("aicc", _bandwidth),
    "gwr.x_source": ("normalized", _one_of("normalized", "raw")),
    "gwr.summary_variables": (["mv", "cr"], _list_of(_one_of("intercept", *INDICATOR_NAMES))),
    "decode.backend": ("offline", _one_of("offline", "live")),
    "decode.reference_db": ("reference_db.json", _path()),
    "decode.fixtures": ("fixtures.json", _path()),
    "decode.corpus": ("corpus.csv", _path()),
    "decode.parallelism": (4, _count),
}


def _set_leaf(mapping: dict, dotted: str, value) -> dict:
    """A copy of `mapping` whose leaf at the `dotted` key is `value`; on the
    key's path, mappings are copied and anything else gives way to a mapping."""
    *sections, leaf = dotted.split(".")
    top = node = dict(mapping)
    for part in sections:
        node[part] = dict(node[part]) if isinstance(node.get(part), dict) else {}
        node = node[part]
    node[leaf] = value
    return top


DEFAULT_CONFIG = reduce(lambda config, key: _set_leaf(config, key, CONFIG_KEYS[key][0]),
                        CONFIG_KEYS, {})


def _merge_defaults(defaults: dict, user: dict, path: str = "") -> dict:
    # mappings and lists are copied: a config shares none with DEFAULT_CONFIG or `user`
    merged = {}
    for key, default in defaults.items():
        value = user.get(key, default)
        if isinstance(default, dict):
            value = _merge_defaults(default, _check(isinstance(value, dict), path + key, value,
                                                    "a mapping"), path + key + ".")
        merged[key] = list(value) if isinstance(value, list) else value
    for key in user:
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
    return merged


def _with_override(user: dict, item: str) -> dict:
    """A copy of `user` whose leaf `key` is set to the YAML `value` of
    `--set key=value`, as the override wins."""
    dotted, eq, text = item.partition("=")
    try:
        value = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"--set {dotted}: {exc}") from None
    if not eq or isinstance(value, dict):
        raise ConfigError(f"--set expects KEY=VALUE, a leaf key and a scalar or a list, "
                          f"got {item!r}")
    return _set_leaf(user, dotted.strip(), value)


@dataclass
class PipelineConfig:
    raw: dict  # merged config; hashed into the manifest, output_dir aside

    @classmethod
    def from_file(cls, path, overrides: list[str] | None = None) -> "PipelineConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = yaml.safe_load(fh) or {}
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config {path} must be a mapping")
        return cls.from_mapping(user, overrides)

    @classmethod
    def from_mapping(cls, user: dict, overrides: list[str] | None = None) -> "PipelineConfig":
        """`user` over DEFAULT_CONFIG, each `--set` of `overrides` written in first."""
        for item in overrides or []:
            user = _with_override(user, item)
        cfg = cls(raw=_merge_defaults(DEFAULT_CONFIG, user))
        cfg.validate()
        return cfg

    def validate(self):
        for key, (_, kind) in CONFIG_KEYS.items():
            section, _, leaf = key.rpartition(".")
            kind(key, (self.raw[section] if section else self.raw)[leaf])
        # the one rule across keys: BrandWeights' tier ordering
        self.brand_weights()

    def brand_weights(self) -> BrandWeights:
        return BrandWeights(**{tier: float(w) for tier, w in self.raw["brand_weights"].items()})

    def spillover_config(self) -> spillover.SpilloverConfig:
        sp = self.raw["spillover"]
        return spillover.SpilloverConfig(threshold_m=float(sp["threshold_m"]), decay=sp["decay"])

    def bandwidth(self):
        return _bandwidth("gwr.bandwidth", self.raw["gwr"]["bandwidth"])

    def table_paths(self, workdir: Path) -> TablePaths:
        # only inputs.brands may be null
        return TablePaths(**{table: None if path is None else workdir / path
                             for table, path in self.raw["inputs"].items() if table != "format"})

    def sha256(self) -> str:
        """Digest of the analysis settings; where the outputs go is left out."""
        analysis = {k: v for k, v in self.raw.items() if k != "output_dir"}
        canon = json.dumps(analysis, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def write_csv(path: Path, header, columns) -> str:
    """Write the table of `header` and `columns` as CSV; return the file's name.
    A float column, a float array or a list or tuple (as `zip(*rows)` gives) of
    floats, is checked whole before the file is opened and written with six
    decimals; any other cell as `str` writes it, so text keeps another precision."""
    cells = []
    for name, column in zip(header, columns):
        if isinstance(column, (list, tuple)) and all(isinstance(v, float) for v in column):
            column = np.array(column)
        if isinstance(column, np.ndarray) and column.dtype.kind == "f":
            bad = column[~np.isfinite(column)]
            if len(bad):
                raise ComputationError(f"{path}: column {name!r}: non-finite value {bad[0]}")
            column = map("{:.6f}".format, column.tolist())
        cells.append(column.tolist() if isinstance(column, np.ndarray) else column)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*cells))
    return path.name


def _round_floats(obj, path: Path, key=None):
    """`obj` with floats rounded to 6 decimals; a NaN or infinity names its key."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ComputationError(f"{path}: non-finite value {obj} under key {key!r}")
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round_floats(v, path, k) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, path, key) for v in obj]
    return obj


def write_json(path: Path, obj) -> str:
    text = json.dumps(_round_floats(obj, path), indent=2, sort_keys=True, ensure_ascii=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path.name


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# the analysis core
# ---------------------------------------------------------------------------

def _tier_validation(tables: CityTables, point_br: np.ndarray,
                     radius_m: float) -> TierValidation:
    """POI counts within `radius_m` of each point, the active points (those
    with a POI), their brand-premium tertiles, and the rank test on POI
    counts across tiers."""
    points = tables.points
    n_total, n_premium = tables.pois.counts_within(points.x, points.y, radius_m)
    active = n_total > 0
    n_active = int(active.sum())
    if n_active < 3:
        raise ComputationError(
            f"external validation needs at least 3 active points, got {n_active}"
        )
    labels = np.array(stats.tertile_split(point_br[active]))
    totals = {t: n_total[active][labels == t] for t in stats.TERTILE_LABELS}
    premiums = {t: n_premium[active][labels == t] for t in stats.TERTILE_LABELS}
    mean_total = {t: float(np.mean(v)) for t, v in totals.items()}
    mean_premium = {t: float(np.mean(v)) for t, v in premiums.items()}
    kw = stats.kruskal_wallis(list(totals.values()))
    return TierValidation(
        tier_n={t: len(v) for t, v in totals.items()},
        mean_total_poi=mean_total, mean_premium_poi=mean_premium,
        growth_total_pct=report.growth_pct(mean_total["high"], mean_total["low"]),
        growth_premium_pct=report.growth_pct(mean_premium["high"], mean_premium["low"]),
        kw_total=kw, n_active=n_active, n_points=len(points),
    )


@contextmanager
def _run_stage(name: str, setting: str | None = None):
    """Turn a package error or a failed file operation inside the block into
    a StageError naming `name` and `setting`; one already wrapped passes."""
    try:
        yield
    except StageError:
        raise
    except (SeviError, OSError) as exc:
        raise StageError(name, exc, setting) from exc


def _stage_result(compute):
    """A cached property, computed on first read inside the stage it names."""
    @wraps(compute)
    def in_stage(self):
        with _run_stage(compute.__name__, getattr(self, "setting", None)):
            return compute(self)
    return cached_property(in_stage)


def _output_dir(config: PipelineConfig, workdir: Path, stage: str) -> Path:
    """The output directory, made inside `stage`, the first stage of a command."""
    outdir = Path(workdir) / config.raw["output_dir"]
    with _run_stage(stage):
        outdir.mkdir(parents=True, exist_ok=True)
    return outdir


@dataclass
class _City:
    """One city's tables and decay bandwidths, shared by its analyses."""

    config: PipelineConfig
    workdir: Path

    @_stage_result
    def load(self) -> CityTables:
        paths = self.config.table_paths(self.workdir)
        if paths.brands is None:
            raise ValidationError("a brands table is required for the analysis "
                                  "(inputs.brands); produce one with 'brands decode'")
        return load_tables(paths, self.config.raw["inputs"]["format"])

    @_stage_result
    def calibrate_sigma(self) -> spillover.SigmaTable:
        return spillover.calibrate_sigma(self.load.anchors)


@dataclass
class _Analysis:
    """The analysis of a city under one spillover setting; a caller computes
    exactly the stages whose results it reads."""

    city: _City
    sp_cfg: spillover.SpilloverConfig
    setting: str | None = None  # names sp_cfg in an error where several settings are analysed

    @_stage_result
    def spillover_field(self) -> np.ndarray:
        return spillover.field_all(self.city.load.points, self.city.load.anchors,
                                   self.city.calibrate_sigma, self.sp_cfg)

    @_stage_result
    def indicators(self):
        """(segment_ids, raw_matrix, no-signboard flags, point brand series)"""
        tables, config = self.city.load, self.city.config
        return indicator_table(tables.points, tables.segments, tables.brands or {},
                               config.brand_weights(), self.spillover_field,
                               config.raw["smoothing_window"])

    @_stage_result
    def normalize(self) -> scoring.NormalizedMatrix:
        segment_ids, raw_matrix, _, _ = self.indicators
        return scoring.align_and_normalize(raw_matrix, segment_ids)

    @_stage_result
    def entropy_weights(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """(weights, column entropies), each keyed by BLOCKS"""
        return scoring.compute_weight_matrix(self.normalize)

    @_stage_result
    def scores(self):
        """(dimension scores, SEVI, equal-weight index, PCA index)"""
        dims = scoring.block_aggregate(self.normalize.values, self.entropy_weights[0])
        eq, pca_index = scoring.alternative_indices(self.normalize)
        return dims, scoring.topsis(dims), eq, pca_index

    @_stage_result
    def stats(self) -> tuple[stats.CorrelationMatrix, stats.PcaModel]:
        raw_matrix = self.indicators[1]
        corr = stats.spearman_matrix(raw_matrix, list(INDICATOR_NAMES))
        model = stats.pca(raw_matrix, n_components=self.city.config.raw["pca_components"])
        return corr, model

    @_stage_result
    def validation(self) -> TierValidation:
        return _tier_validation(self.city.load, self.indicators[3],
                                float(self.city.config.raw["poi_radius_m"]))

    @_stage_result
    def gwr(self) -> dict[str, GwrFit]:
        """One fit per period, over the segments that carry crowd intensities."""
        tables, config = self.city.load, self.city.config
        segment_ids, raw_matrix, _, _ = self.indicators
        x_matrix = (self.normalize.values if config.raw["gwr"]["x_source"] == "normalized"
                    else raw_matrix)
        pos = {sid: i for i, sid in enumerate(segment_ids)}
        usable = [sid for sid in segment_ids if sid in tables.lbs]
        if len(usable) < x_matrix.shape[1] + 3:
            raise ValidationError(f"only {len(usable)} segments have both indicators and "
                                  f"crowd data; need more than {x_matrix.shape[1] + 2}")
        Y = np.array([[tables.lbs[sid][period] for period in PERIODS] for sid in usable])
        for period, column in zip(PERIODS, Y.T):
            if np.all(column == column[0]):
                raise ValidationError(
                    f"crowd intensity of period {period!r} is {float(column[0])!r} at all "
                    f"{len(usable)} segments with crowd data; a constant response leaves "
                    "nothing to fit")
        points = tables.points
        centroids = np.column_stack([points.segment_means(c) for c in (points.x, points.y)])
        rows = [pos[sid] for sid in usable]
        design = GwrDesign.build(
            centroids[rows], x_matrix[rows, :], Y,
            kernel=config.raw["gwr"]["kernel"], predictor_names=list(INDICATOR_NAMES),
            location_ids=usable)
        return dict(zip(PERIODS, gwr.fit(design, config.bandwidth())))


def emit_geojson(path: Path, tables: CityTables,
                 properties_by_segment: dict[str, dict[str, float]]) -> str:
    """Write the map of the scored segments as a FeatureCollection: one
    LineString feature per segment when segment geometry was ingested, else
    one Point feature per sampling point of a scored segment, in id order.
    Each feature carries its segment's nine indicators and A/U/P/sevi, with
    floats rounded to 6 decimals and coordinates to 7.

    The text is that of json.dumps(sort_keys=True, ensure_ascii=False) on
    the whole collection, built by hand: each segment's properties are
    encoded once, however many points share them, before the file is opened
    (a non-finite value fails there); each feature is written as soon as its
    text is assembled around that string.
    """
    properties = {sid: json.dumps(_round_floats(props, path), sort_keys=True, ensure_ascii=False)
                  for sid, props in properties_by_segment.items()}

    def position(lon: float, lat: float) -> str:
        return f"[{round(lon, 7)!r}, {round(lat, 7)!r}]"

    # (id, segment id, geometry type, coordinates text) of each feature
    if tables.segment_geometry:
        features = ((sid, sid, "LineString", "[" + ", ".join(
            position(lon, lat) for lon, lat in tables.segment_geometry[sid]) + "]")
            for sid in sorted(properties))
    else:
        pts = tables.points
        features = ((pid, sid, "Point", position(lon, lat)) for pid, sid, lon, lat in zip(
            *(c[pts.by_id].tolist() for c in (pts.ids, pts.segment_ids, pts.lon, pts.lat)))
            if sid in properties)
    # the collection is framed by hand and each feature written as it is
    # built, so the document's text is never held in memory
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"features": [')
        for k, (fid, sid, kind, coordinates) in enumerate(features):
            fh.write(f'{", " if k else ""}{{"geometry": {{"coordinates": {coordinates}, '
                     f'"type": "{kind}"}}, "id": {json.dumps(fid, ensure_ascii=False)}, '
                     f'"properties": {properties[sid]}, "type": "Feature"}}')
        fh.write('], "type": "FeatureCollection"}\n')
    return path.name


# ---------------------------------------------------------------------------
# the stage table and the full run
# ---------------------------------------------------------------------------

def _read_tables(a: _Analysis, outdir: Path) -> list[str]:
    # a manifest of an earlier run would vouch for files this run rewrites
    manifest = outdir / "manifest.json"
    if manifest.is_file():
        manifest.unlink()
    a.city.load  # the tables are held in memory; no file is written
    return []


def _write_sigma(a: _Analysis, outdir: Path) -> list[str]:
    sigma = a.city.calibrate_sigma
    return [write_csv(outdir / "sigma.csv", ("category", "sigma_m", "provenance"),
                      zip(*[(cat, sigma.sigma_m[cat], sigma.provenance[cat])
                            for cat in sorted(sigma.sigma_m)]))]


def _write_mv(a: _Analysis, outdir: Path) -> list[str]:
    # in point-id order, so the file does not depend on the input row order
    points = a.city.load.points
    return [write_csv(outdir / "mv.csv",
                      ("point_id", f"mv_{a.sp_cfg.decay}_{int(a.sp_cfg.threshold_m)}"),
                      (points.ids[points.by_id], a.spillover_field[points.by_id]))]


def _write_indicators(a: _Analysis, outdir: Path) -> list[str]:
    segment_ids, raw_matrix, seg_flags, _ = a.indicators
    return [write_csv(outdir / "indicators.csv",
                      ("segment_id",) + INDICATOR_NAMES + ("no_signboards",),
                      (segment_ids, *raw_matrix.T, seg_flags.astype(int)))]


def _write_normalized(a: _Analysis, outdir: Path) -> list[str]:
    return [write_csv(outdir / "normalized.csv", ("segment_id",) + INDICATOR_NAMES,
                      (a.indicators[0], *a.normalize.values.T))]


def _write_weights(a: _Analysis, outdir: Path) -> list[str]:
    weights, entropies = a.entropy_weights
    return [write_json(outdir / "weights.json", {
        "columns": [vars(c) for c in a.normalize.columns],
        "blocks": {name: {"columns": list(INDICATOR_NAMES[lo:hi]),
                          "weights": weights[name].tolist(),
                          "entropy": entropies[name].tolist()}
                   for name, (lo, hi) in BLOCKS.items()}})]


def _write_sevi(a: _Analysis, outdir: Path) -> list[str]:
    dims, sevi, eq, pca_index = a.scores
    return [write_csv(outdir / "sevi.csv", ("segment_id", *BLOCKS, "sevi", "sevi_eq", "sevi_pca"),
                      (a.indicators[0], *dims.T, sevi, eq, pca_index))]


def _write_stats(a: _Analysis, outdir: Path) -> list[str]:
    corr, pca_model = a.stats
    k_comp = pca_model.loadings.shape[1]
    header = (("variable",) + tuple(f"pc{j + 1}_raw" for j in range(k_comp))
              + tuple(f"pc{j + 1}_rotated" for j in range(k_comp)))
    return [write_csv(outdir / "correlation.csv", ("variable",) + INDICATOR_NAMES,
                      (INDICATOR_NAMES, *corr.values.T)),
            write_csv(outdir / "pca_loadings.csv", header,
                      (INDICATOR_NAMES, *pca_model.loadings.T, *pca_model.rotated_loadings.T)),
            write_json(outdir / "pca_summary.json", {
                "explained_variance_ratio": pca_model.explained_variance_ratio.tolist(),
                "retained_components": k_comp,
                "retained_variance": float(pca_model.explained_variance_ratio[:k_comp].sum()),
                "rotation_converged": pca_model.rotation_converged,
                "rotation_sweeps": pca_model.rotation_sweeps})]


def _write_validation(a: _Analysis, outdir: Path) -> list[str]:
    tv = a.validation
    return [write_csv(outdir / "tier_validation.csv",
                      ("tier", "n_points", "mean_total_poi", "mean_premium_poi"),
                      zip(*[(t, tv.tier_n[t], tv.mean_total_poi[t], tv.mean_premium_poi[t])
                            for t in stats.TERTILE_LABELS])),
            write_json(outdir / "kw.json", {
                **vars(tv.kw_total), "growth_total_pct": tv.growth_total_pct,
                "growth_premium_pct": tv.growth_premium_pct, "n_active": tv.n_active,
                "n_points": tv.n_points})]


def _write_gwr(a: _Analysis, outdir: Path) -> list[str]:
    fits = a.gwr
    header = ("segment_id", "beta_intercept", *(f"beta_{v}" for v in INDICATOR_NAMES), "residual")
    return [*(write_csv(outdir / f"gwr_{period}.csv", header,
                        (fit.location_ids, *fit.beta.T, fit.residuals))
              for period, fit in fits.items()),
            write_json(outdir / "gwr_summary.json", {
                "periods": {period: {
                    "adjusted_r2": fit.adjusted_r2, "aicc": fit.aicc, "bandwidth_m": fit.bandwidth,
                    "adaptive_neighbors": fit.adaptive_neighbors, "kernel": fit.kernel,
                    "trace_s": fit.trace_s, "trace_sts": fit.trace_sts, "n_ridged": fit.n_ridged,
                    "n": fit.n, "aicc_evals": fit.aicc_evals,
                    "bandwidth_boundary": fit.bandwidth_boundary,
                } for period, fit in fits.items()},
                "mean_adjusted_r2": report.mean_adjusted_r2([fit.adjusted_r2
                                                             for fit in fits.values()])}),
            write_csv(outdir / "coef_summary.csv",
                      ("variable", "period", "q1", "median", "q3", "whisker_lo", "whisker_hi",
                       "n_outliers"),
                      zip(*[(cs.variable, cs.period, cs.q1, cs.median, cs.q3, cs.whisker_lo,
                             cs.whisker_hi, len(cs.outliers))
                            for variable in a.city.config.raw["gwr"]["summary_variables"]
                            for cs in coef_summary(fits, variable)]))]


def _write_geojson(a: _Analysis, outdir: Path) -> list[str]:
    segment_ids, raw_matrix, _, _ = a.indicators
    dims, sevi, _, _ = a.scores
    names = INDICATOR_NAMES + tuple(BLOCKS) + ("sevi",)
    values = np.column_stack([raw_matrix, dims, sevi]).tolist()
    return [emit_geojson(outdir / "sevi.geojson", a.city.load,
                         {sid: dict(zip(names, row)) for sid, row in zip(segment_ids, values)})]


def _write_summary(a: _Analysis, outdir: Path) -> list[str]:
    _, sevi, eq, pca_index = a.scores
    sevi_stats = {
        "n_segments": float(len(a.indicators[0])),
        "sevi_min": float(sevi.min()),
        "sevi_mean": float(sevi.mean()),
        "sevi_max": float(sevi.max()),
        "spearman_sevi_eq": stats.spearman(sevi, eq),
        "spearman_sevi_pca": stats.spearman(sevi, pca_index),
    }
    text = report.render_run_summary(
        sevi_stats, {p: fit.adjusted_r2 for p, fit in a.gwr.items()},
        a.entropy_weights[0], a.validation)
    path = outdir / "summary.txt"
    path.write_text(text, encoding="utf-8")
    return [path.name]


@dataclass(frozen=True)
class _Stage:
    name: str
    write: Callable[[_Analysis, Path], list[str]]  # computes, writes, returns its writers' results
    until: str | None = None  # the `until` group that ends with this stage


STAGES = (
    _Stage("load", _read_tables),
    _Stage("calibrate_sigma", _write_sigma),
    _Stage("spillover_field", _write_mv, until="spillover"),
    _Stage("indicators", _write_indicators, until="indicators"),
    _Stage("normalize", _write_normalized),
    _Stage("entropy_weights", _write_weights),
    _Stage("scores", _write_sevi, until="sevi"),
    _Stage("stats", _write_stats),
    _Stage("validation", _write_validation, until="stats"),
    _Stage("gwr", _write_gwr, until="gwr"),
    _Stage("geojson", _write_geojson),
    _Stage("report", _write_summary),
)
UNTIL_GROUPS = tuple(stage.until for stage in STAGES if stage.until)


def run(config: PipelineConfig, workdir: Path, until: str | None = None) -> dict:
    """Run the stages of STAGES in order, each computing and writing its
    result, and return the manifest document.

    `until` names one of UNTIL_GROUPS; the run stops after the stage that ends
    that group, and the manifest covers only the stages that ran.
    """
    if until is not None and until not in UNTIL_GROUPS:
        raise ValidationError(f"unknown stop stage {until!r}")
    outdir = _output_dir(config, workdir, STAGES[0].name)
    analysis = _Analysis(_City(config, Path(workdir)), config.spillover_config())
    stages = []
    for stage in STAGES:
        with _run_stage(stage.name):
            files = stage.write(analysis, outdir)
        stages.append({"name": stage.name, "files": sorted(files)})
        if until is not None and stage.until == until:
            break
    with _run_stage(stages[-1]["name"]):  # the manifest closes the last stage that ran
        doc = {"config_sha256": config.sha256(), "stages": stages,
               "files": {name: file_sha256(outdir / name)
                         for s in stages for name in s["files"]}}
        write_json(outdir / "manifest.json", doc)
    return doc


# ---------------------------------------------------------------------------
# robustness suite
# ---------------------------------------------------------------------------

def robustness(config: PipelineConfig, workdir: Path) -> dict:
    """Threshold and decay sweeps for the GWR explanatory power, alternative
    composite-index correlations, and the external tier validation; writes
    robustness.json and its text rendering and returns the JSON document."""
    outdir = _output_dir(config, workdir, STAGES[0].name)
    city = _City(config, Path(workdir))
    sp = config.raw["spillover"]
    base = config.spillover_config()
    thresholds = [float(d) for d in sp["sweep_thresholds"]]
    analyses = {}
    for key in ([(base.threshold_m, base.decay)] + [(d, base.decay) for d in thresholds]
                + [(base.threshold_m, decay) for decay in sp["sweep_decays"]]):
        analyses.setdefault(key, _Analysis(city, spillover.SpilloverConfig(*key),
                                           f"spillover threshold {int(key[0])} m, decay {key[1]}"))
    # each result is computed inside its own stage; the reports are written
    # inside this one
    with _run_stage("robustness"):
        r2_by_threshold = {p: {str(int(d)): analyses[d, base.decay].gwr[p].adjusted_r2
                               for d in thresholds} for p in PERIODS}
        r2_by_decay = {p: {decay: analyses[base.threshold_m, decay].gwr[p].adjusted_r2
                           for decay in sp["sweep_decays"]} for p in PERIODS}
        baseline = analyses[base.threshold_m, base.decay]
        _, sevi, sevi_eq, sevi_pca = baseline.scores
        corr = stats.spearman_matrix(np.column_stack([sevi, sevi_eq, sevi_pca]),
                                     ["sevi", "sevi_eq", "sevi_pca"])
        tv = baseline.validation
        doc = {
            "r2_by_threshold": r2_by_threshold, "r2_by_decay": r2_by_decay,
            "index_correlation": {"labels": corr.labels, "matrix": corr.values.tolist()},
            # the rank test without its tie correction
            "tier_validation": {**{k: v for k, v in vars(tv).items() if k != "kw_total"},
                                "kw": {"h": tv.kw_total.h, "dof": tv.kw_total.dof,
                                       "p_value": tv.kw_total.p_value}},
        }
        write_json(outdir / "robustness.json", doc)
        (outdir / "robustness.txt").write_text(report.render_robustness(doc, tv),
                                               encoding="utf-8")
    return doc


# ---------------------------------------------------------------------------
# brand decode / eval file workflows
# ---------------------------------------------------------------------------

def decode_to_files(config: PipelineConfig, workdir: Path) -> dict:
    """Run the offline (or live) two-stage decode and write assignments.csv,
    brands.csv, and decode_summary.json under the output directory."""
    from . import brandsem

    workdir = Path(workdir)
    outdir = _output_dir(config, workdir, "brands decode")
    dec = config.raw["decode"]
    with _run_stage("brands decode"):
        db = brandsem.ReferenceDb.from_json(workdir / dec["reference_db"])
        if dec["backend"] == "offline":
            client = brandsem.OfflineFixtureClient.from_json(workdir / dec["fixtures"])
        else:
            client = brandsem.HttpChatClient.from_env()
        corpus = brandsem.load_corpus(workdir / dec["corpus"])
        decoded = brandsem.decode_corpus(corpus, db, client, parallelism=dec["parallelism"])
        rows = [(item.image_id, brand, item.assignment.tiers[brand],
                 item.assignment.provenance[brand])
                for item in decoded for brand in sorted(item.assignment.tiers)]
        tally = brandsem.tally_by_point(decoded)
        summary = {"images": len(decoded), "assignments": len(rows),
                   "defaulted_to_ordinary": sum(len(item.assignment.unresolved)
                                                for item in decoded),
                   "points": len(tally)}
        write_csv(outdir / "assignments.csv", ("image_id", "brand", "tier", "provenance"),
                  zip(*rows))
        _write_brands(outdir / "brands.csv", tally)
        write_json(outdir / "decode_summary.json", summary)
    return summary


def evaluate_files(gt_path: Path, pred_path: Path, out_path: Path | None = None) -> brandsem.EvalReport:
    """Evaluate a predictions CSV against ground truth; images present in the
    ground truth but absent from the predictions count as empty predictions.
    The report goes to `out_path`, whose directory is made if need be."""
    from . import brandsem

    gt = brandsem.load_labeled_pairs(gt_path)
    pred = brandsem.load_labeled_pairs(pred_path)
    for image_id in gt:
        pred.setdefault(image_id, set())
    rep = brandsem.evaluate(pred, gt)
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_json(out_path, {
            "per_tier": {tier: vars(m) for tier, m in rep.per_tier.items()},
            "overall": {rate: getattr(rep.overall, rate) for rate in brandsem.RATES},
            "gt_counts": rep.gt_counts,
        })
    return rep


def _write_brands(path: Path, tallies: dict[str, BrandTally]):
    write_csv(path, BRANDS_HEADER, zip(*((pid, *tally) for pid, tally in sorted(tallies.items()))))


def write_tables(tables: CityTables, outdir: Path):
    """Write the validated tables as CSV under `outdir`. Coordinates, lengths
    and crowd intensities are written as `repr`, so that they load back
    exactly and a second load/write round trip gives the same bytes."""
    outdir.mkdir(parents=True, exist_ok=True)
    pts, pois = tables.points, tables.pois
    write_csv(outdir / "points.csv", POINTS_HEADER,
              (pts.ids, map(repr, pts.lon.tolist()), map(repr, pts.lat.tolist()),
               pts.segment_ids, pts.order, *pts.counts.T))
    write_csv(outdir / "segments.csv", SEGMENTS_HEADER,
              zip(*((s.id, repr(s.length_m)) for s in tables.segments.values())))
    write_csv(outdir / "anchors.csv", ANCHORS_HEADER,
              zip(*((a.id, a.category, repr(a.lon), repr(a.lat)) for a in tables.anchors)))
    write_csv(outdir / "pois.csv", POIS_HEADER,
              (pois.ids, map(repr, pois.lon.tolist()), map(repr, pois.lat.tolist()),
               pois.category, pois.is_premium.astype(int)))
    write_csv(outdir / "lbs.csv", LBS_HEADER,
              zip(*((sid, period, repr(slot[period]))
                    for sid, slot in sorted(tables.lbs.items()) for period in PERIODS)))
    if tables.brands is not None:
        _write_brands(outdir / "brands.csv", tables.brands)


def ingest(config: PipelineConfig, workdir: Path) -> dict:
    """Validate the inputs and write round-tripped copies plus a summary."""
    workdir = Path(workdir)
    outdir = _output_dir(config, workdir, "ingest")
    with _run_stage("ingest"):
        tables = load_tables(config.table_paths(workdir), config.raw["inputs"]["format"])
        summary = {
            "points": len(tables.points), "segments": len(tables.segments),
            "anchors": len(tables.anchors), "pois": len(tables.pois),
            "lbs_segments": len(tables.lbs),
            "brand_points": len(tables.brands) if tables.brands else 0,
        }
        write_tables(tables, outdir / "validated")
        write_json(outdir / "ingest_summary.json", summary)
    return summary
