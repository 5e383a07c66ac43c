import csv
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sevi.geodata import (ANCHORS_HEADER, PERIODS, POINTS_HEADER, POIS_HEADER,
                          SEGMENTS_HEADER, project_to_metric)
from sevi.exceptions import ComputationError, ConfigError
from sevi.indicators import INDICATOR_NAMES
from sevi.pipeline import (DEFAULT_CONFIG, PipelineConfig, _Analysis, _City, ingest, robustness,
                           run, write_csv, write_json)

from .conftest import write_feature_collection
from .golden import city_results

# headline values of the bundled synthetic city (seed 20251015)
MEAN_ADJUSTED_R2 = 0.603279
SEVI_MEAN = 0.521222
KW_H = 258.331652


def _config(outdir, overrides=()):
    return PipelineConfig.from_mapping({"output_dir": str(outdir)}, list(overrides))


def _run(city_dir, outdir, overrides=(), until=None):
    return run(_config(outdir, overrides), city_dir, until=until)


def _json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _geojson(path):
    """The document in a sevi.geojson file, whose text must be exactly what
    json.dumps(sort_keys=True, ensure_ascii=False) writes for it."""
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, ensure_ascii=False) + "\n"
    return doc


def _close(value, reference, tol=1e-5):
    return abs(value - reference) <= tol * max(1.0, abs(reference))


@pytest.fixture(scope="module")
def default_run(city_dir, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("run_default")
    _run(city_dir, outdir)
    return outdir


def test_run_headline_values(default_run):
    summary = json.loads((default_run / "gwr_summary.json").read_text(encoding="utf-8"))
    kw = json.loads((default_run / "kw.json").read_text(encoding="utf-8"))
    with open(default_run / "sevi.csv", newline="", encoding="utf-8") as fh:
        sevi = [float(row["sevi"]) for row in csv.DictReader(fh)]
    assert _close(summary["mean_adjusted_r2"], MEAN_ADJUSTED_R2)
    assert _close(sum(sevi) / len(sevi), SEVI_MEAN)
    assert _close(kw["h"], KW_H)


def test_geojson_has_one_feature_per_scored_point(city_dir, default_run):
    with open(default_run / "sevi.csv", newline="", encoding="utf-8") as fh:
        scored = {row["segment_id"]: float(row["sevi"]) for row in csv.DictReader(fh)}
    with open(city_dir / "points.csv", newline="", encoding="utf-8") as fh:
        points = {row["id"]: row["segment_id"] for row in csv.DictReader(fh)}
    doc = _geojson(default_run / "sevi.geojson")
    assert doc["type"] == "FeatureCollection"
    features = {f["id"]: f["properties"] for f in doc["features"]}
    assert len(features) == len(doc["features"])
    assert set(features) == {pid for pid, sid in points.items() if sid in scored}
    for pid, props in features.items():
        assert props["sevi"] == scored[points[pid]]


def test_override_leaves_later_configs_alone(tmp_path):
    assert _config(tmp_path, ["gwr.bandwidth=1500"]).raw["gwr"]["bandwidth"] == 1500
    assert _config(tmp_path).raw["gwr"]["bandwidth"] == "aicc"


def test_set_writes_into_a_copy_of_the_user_mapping(tmp_path):
    user = {"output_dir": str(tmp_path), "gwr": {"kernel": "bisquare"}}
    config = PipelineConfig.from_mapping(user, ["gwr.bandwidth=1500"])
    assert config.raw["gwr"]["kernel"] == "bisquare" and config.raw["gwr"]["bandwidth"] == 1500
    assert user == {"output_dir": str(tmp_path), "gwr": {"kernel": "bisquare"}}


def _leaf_keys(mapping, prefix=""):
    for key, value in mapping.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


LEAF_KEYS = list(_leaf_keys(DEFAULT_CONFIG))

# DEFAULT_CONFIG as it was written out before the config keys became one table
_LITERAL_DEFAULT_CONFIG = {
    "inputs": {"format": "csv", **{table: f"{table}.csv" for table in
                                   ("points", "segments", "anchors", "pois", "lbs", "brands")}},
    "output_dir": "out",
    "spillover": {
        "threshold_m": 2000.0,
        "decay": "gaussian",
        "sweep_thresholds": [1000.0, 2000.0, 3000.0],
        "sweep_decays": ["gaussian", "exponential", "linear"],
    },
    "brand_weights": {"local": 1.0, "international": 1.5, "ordinary": 0.0},
    "smoothing_window": 5,
    "poi_radius_m": 50.0,
    "pca_components": 4,
    "gwr": {"kernel": "gaussian", "bandwidth": "aicc", "x_source": "normalized",
            "summary_variables": ["mv", "cr"]},
    "decode": {"backend": "offline", "reference_db": "reference_db.json",
               "fixtures": "fixtures.json", "corpus": "corpus.csv", "parallelism": 4},
}


def test_default_config_equals_its_literal():
    # without sort_keys, the key order is compared too
    assert json.dumps(DEFAULT_CONFIG) == json.dumps(_LITERAL_DEFAULT_CONFIG)


def _containers(value):
    """Each dict and list in `value`, itself included."""
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from _containers(item)


def test_merged_config_shares_no_mutable_value():
    user = {"spillover": {"sweep_decays": ["linear"]}, "gwr": {"summary_variables": ["mv"]}}
    merged = [PipelineConfig.from_mapping(user).raw, PipelineConfig.from_mapping({}).raw]
    sources = {id(c) for c in [*_containers(DEFAULT_CONFIG), *_containers(user)]}
    assert not [c for raw in merged for c in _containers(raw) if id(c) in sources]
    merged[1]["gwr"]["summary_variables"].append("sd")
    assert PipelineConfig.from_mapping({}).raw["gwr"]["summary_variables"] == ["mv", "cr"]


@settings(max_examples=100, deadline=None)
@given(value=st.one_of(st.booleans(), st.none(), st.floats(), st.integers(), st.text(max_size=12),
                       st.lists(st.integers(-1, 3000) | st.text(max_size=12), max_size=3),
                       st.dictionaries(st.text(max_size=4), st.integers(), max_size=2)))
@example(value=True)
@example(value=None)
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=10**400)  # beyond the largest float
@example(value=-1)
@example(value=0)
@example(value="x")
@example(value=[1])
@example(value={"a": 1})
def test_each_leaf_value_is_rejected_naming_its_key_or_builds(value):
    for key in LEAF_KEYS:
        section, _, leaf = key.rpartition(".")
        try:
            config = PipelineConfig.from_mapping({section: {leaf: value}} if section
                                                 else {leaf: value})
        except ConfigError as exc:
            assert key in str(exc), (key, value, exc)
            continue
        config.bandwidth(), config.spillover_config(), config.brand_weights()
        config.table_paths(Path("w"))


def test_rerun_gives_identical_manifest(city_dir, tmp_path):
    # the output directory is not part of the analysis, so it stays out of
    # config_sha256 and the two manifests agree byte for byte
    overrides = ["gwr.bandwidth=1500"]
    first = _run(city_dir, tmp_path / "a", overrides)
    _run(city_dir, tmp_path / "b", overrides)
    assert first["files"]
    assert ((tmp_path / "a" / "manifest.json").read_bytes()
            == (tmp_path / "b" / "manifest.json").read_bytes())


def test_artifacts_do_not_depend_on_the_input_row_order(city_dir, tmp_path):
    # the data rows of every input table shuffled; `run` and `robustness`
    # write the same bytes, manifest.json included
    city = tmp_path / "shuffled"
    shutil.copytree(city_dir, city)
    rng = random.Random(20251015)
    for path in sorted(city.glob("*.csv")):
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rng.shuffle(rows)
        path.write_text("".join([header, *rows]), encoding="utf-8")
    outputs = [{p.name: p.read_bytes() for p in city_results(source, tmp_path / name).iterdir()}
               for source, name in ((city_dir, "out"), (city, "shuffled_out"))]
    assert {"mv.csv", "manifest.json", "robustness.json"} <= set(outputs[0])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("until, last_stage", [
    ("spillover", "spillover_field"), ("indicators", "indicators"), ("sevi", "scores"),
    ("stats", "validation"), ("gwr", "gwr"), (None, "report"),
])
def test_until_writes_exactly_its_manifest(city_dir, default_run, tmp_path, until, last_stage):
    doc = _run(city_dir, tmp_path, until=until)
    assert doc == _json(tmp_path / "manifest.json")
    assert {p.name for p in tmp_path.iterdir()} == set(doc["files"]) | {"manifest.json"}
    full = [stage["name"] for stage in _json(default_run / "manifest.json")["stages"]]
    assert [stage["name"] for stage in doc["stages"]] == full[:full.index(last_stage) + 1]


def test_robustness_grid_complete_and_baseline_matches_run(city_dir, default_run, tmp_path):
    config = _config(tmp_path)
    returned = robustness(config, city_dir)
    doc = _json(tmp_path / "robustness.json")
    write_json(tmp_path / "returned.json", returned)  # the document that was written
    assert ((tmp_path / "returned.json").read_bytes()
            == (tmp_path / "robustness.json").read_bytes())
    sp = config.raw["spillover"]
    summary = _json(default_run / "gwr_summary.json")
    for p in PERIODS:
        assert set(doc["r2_by_threshold"][p]) == {str(int(d)) for d in sp["sweep_thresholds"]}
        assert set(doc["r2_by_decay"][p]) == set(sp["sweep_decays"])
        cells = list(doc["r2_by_threshold"][p].values()) + list(doc["r2_by_decay"][p].values())
        assert all(isinstance(v, float) and math.isfinite(v) for v in cells)
        baseline = summary["periods"][p]["adjusted_r2"]
        assert doc["r2_by_threshold"][p]["2000"] == baseline
        assert doc["r2_by_decay"][p]["gaussian"] == baseline
    assert doc["tier_validation"]["kw"]["h"] == _json(default_run / "kw.json")["h"]


@pytest.mark.parametrize("bandwidth", [1500, 600])
def test_raw_predictors_give_the_normalized_fit(city_dir, bandwidth):
    # min-max scaling maps each column affinely (the closure column flipped),
    # and a local fit with an intercept is invariant under such a map: the
    # fit is unchanged, and each slope scales by its column's range
    fits = {}
    for source in ("normalized", "raw"):
        config = _config("unused", [f"gwr.bandwidth={bandwidth}", f"gwr.x_source={source}"])
        analysis = _Analysis(_City(config, city_dir), config.spillover_config())
        fits[source] = analysis.gwr
    columns = analysis.normalize.columns
    scale = np.array([(-1.0 if c.aligned else 1.0) * (c.raw_max - c.raw_min) for c in columns])
    assert scale[INDICATOR_NAMES.index("cr")] < 0 and np.all(scale != 0)
    for period in PERIODS:
        norm, raw = fits["normalized"][period], fits["raw"][period]
        assert norm.n_ridged == raw.n_ridged == 0
        np.testing.assert_allclose(raw.adjusted_r2, norm.adjusted_r2, rtol=1e-9)
        np.testing.assert_allclose(raw.trace_s, norm.trace_s, rtol=1e-9)
        # a value near 0 agrees to 1e-9 of the largest one, not of itself
        for got, want in ((raw.residuals, norm.residuals),
                          (raw.beta[:, 1:] * scale, norm.beta[:, 1:])):
            np.testing.assert_allclose(got, want, rtol=1e-9,
                                       atol=1e-9 * np.max(np.abs(want)))


def _projected(path, premium=False):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    xy = np.array([project_to_metric(float(r["lon"]), float(r["lat"])) for r in rows])
    return (xy, np.array([r["is_premium"] == "1" for r in rows])) if premium else xy


def test_tier_counts_match_brute_force_join(city_dir, default_run):
    # per point: the POIs whose math.hypot distance is <= 50 m, found by a
    # scan of the POIs within the 50 m box around the point
    points_xy = _projected(city_dir / "points.csv")
    pois_xy, is_premium = _projected(city_dir / "pois.csv", premium=True)
    expected_total, expected_premium = [], []
    for x, y in points_xy.tolist():
        box = np.flatnonzero((np.abs(pois_xy[:, 0] - x) <= 50.0)
                             & (np.abs(pois_xy[:, 1] - y) <= 50.0))
        hits = [j for j in box.tolist()
                if math.hypot(pois_xy[j, 0] - x, pois_xy[j, 1] - y) <= 50.0]
        expected_total.append(len(hits))
        expected_premium.append(int(is_premium[hits].sum()))

    tables = _City(_config(default_run), city_dir).load
    total, premium = tables.pois.counts_within(tables.points.x, tables.points.y, 50.0)
    assert total.tolist() == expected_total
    assert premium.tolist() == expected_premium
    kw = _json(default_run / "kw.json")
    assert kw["n_active"] == sum(n > 0 for n in expected_total)
    assert kw["n_points"] == len(expected_total)


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def test_geojson_inputs_give_the_csv_artifacts(city_dir, default_run, tmp_path):
    # the city's spatial tables as GeoJSON: points, anchors and POIs become
    # Point features, each segment a LineString through its route-ordered
    # points. With the features of each input shuffled, `run` writes the same
    # bytes, manifest.json included
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    points = _csv_rows(city_dir / "points.csv")
    route = {}
    for row in sorted(points, key=lambda row: int(row[4])):
        route.setdefault(row[3], []).append([float(row[1]), float(row[2])])
    segments = _csv_rows(city_dir / "segments.csv")
    write_feature_collection(city / "points.geojson", POINTS_HEADER, points)
    write_feature_collection(city / "segments.geojson", SEGMENTS_HEADER, segments,
                             [route[row[0]] for row in segments])
    for name, header in (("anchors", ANCHORS_HEADER), ("pois", POIS_HEADER)):
        write_feature_collection(city / f"{name}.geojson", header,
                                 _csv_rows(city_dir / f"{name}.csv"))
    inputs = {name: f"{name}.geojson" for name in ("points", "segments", "anchors", "pois")}

    def run_into(outdir):
        return run(PipelineConfig.from_mapping({"output_dir": str(outdir),
                                                "inputs": {"format": "geojson", **inputs}}),
                   city)

    outdir = tmp_path / "out"
    doc = run_into(outdir)

    assert set(doc["files"]) == set(_json(default_run / "manifest.json")["files"])
    for name in doc["files"]:
        if name != "sevi.geojson":
            assert (outdir / name).read_bytes() == (default_run / name).read_bytes(), name
    with open(default_run / "sevi.csv", newline="", encoding="utf-8") as fh:
        scored = {row["segment_id"]: float(row["sevi"]) for row in csv.DictReader(fh)}
    features = _geojson(outdir / "sevi.geojson")["features"]
    assert [f["id"] for f in features] == sorted(scored)
    for f in features:
        assert f["geometry"] == {"type": "LineString", "coordinates": [
            [round(lon, 7), round(lat, 7)] for lon, lat in route[f["id"]]]}
        assert f["properties"]["sevi"] == scored[f["id"]]

    rng = random.Random(20251015)
    for name in inputs.values():
        collection = json.loads((city / name).read_text(encoding="utf-8"))
        rng.shuffle(collection["features"])
        (city / name).write_text(json.dumps(collection), encoding="utf-8")
    run_into(tmp_path / "shuffled_out")
    outputs = [{p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
               for name in ("out", "shuffled_out")]
    assert {"mv.csv", "manifest.json", "sevi.geojson"} <= set(outputs[0])
    assert outputs[0] == outputs[1]


ODD_SEGMENT, ODD_POINT = 's0000,"é', 'p000000,"ü'


def test_ids_with_csv_and_json_metacharacters_read_back(city_dir, tmp_path):
    # one segment id and one point id hold a comma, a double quote and a
    # non-ASCII letter, which CSV must quote and JSON must escape or keep
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    renamed = {"s0000": ODD_SEGMENT, "p000000": ODD_POINT}
    for name in ("points.csv", "segments.csv", "lbs.csv", "brands.csv"):
        with open(city / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        with open(city / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([[renamed.get(c, c) for c in row] for row in rows])
    outdir = tmp_path / "out"
    run(_config(outdir, ["gwr.bandwidth=1500"]), city)

    point_ids = {row[0] for row in _csv_rows(city / "points.csv")}
    assert ODD_POINT in point_ids
    features = {f["id"]: f["properties"] for f in _geojson(outdir / "sevi.geojson")["features"]}
    assert set(features) == point_ids
    assert {row[0] for row in _csv_rows(outdir / "mv.csv")} == point_ids
    assert ODD_SEGMENT in {row[0] for row in _csv_rows(outdir / "indicators.csv")}
    with open(outdir / "sevi.csv", newline="", encoding="utf-8") as fh:
        scored = {row["segment_id"]: float(row["sevi"]) for row in csv.DictReader(fh)}
    assert features[ODD_POINT]["sevi"] == scored[ODD_SEGMENT]


def test_ingest_round_trip_is_a_fixed_point(city_dir, tmp_path):
    ingest(_config(tmp_path / "first"), city_dir)
    validated = tmp_path / "first" / "validated"
    ingest(_config(tmp_path / "second"), validated)
    again = tmp_path / "second" / "validated"
    names = sorted(p.name for p in validated.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (again / name).read_bytes() == (validated / name).read_bytes(), name

    def lonlat(path):
        return [(float(row[1]), float(row[2])) for row in _csv_rows(path)]

    # the POI coordinates are the input's, not their projection inverted
    assert lonlat(validated / "pois.csv") == lonlat(city_dir / "pois.csv")


def test_byte_order_marks_give_the_same_artifacts(city_dir, default_run, tmp_path):
    # spreadsheet programs save CSV tables with a UTF-8 byte-order mark
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    for table in city.glob("*.csv"):
        table.write_bytes(b"\xef\xbb\xbf" + table.read_bytes())
    outdir = tmp_path / "out"
    doc = _run(city, outdir)
    names = sorted(p.name for p in default_run.iterdir())
    assert sorted(p.name for p in outdir.iterdir()) == names and "manifest.json" in names
    assert set(doc["files"]) <= set(names)
    for name in names:
        assert (outdir / name).read_bytes() == (default_run / name).read_bytes(), name


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_writers_refuse_non_finite_floats(tmp_path, value):
    with pytest.raises(ComputationError, match=r"t\.csv: column 'b': non-finite value"):
        write_csv(tmp_path / "t.csv", ("a", "b"), zip(*[("x", 1.0), ("y", value)]))
    assert not (tmp_path / "t.csv").exists()  # no partial table is left
    # a bad value in a later row of a later column, an array or a list, names that column
    floats = np.arange(6.0)
    for container in (np.array, list):
        with pytest.raises(ComputationError, match=r"t\.csv: column 'd': non-finite value"):
            write_csv(tmp_path / "t.csv", ("a", "b", "c", "d"),
                      (list("uvwxyz"), floats, floats.astype(int),
                       container([*floats[:5], value])))
        assert not (tmp_path / "t.csv").exists()
    # an empty table writes only its header line
    assert write_csv(tmp_path / "t.csv", ("a", "b"), zip(*[])) == "t.csv"
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\n"
    with pytest.raises(ComputationError, match=r"t\.json: non-finite value .* under key 'b'"):
        write_json(tmp_path / "t.json", {"a": 1.0, "b": [0.5, value]})
    # None is the one value written as null
    write_json(tmp_path / "t.json", {"a": None, "b": [0.1234567]})
    assert _json(tmp_path / "t.json") == {"a": None, "b": [0.123457]}
