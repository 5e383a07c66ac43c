import contextlib
import csv
import io
import json
import math
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sevi.cli import main
from sevi.geodata import metric_to_lonlat, project_to_metric
from sevi.pipeline import STAGES, UNTIL_GROUPS, PipelineConfig, run
from sevi.synth import generate_city


def _config(tmp_path, text=""):
    path = tmp_path / "config.yaml"
    path.write_text(f"output_dir: {tmp_path / 'out'}\n{text}", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("option, value", [
    ("--segments", "-1"), ("--segments", "0"), ("--pois", "-3"), ("--seed", "-1"),
])
def test_bad_synth_size_exits_one_naming_its_option(tmp_path, capsys, option, value):
    code = main(["--workdir", str(tmp_path), "synth", "--out", "city", option, value])
    assert code == 1
    assert f"argument {option}: " in capsys.readouterr().err
    assert not (tmp_path / "city").exists()


def test_stage_run_exits_zero(city_dir, tmp_path):
    code = main(["--workdir", str(city_dir), "spillover", "--config", _config(tmp_path)])
    assert code == 0
    assert (tmp_path / "out" / "mv.csv").is_file()


@pytest.mark.parametrize("extra, overrides", [
    ("no_such_key: 1\n", []),
    ("", ["--set", "gwr.no_such_key=1"]),
    ("", ["--set", "brand_weights.local=abc"]),
    ("", ["--set", "spillover.sweep_thresholds=1000"]),
    ("", ["--set", "spillover.sweep_decays=gaussian"]),
    # YAML booleans are not numbers
    ("", ["--set", "spillover.threshold_m=true"]),
    ("", ["--set", "smoothing_window=true"]),
    ("", ["--set", "pca_components=true"]),
    ("", ["--set", "poi_radius_m=true"]),
    # PyYAML reads an exponent without a dot and a sign as a string
    ("", ["--set", "poi_radius_m=1e3"]),
    ("", ["--set", "brand_weights.local=1.0e3"]),
    ("", ["--set", "decode.parallelism=abc"]),
    # an empty sweep has no R^2 to average; a bare name is not a list of names
    ("", ["--set", "spillover.sweep_thresholds=[]"]),
    ("", ["--set", "spillover.sweep_decays=[]"]),
    ("", ["--set", "gwr.summary_variables=mv"]),
    # every bad bandwidth names its key
    ("", ["--set", "gwr.bandwidth=adaptive:0"]),
    ("", ["--set", "gwr.bandwidth=adaptive:x"]),
    ("", ["--set", "gwr.bandwidth=-5"]),
    ("", ["--set", "gwr.bandwidth=wide"]),
    ("", ["--set", "gwr.bandwidth=true"]),
    ("", ["--set", "gwr.bandwidth=.inf"]),
    ("", ["--set", "gwr.bandwidth=1" + "0" * 400]),  # beyond the largest float
    # an infinite threshold has no whole-meter label; an infinite radius
    # counts every POI for every point, so the three tiers are identical
    ("", ["--set", "spillover.threshold_m=.inf"]),
    ("", ["--set", "poi_radius_m=.inf"]),
    # a brand weight beyond the largest float, infinite or NaN
    ("", ["--set", "brand_weights.local=1" + "0" * 400]),
    ("", ["--set", "brand_weights.international=.inf"]),
    ("", ["--set", "brand_weights.ordinary=.nan"]),
    # every path is a non-empty string; only inputs.brands may be null
    ("", ["--set", "output_dir=5"]),
    ("", ["--set", "inputs.points=null"]),
    ("", ["--set", "inputs.brands=7"]),
    # --set sets one leaf key: a section is a mapping, and no leaf takes one
    ("", ["--set", "spillover=5"]),
    ("", ["--set", "gwr=null"]),
    ("", ["--set", "decode=[]"]),
    ("", ["--set", "brand_weights={}"]),
    ("", ["--set", "inputs={points: p.csv}"]),
    # a repeated variable would be summarised twice
    ("", ["--set", "gwr.summary_variables=[mv, mv]"]),
    # the analysis takes no seed
    ("", ["--set", "seed=1"]),
    # the tier ordering names its keys
    ("", ["--set", "brand_weights.local=2"]),
    # each rule below is checked only here, at the config: the modules that
    # the values reach do not check them again
    ("", ["--set", "spillover.threshold_m=0"]),
    ("", ["--set", "spillover.threshold_m=-1"]),
    ("", ["--set", "spillover.decay=cubic"]),
    ("", ["--set", "gwr.kernel=tricube"]),
    ("", ["--set", "smoothing_window=4"]),
    ("", ["--set", "smoothing_window=0"]),
    ("", ["--set", "pca_components=0"]),
    ("", ["--set", "pca_components=10"]),
    ("", ["--set", "gwr.summary_variables=[nope]"]),
])
def test_bad_config_exits_one(city_dir, tmp_path, capsys, extra, overrides):
    argv = ["--workdir", str(city_dir), "spillover", "--config", _config(tmp_path, extra)]
    assert main(argv + overrides) == 1
    # the message names the offending key, and nothing is written
    key = overrides[-1].split("=")[0] if overrides else "no_such_key"
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, key", [
    ("poi_radius_m=1e3", "poi_radius_m"),
    ("brand_weights.local=1.0e3", "brand_weights.local"),
    ("spillover.sweep_thresholds=[1000, 2E+3]", "spillover.sweep_thresholds[1]"),
    ("gwr.bandwidth=1e3", "gwr.bandwidth"),
])
def test_a_yaml_exponent_read_as_text_names_the_number_form(city_dir, tmp_path, capsys,
                                                            override, key):
    argv = ["--workdir", str(city_dir), "spillover", "--config", _config(tmp_path)]
    assert main(argv + ["--set", override]) == 1
    err = capsys.readouterr().err
    assert f"{key} must be a finite number, got the string" in err
    assert "1.0e+3" in err


@pytest.mark.parametrize("override, key", [
    ("poi_radius_m=inf", "poi_radius_m"),
    ("brand_weights.local=abc", "brand_weights.local"),
])
def test_text_that_is_no_finite_number_gets_no_exponent_hint(city_dir, tmp_path, capsys,
                                                             override, key):
    argv = ["--workdir", str(city_dir), "spillover", "--config", _config(tmp_path)]
    assert main(argv + ["--set", override]) == 1
    err = capsys.readouterr().err
    assert f"{key} must be" in err
    assert "1.0e+3" not in err


def test_nul_byte_in_a_path_exits_one(city_dir, tmp_path, capsys):
    argv = ["--workdir", str(city_dir), "spillover",
            "--config", _config(tmp_path, 'inputs: {points: "p\\0.csv"}\n')]
    assert main(argv) == 1
    assert "inputs.points" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, message", [
    # both would be labelled "1000" in robustness.json and robustness.txt
    ("spillover.sweep_thresholds=[1000.4, 1000.6, 3000]", "share the label 1000"),
    ("spillover.sweep_thresholds=[2000, 2000]", "share the label 2000"),
    ("spillover.sweep_thresholds=[.inf]", "finite"),
    # beyond the largest float; the message names the key
    pytest.param("spillover.sweep_thresholds=[1" + "0" * 400 + "]", "spillover.sweep_thresholds",
                 id="beyond-the-largest-float"),
    ("spillover.sweep_decays=[gaussian, linear, gaussian]", "distinct"),
])
def test_colliding_sweep_labels_exit_one(city_dir, tmp_path, capsys, override, message):
    argv = ["--workdir", str(city_dir), "robustness", "--config", _config(tmp_path),
            "--set", override]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "robustness.json").exists()


def _edit_table(path, edit):
    """Replace the rows of the CSV table at `path` by edit(rows)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    fieldnames = list(rows[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(edit(rows))


def _edited_city(city_dir, tmp_path, table, edit):
    """A copy of the city whose `table` rows are replaced by edit(rows)."""
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    _edit_table(city / table, edit)
    return city


def _coincide(rows):  # every anchor of every category at the same spot
    for row in rows:
        row["lon"], row["lat"] = rows[0]["lon"], rows[0]["lat"]
    return rows


@pytest.mark.parametrize("command", ["spillover", "robustness"])
def test_calibration_error_exits_two(city_dir, tmp_path, capsys, command):
    city = _edited_city(city_dir, tmp_path, "anchors.csv", _coincide)
    assert main(["--workdir", str(city), command, "--config", _config(tmp_path)]) == 2
    assert "stage 'calibrate_sigma' failed" in capsys.readouterr().err


@pytest.mark.parametrize("group", UNTIL_GROUPS)
def test_stage_command_writes_the_manifest_of_its_group(city_dir, tmp_path, group):
    assert main(["--workdir", str(city_dir), group, "--config", _config(tmp_path)]) == 0
    run(PipelineConfig.from_mapping({"output_dir": str(tmp_path / "api")}), city_dir,
        until=group)
    assert ((tmp_path / "out" / "manifest.json").read_bytes()
            == (tmp_path / "api" / "manifest.json").read_bytes())


@pytest.mark.parametrize("command, artifact, stage", [
    ("run", "indicators.csv", "indicators"),
    ("robustness", "robustness.json", "robustness"),
    # the manifest closes the last stage of the group
    ("spillover", "manifest.json", "spillover_field"),
    ("ingest", "validated/points.csv", "ingest"),
    # no artifact: the output directory, made in the command's first stage
    ("run", None, "load"),
    ("robustness", None, "load"),
    ("ingest", None, "ingest"),
    ("brands decode", None, "brands decode"),
])
def test_failed_write_exits_two_naming_its_stage(city_dir, corpus_dir, tmp_path, capsys,
                                                  command, artifact, stage):
    # a directory where the artifact goes makes the write fail; a file where
    # the output directory goes makes its mkdir fail
    if artifact is None:
        (tmp_path / "afile").write_text("", encoding="utf-8")
        overrides = ["--set", f"output_dir={tmp_path / 'afile' / 'x'}"]
    else:
        (tmp_path / "out" / artifact).mkdir(parents=True)
        overrides = []
    workdir = corpus_dir if command.startswith("brands") else city_dir
    argv = ["--workdir", str(workdir), *command.split(), "--config", _config(tmp_path)]
    assert main(argv + overrides) == 2
    err = capsys.readouterr().err
    assert f"stage '{stage}' failed" in err and (artifact or "afile") in err


def test_failed_run_leaves_no_manifest(city_dir, tmp_path, capsys):
    # the second run rewrites the early artifacts, then fails: a manifest
    # left from the first run would no longer match them
    argv = ["--workdir", str(city_dir), "run", "--config", _config(tmp_path)]
    assert main(argv) == 0
    assert (tmp_path / "out" / "manifest.json").is_file()
    assert main(argv + ["--set", "smoothing_window=3", "--set", "poi_radius_m=0.001"]) == 2
    assert "stage 'validation' failed" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_adaptive_bandwidth_run(city_dir, tmp_path):
    argv = ["--workdir", str(city_dir), "run", "--config", _config(tmp_path),
            "--set", "gwr.bandwidth=adaptive:30"]
    assert main(argv) == 0
    periods = json.loads((tmp_path / "out" / "gwr_summary.json").read_text(encoding="utf-8"))
    assert len(periods["periods"]) == 8
    for fit in periods["periods"].values():
        assert fit["adaptive_neighbors"] == 30 and fit["bandwidth_m"] is None
        assert math.isfinite(fit["adjusted_r2"])


def test_adaptive_bandwidth_beyond_the_city_exits_one(city_dir, tmp_path, capsys):
    # 500 neighbours of each of the 160 segments
    argv = ["--workdir", str(city_dir), "gwr", "--config", _config(tmp_path),
            "--set", "gwr.bandwidth=adaptive:500"]
    assert main(argv) == 1
    assert "stage 'gwr' failed" in capsys.readouterr().err


def _first_segments(count):
    """A table edit that keeps the rows of the first `count` segments."""
    def edit(rows):
        keep = list(dict.fromkeys(row["segment_id"] for row in rows))[:count]
        return [row for row in rows if row["segment_id"] in keep]
    return edit


def test_too_few_segments_with_crowd_data_exit_one(city_dir, tmp_path, capsys):
    # crowd data for 11 of the 160 segments, against the 9 predictors plus
    # intercept of each local fit: the stage stops before any fit
    city = _edited_city(city_dir, tmp_path, "lbs.csv", _first_segments(11))
    assert main(["--workdir", str(city), "gwr", "--config", _config(tmp_path)]) == 1
    assert ("stage 'gwr' failed: only 11 segments have both indicators and crowd data; "
            "need more than 11") in capsys.readouterr().err
    assert not (tmp_path / "out" / "gwr_summary.json").exists()


def _constant_period(period, uv):
    """A crowd-table edit that sets every intensity of `period` to `uv`."""
    def edit(rows):
        for row in rows:
            if row["period"] == period:
                row["uv"] = uv
        return rows
    return edit


def test_constant_crowd_response_exits_one_naming_its_period(city_dir, tmp_path, capsys):
    # every wd_am intensity is 1.0: no fit can explain a constant response,
    # so the stage stops before any fit and names the period
    city = _edited_city(city_dir, tmp_path, "lbs.csv", _constant_period("wd_am", "1.0"))
    assert main(["--workdir", str(city), "run", "--config", _config(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert ("stage 'gwr' failed: crowd intensity of period 'wd_am' is 1.0 at all 160 "
            "segments with crowd data") in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "gwr_summary.json").exists()


def test_city_too_small_for_its_gwr_exits_two(tmp_path, capsys):
    # 12 segments against the 10 parameters of each local fit: AICc is +inf
    # at every bandwidth the search visits
    city = tmp_path / "city"
    generate_city(city, seed=1, n_segments=12, n_pois=200)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--workdir", str(city), "run", "--config", _config(tmp_path)]) == 2
    assert caught == []  # a failed search reports no boundary
    err = capsys.readouterr().err
    assert "stage 'gwr' failed" in err and "n=12" in err
    assert not (tmp_path / "out" / "gwr_summary.json").exists()


def _set_columns(values):
    """A table edit that sets the named columns of every row."""
    def edit(rows):
        for row in rows:
            row.update(values)
        return rows
    return edit


# a fault that leaves one indicator the same at every segment: {indicator: (table, edit)}
FLAT_CITIES = {
    "cr": ("points.csv", _set_columns({"closed_left": "0", "closed_right": "0"})),
    "sd": ("points.csv", _set_columns({"signboards_left": "0", "signboards_right": "0"})),
    "br": ("brands.csv", _set_columns({"n_local": "0", "n_international": "0",
                                       "n_ordinary": "0"})),
    "gr": ("points.csv", _set_columns({"green_pixels_left": "0", "green_pixels_right": "0"})),
    # every sampling point at one coordinate: mv is equal up to round-off
    "mv": ("points.csv", _coincide),
}


@pytest.mark.parametrize("command", ["sevi", "run", "robustness"])
@pytest.mark.parametrize("indicator", list(FLAT_CITIES))
def test_flat_indicator_exits_one_in_normalize(city_dir, tmp_path, capsys, command, indicator):
    city = _edited_city(city_dir, tmp_path, *FLAT_CITIES[indicator])
    assert main(["--workdir", str(city), command, "--config", _config(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "stage 'normalize' failed" in err
    assert f"indicator {indicator!r} is" in err
    assert "Traceback" not in err
    out = tmp_path / "out"
    for name in ("sevi.csv", "weights.json", "manifest.json"):
        assert not (out / name).exists()
    assert _non_finite_values(out) == []


def _move_anchors_east(city, gap_m):
    """Move every anchor of `city` east by one distance, so that the westmost
    lies `gap_m` east of the eastmost sampling point."""
    with open(city / "points.csv", newline="", encoding="utf-8") as fh:
        east = max(project_to_metric(float(r["lon"]), float(r["lat"]))[0]
                   for r in csv.DictReader(fh))

    def edit(rows):
        xy = [project_to_metric(float(r["lon"]), float(r["lat"])) for r in rows]
        shift = east - min(x for x, _ in xy) + gap_m
        for row, (x, y) in zip(rows, xy):
            row["lon"], row["lat"] = map(repr, metric_to_lonlat(x + shift, y))
        return rows
    _edit_table(city / "anchors.csv", edit)


def test_a_sweep_failure_names_its_spillover_setting(city_dir, tmp_path, capsys):
    # every anchor about 1,300 m from the nearest sampling point: mv varies at
    # the 2000 m default and run exits 0, but at the 1000 m threshold of the
    # sweep no point is in reach, mv is 0 everywhere, and robustness names
    # the variant that failed
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    _move_anchors_east(city, 1300.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a search that ends on a boundary
        assert main(["--workdir", str(city), "run", "--config", _config(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["--workdir", str(city), "robustness", "--config", _config(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: stage 'normalize' failed for spillover threshold 1000 m, decay gaussian: "
        "indicator 'mv' is 0.0 at all 160 segments")


def test_predictor_flat_on_the_segments_with_crowd_data_exits_one_in_gwr(city_dir, tmp_path,
                                                                         capsys):
    # closures only on s0000-s0004, which have no crowd data: cr varies over
    # the city and passes normalize, but is the same at every segment fitted
    few = {"s0000", "s0001", "s0002", "s0003", "s0004"}

    def closures_on_few(rows):
        for row in rows:
            if row["segment_id"] not in few:
                row["closed_left"] = row["closed_right"] = "0"
        return rows

    city = _edited_city(city_dir, tmp_path, "points.csv", closures_on_few)
    _edit_table(city / "lbs.csv", lambda rows: [r for r in rows if r["segment_id"] not in few])
    assert main(["--workdir", str(city), "run", "--config", _config(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "stage 'gwr' failed: predictor 'cr' is constant over the 155 locations" in err
    assert "Traceback" not in err
    assert (tmp_path / "out" / "weights.json").exists()
    assert not (tmp_path / "out" / "manifest.json").exists()


# faults of a tiny city: (table, edit)
CITY_FAULTS = {
    # no non-motor vehicle anywhere: the non-motor density is constant
    "constant column": ("points.csv", _set_columns({"nonmotor_left": "0",
                                                    "nonmotor_right": "0"})),
    # every sampling point at one coordinate
    "coincident points": ("points.csv", _coincide),
    # no brand decoded at any point
    "all-zero brands": ("brands.csv", _set_columns({"n_local": "0", "n_international": "0",
                                                    "n_ordinary": "0"})),
}
STAGE_NAMES = {stage.name for stage in STAGES}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _leaves(node):
    """Every scalar of a JSON document."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _leaves(item)
    else:
        yield node


def _non_finite_values(outdir):
    """(file, value) of every non-finite number written under `outdir`: CSV
    cells and JSON values that parse as one, and nan/inf words in text."""
    found = []
    for path in sorted(outdir.rglob("*")):
        if path.suffix == ".csv":
            with open(path, newline="", encoding="utf-8") as fh:
                cells = [cell for row in csv.reader(fh) for cell in row]
        elif path.suffix in (".json", ".geojson"):
            cells = _leaves(json.loads(path.read_text(encoding="utf-8"), parse_constant=str))
        elif path.is_file():
            cells = NON_FINITE.findall(path.read_text(encoding="utf-8"))
        else:
            continue
        for cell in cells:
            if isinstance(cell, bool) or cell is None:
                continue
            try:
                value = float(cell)
            except (TypeError, ValueError):
                continue
            if not math.isfinite(value):
                found.append((path.name, cell))
    return found


@settings(max_examples=12, deadline=None)
@example(seed=1, segments=12, pois=200, fault=None)  # the city too small for its GWR
@given(seed=st.integers(0, 40), segments=st.integers(8, 40), pois=st.integers(50, 400),
       fault=st.sampled_from([None, *CITY_FAULTS]))
def test_tiny_city_exits_zero_with_finite_artifacts_or_names_its_stage(seed, segments, pois,
                                                                      fault):
    with tempfile.TemporaryDirectory() as tmp:
        city = Path(tmp) / "city"
        generate_city(city, seed=seed, n_segments=segments, n_pois=pois)
        if fault is not None:
            table, edit = CITY_FAULTS[fault]
            _edit_table(city / table, edit)
        (city / "config.yaml").write_text("output_dir: out\n", encoding="utf-8")
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")  # a search that ends on a boundary
            code = main(["--workdir", str(city), "run", "--config", "config.yaml"])
        if code == 0:
            assert _non_finite_values(city / "out") == []
        else:
            assert code in (1, 2), err.getvalue()
            failed = re.search(r"stage '([^']+)' failed", err.getvalue())
            assert failed and failed.group(1) in STAGE_NAMES, err.getvalue()


def _synth_city(segments):
    """Build the `synth --seed 1 --pois 200` city of `segments` segments."""
    def build(city_dir, tmp_path):
        city = tmp_path / "city"
        generate_city(city, seed=1, n_segments=segments, n_pois=200)
        return city
    return build


def _mutated_city(table, edit):
    """Build a copy of the bundled city whose `table` rows are edit(rows)."""
    return lambda city_dir, tmp_path: _edited_city(city_dir, tmp_path, table, edit)


def _tiny_first_length(rows):  # the densities of s0000 overflow to inf
    rows[0]["length_m"] = "1e-320"
    return rows


TINY_LENGTH = ("indicator 'sd' is inf at segment 's0000'; it is computed from "
               "points.signboards_*, segments.length_m")
# the smallest cities that reach each check a command meets:
# {case: (city, command, exit code, failed stage, message)}
DEGENERATE_CITIES = {
    "1 segment": (_synth_city(1), ["run"], 1, "normalize", "at least 2 segments, got 1"),
    "2 segments": (_synth_city(2), ["run"], 1, "stats", "at least 3 observations, got 2"),
    "3 segments": (_synth_city(3), ["run"], 1, "stats", "PCA needs at least 10 rows, got 3"),
    "one anchor": (_mutated_city("anchors.csv", lambda rows: rows[:1]), ["run"], 2,
                   "calibrate_sigma", "no anchor category has two or more members"),
    "no POIs": (_mutated_city("pois.csv", lambda rows: []), ["run"], 2, "validation",
                "at least 3 active points, got 0"),
    "every POI premium": (_mutated_city("pois.csv", _set_columns({"is_premium": "1"})),
                          ["run"], 0, None, None),
    **{f"tiny length, {' '.join(command)}": (_mutated_city("segments.csv", _tiny_first_length),
                                             command, 1, "indicators", TINY_LENGTH)
       for command in (["run"], ["sevi"], ["robustness"],
                       ["robustness", "--set", "gwr.x_source=raw"])},
}


@pytest.mark.parametrize("case", list(DEGENERATE_CITIES))
def test_degenerate_city_exits_in_the_stage_that_checks_it(city_dir, tmp_path, capsys, case):
    build, (command, *options), code, stage, message = DEGENERATE_CITIES[case]
    city = build(city_dir, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a search that ends on a boundary
        assert main(["--workdir", str(city), command, "--config", _config(tmp_path),
                     *options]) == code
    err = capsys.readouterr().err
    out = tmp_path / "out"
    if code == 0:
        assert (out / "manifest.json").is_file()
        assert _non_finite_values(out) == []
    else:
        assert f"stage '{stage}' failed" in err and message in err, err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()


# faults that robustness meets at the configured setting, as run does:
# {case: (table, edit, options, run's error)}
RUN_FAULTS = {
    **{f"tiny length{label}": ("segments.csv", _tiny_first_length, options,
                               "stage 'indicators' failed: " + TINY_LENGTH)
       for label, options in (("", []), (", raw predictors", ["--set", "gwr.x_source=raw"]))},
    "crowd data on 11 segments": (
        "lbs.csv", _first_segments(11), [],
        "stage 'gwr' failed: only 11 segments have both indicators and crowd data; "
        "need more than 11"),
    "flat nd": ("points.csv", _set_columns({"nonmotor_left": "0", "nonmotor_right": "0"}), [],
                "stage 'normalize' failed: indicator 'nd' is 0.0 at all 160 segments"),
    # mv is flat at every setting, and 0.0 at the 1000 m threshold
    "coincident points": (*FLAT_CITIES["mv"], [], "stage 'normalize' failed: indicator 'mv' is "
                          "2.0631209802478314 at all 160 segments"),
}


@pytest.mark.parametrize("case", list(RUN_FAULTS))
def test_robustness_prints_the_error_line_of_run(city_dir, tmp_path, capsys, case):
    # robustness analyses the configured setting first, in run's order and
    # unlabelled, and computes what no setting changes once, for the city:
    # a fault that run meets is named as run names it
    table, edit, options, message = RUN_FAULTS[case]
    city = _edited_city(city_dir, tmp_path, table, edit)
    errors = []
    for command in ("run", "robustness"):
        assert main(["--workdir", str(city), command, "--config", _config(tmp_path),
                     *options]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith(f"error: {message}"), errors[0]
    assert errors[1] == errors[0]


def test_infinite_aicc_at_a_fixed_bandwidth_exits_two(tmp_path, capsys):
    # at a fixed 600 m bandwidth the 12-segment city's fits leave no residual
    # degrees of freedom: every period's AICc is +inf, and no writer takes it
    city = tmp_path / "city"
    generate_city(city, seed=1, n_segments=12, n_pois=200)
    argv = ["--workdir", str(city), "run", "--config", _config(tmp_path),
            "--set", "gwr.bandwidth=600"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "stage 'gwr' failed" in err
    assert "gwr_summary.json: non-finite value inf under key 'aicc'" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_non_utf8_table_exits_one(city_dir, tmp_path, capsys):
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    lines = (city / "anchors.csv").read_bytes().split(b"\n")
    lines[3] = b"\xe9" + lines[3]  # a Latin-1 byte where UTF-8 text is expected
    (city / "anchors.csv").write_bytes(b"\n".join(lines))
    assert main(["--workdir", str(city), "ingest", "--config", _config(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"{city / 'anchors.csv'}: row 4" in err
    assert "not UTF-8" in err and "0xe9" in err


def test_non_utf8_table_with_byte_order_mark_names_its_row(city_dir, tmp_path, capsys):
    # the mark is skipped, but the row of the bad byte is counted in the file
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    lines = (city / "anchors.csv").read_bytes().split(b"\n")
    lines[0] = b"\xef\xbb\xbf" + lines[0]
    lines[3] = b"\xe9" + lines[3]
    (city / "anchors.csv").write_bytes(b"\n".join(lines))
    assert main(["--workdir", str(city), "ingest", "--config", _config(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"{city / 'anchors.csv'}: row 4" in err and "0xe9" in err


@pytest.mark.parametrize("table, row, column, command", [
    ("points.csv", 11, "closed_left", "spillover"),
    ("points.csv", 900, "order", "spillover"),
    ("brands.csv", 21, "n_international", "indicators"),
])
def test_integer_outside_int64_exits_one(city_dir, tmp_path, capsys, table, row, column,
                                         command):
    def edit(rows):
        rows[row - 2][column] = "99999999999999999999"
        return rows

    city = _edited_city(city_dir, tmp_path, table, edit)
    assert main(["--workdir", str(city), command, "--config", _config(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"{city / table}: row {row}, column {column!r}: outside the 64-bit integer" in err


def test_counts_whose_running_total_leaves_int64_exit_one(city_dir, tmp_path, capsys):
    # each side fits in int64, but their sum does not: a sum over both sides
    # of the segment's points would wrap
    def edit(rows):
        rows[10]["signboards_left"] = rows[10]["signboards_right"] = str(2**62)
        return rows

    city = _edited_city(city_dir, tmp_path, "points.csv", edit)
    assert main(["--workdir", str(city), "indicators", "--config", _config(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"{city / 'points.csv'}: row 12, column 'signboards_left': the running total" in err
    assert not (tmp_path / "out" / "indicators.csv").exists()


def test_sparse_brand_city_validates(city_dir, tmp_path):
    # with brand tallies on one point in 30, over two thirds of the active
    # points have a brand premium of 0, so both tertile quantiles fall on 0;
    # the tied zeros stay together and the mid tier takes the next value
    city = _edited_city(city_dir, tmp_path, "brands.csv", lambda rows: rows[::30])
    assert main(["--workdir", str(city), "stats", "--config", _config(tmp_path)]) == 0
    with open(tmp_path / "out" / "tier_validation.csv", newline="", encoding="utf-8") as fh:
        tier_n = {row["tier"]: int(row["n_points"]) for row in csv.DictReader(fh)}
    assert tier_n == {"low": 1506, "mid": 1, "high": 257}


def test_bisquare_with_aicc_search_exits_zero(city_dir, tmp_path):
    # the search meets bandwidths where the effective parameters reach n;
    # AICc is +inf there and the search moves on
    argv = ["--workdir", str(city_dir), "gwr", "--config", _config(tmp_path),
            "--set", "gwr.kernel=bisquare"]
    assert main(argv) == 0
    out = tmp_path / "out"
    periods = json.loads((out / "gwr_summary.json").read_text(encoding="utf-8"))["periods"]
    for period, fit in periods.items():
        assert fit["kernel"] == "bisquare"
        assert all(math.isfinite(fit[k]) for k in ("adjusted_r2", "aicc", "bandwidth_m"))
        with open(out / f"gwr_{period}.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == fit["n"]
        assert all(math.isfinite(float(v)) for row in rows for v in row[1:])


def test_missing_corpus_exits_one(corpus_dir, tmp_path, capsys):
    config = _config(tmp_path, "decode: {corpus: no_such_corpus.csv}\n")
    assert main(["--workdir", str(corpus_dir), "brands", "decode", "--config", config]) == 1
    assert str(corpus_dir / "no_such_corpus.csv") in capsys.readouterr().err


# per fault in corpus.csv (header row 1, images from row 2): the edit of its
# lines and the error it gives
_CORPUS_FAULTS = {
    "duplicate image id": (lambda lines: lines + [lines[1]],
                           "row 52, column 'image_id': duplicate image id 'img0001'"),
    "empty image id": (lambda lines: [*lines[:2], ",p000001", *lines[3:]],
                       "row 3, column 'image_id': empty id"),
    "empty point id": (lambda lines: [*lines[:3], "img0003, ", *lines[4:]],
                       "row 4, column 'point_id': empty id"),
}


@pytest.mark.parametrize("fault", list(_CORPUS_FAULTS))
def test_bad_corpus_id_exits_one_naming_its_row(corpus_dir, tmp_path, capsys, fault):
    edit, message = _CORPUS_FAULTS[fault]
    lines = (corpus_dir / "corpus.csv").read_text(encoding="utf-8").splitlines()
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    config = _config(tmp_path, f"decode: {{corpus: {corpus}}}\n")
    assert main(["--workdir", str(corpus_dir), "brands", "decode", "--config", config]) == 1
    assert f"stage 'brands decode' failed: {corpus}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "assignments.csv").exists()


def test_decode_then_eval(corpus_dir, tmp_path, capsys):
    outputs = {}
    for attempt in ("first", "second"):
        out = tmp_path / attempt
        decode = ["--workdir", str(corpus_dir), "brands", "decode", "--config",
                  _config(tmp_path), "--set", f"output_dir={out}"]
        assert main(decode) == 0
        beval = ["--workdir", str(corpus_dir), "brands", "eval", "--gt", "ground_truth.csv",
                 "--pred", "predictions.csv", "--out", str(out / "eval.json")]
        assert main(beval) == 0
        outputs[attempt] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert outputs["first"] == outputs["second"]
    assert set(outputs["first"]) == {"assignments.csv", "brands.csv", "decode_summary.json",
                                     "eval.json"}
    summary = json.loads(outputs["first"]["decode_summary.json"])
    with open(tmp_path / "first" / "assignments.csv", newline="", encoding="utf-8") as fh:
        assert summary["assignments"] == len(list(csv.DictReader(fh)))
    report = json.loads(outputs["first"]["eval.json"])
    assert 0.0 <= report["overall"]["f1"] <= 1.0
    assert "overall" in capsys.readouterr().out


def test_missing_fixture_fails_in_stage_brands_decode(corpus_dir, tmp_path, capsys):
    fixtures = json.loads((corpus_dir / "fixtures.json").read_text(encoding="utf-8"))
    del fixtures[sorted(fixtures)[0]]
    (tmp_path / "fixtures.json").write_text(json.dumps(fixtures), encoding="utf-8")
    config = _config(tmp_path, f"decode: {{fixtures: {tmp_path / 'fixtures.json'}}}\n")
    assert main(["--workdir", str(corpus_dir), "brands", "decode", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "stage 'brands decode' failed: no offline fixture" in err


def _replace(key, value):
    """A copy of a JSON document with one key set to `value`."""
    return lambda doc: {**doc, key: value}


# per malformed decode input: the file, its edit and the end of the error
_BAD_DECODE_INPUTS = {
    "aliases as one string": ("reference_db.json",
                              _replace("Starbucks", {"tier": "International", "aliases": "星巴克"}),
                              "entry 'Starbucks': aliases must be a list of strings, got '星巴克'"),
    "entry not an object": ("reference_db.json", _replace("Starbucks", "International"),
                            "entry 'Starbucks': expected an object with a tier and aliases, "
                            "got 'International'"),
    "document a list": ("reference_db.json", lambda doc: list(doc),
                        "reference db must map brand names to entries, got a list"),
    "response not a string": ("fixtures.json", lambda doc: _replace(min(doc), 7)(doc),
                              "is not a string: 7"),
}


@pytest.mark.parametrize("case", list(_BAD_DECODE_INPUTS))
def test_malformed_decode_input_exits_one_naming_its_entry(corpus_dir, tmp_path, capsys, case):
    name, edit, message = _BAD_DECODE_INPUTS[case]
    doc = json.loads((corpus_dir / name).read_text(encoding="utf-8"))
    (tmp_path / name).write_text(json.dumps(edit(doc), ensure_ascii=False), encoding="utf-8")
    key = "reference_db" if name == "reference_db.json" else "fixtures"
    config = _config(tmp_path, f"decode: {{{key}: {tmp_path / name}}}\n")
    assert main(["--workdir", str(corpus_dir), "brands", "decode", "--config", config]) == 1
    err = capsys.readouterr().err
    assert "stage 'brands decode' failed: " in err and message in err
    assert not (tmp_path / "out" / "assignments.csv").exists()


def test_eval_writes_its_report_into_a_new_directory(corpus_dir, tmp_path):
    out = tmp_path / "nodir" / "report.json"
    argv = ["--workdir", str(corpus_dir), "brands", "eval", "--gt", "ground_truth.csv",
            "--pred", "predictions.csv", "--out", str(out)]
    assert main(argv) == 0
    assert 0.0 <= json.loads(out.read_text(encoding="utf-8"))["overall"]["f1"] <= 1.0


def test_empty_brand_in_eval_exits_one_naming_its_row(tmp_path, capsys):
    for name in ("gt.csv", "pred.csv"):
        (tmp_path / name).write_text("image_id,brand,tier\nimg0001,,Local\n", encoding="utf-8")
    argv = ["--workdir", str(tmp_path), "brands", "eval", "--gt", "gt.csv", "--pred", "pred.csv"]
    assert main(argv) == 1
    assert f"{tmp_path / 'gt.csv'}: row 2, column 'brand': empty brand" in capsys.readouterr().err


def test_missing_table_fails_in_stage_ingest(city_dir, tmp_path, capsys):
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    (city / "pois.csv").unlink()
    assert main(["--workdir", str(city), "ingest", "--config", _config(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "stage 'ingest' failed: cannot open" in err and str(city / "pois.csv") in err


def test_missing_ground_truth_exits_one(corpus_dir, capsys):
    argv = ["--workdir", str(corpus_dir), "brands", "eval", "--gt", "no_such_gt.csv",
            "--pred", "predictions.csv"]
    assert main(argv) == 1
    assert str(corpus_dir / "no_such_gt.csv") in capsys.readouterr().err
