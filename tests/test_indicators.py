import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevi.exceptions import ConfigError, ValidationError
from sevi.geodata import BrandTally, StreetSegment, TablePaths, load_tables
from sevi.indicators import (INDICATOR_NAMES, BrandWeights, indicator_table,
                             smooth_along_route)
from sevi.pipeline import PipelineConfig, _Analysis, _City

from .conftest import make_points, point_row

# the columns of `indicator_table`: every indicator but the spillover's `mv`
TABLE_NAMES = tuple(name for name in INDICATOR_NAMES if name != "mv")


def _segment_values(points, length=100.0, tallies=None, window=1):
    """indicator_table of a one-segment table: (indicators by name, flag,
    smoothed point series)."""
    segments = {sid: StreetSegment(id=sid, length_m=length)
                for sid in points.segment_ids.tolist()}
    ids, matrix, flags, point_br = indicator_table(points, segments, tallies or {},
                                                   BrandWeights(), window)
    assert len(ids) == 1
    return dict(zip(TABLE_NAMES, matrix[0].tolist())), bool(flags[0]), point_br


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def test_smooth_constant_series():
    out = smooth_along_route([3.5] * 7, window=5)
    assert np.allclose(out, 3.5)


def test_smooth_shrinking_window_hand_values():
    out = smooth_along_route([0, 0, 5, 0, 0], window=5)
    assert np.allclose(out, [5 / 3, 5 / 4, 1.0, 5 / 4, 5 / 3])


def test_smooth_window_one_is_identity(rng):
    values = rng.normal(size=20)
    out = smooth_along_route(values, window=1)
    assert np.array_equal(out, values)
    assert abs(out.mean() - values.mean()) < 1e-12


@pytest.mark.parametrize("window", [0, 2, 4, -1])
def test_smooth_rejects_bad_window(window):
    # the config is the one check of the window; smooth_along_route takes it as given
    with pytest.raises(ConfigError, match="smoothing_window must be"):
        PipelineConfig.from_mapping({"smoothing_window": window})


def test_smooth_stays_within_bounds(rng):
    values = rng.normal(size=50)
    out = smooth_along_route(values, window=7)
    assert out.min() >= values.min() - 1e-12
    assert out.max() <= values.max() + 1e-12


def _slice_means(values, bounds, window):
    """Per-slice np.mean oracle of the windowed smoothing within runs."""
    half, out = window // 2, np.empty(len(values))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for i in range(lo, hi):
            out[i] = np.mean(values[max(lo, i - half):min(hi, i + half + 1)])
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=12),
       st.lists(st.floats(-1e6, 1e6), min_size=132, max_size=132),
       st.sampled_from([1, 3, 5, 7, 9, 11]))
def test_smooth_within_runs_matches_slice_means(runs, draws, window):
    # runs of 1 point and runs shorter than the window included
    bounds = np.concatenate(([0], np.cumsum(runs)))
    values = np.array(draws[:bounds[-1]])
    if window >= 9:  # the premium series is >= 0, so no cancellation
        values = np.abs(values)
    out = smooth_along_route(values, window, bounds)
    expected = _slice_means(values, bounds.tolist(), window)
    if window <= 7:  # np.mean adds fewer than 8 values left to right
        assert out.tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(out, expected, rtol=1e-14, atol=0)


def test_smooth_without_bounds_is_one_run(rng):
    values = rng.uniform(0, 3, 17)
    assert np.array_equal(smooth_along_route(values, 5),
                          smooth_along_route(values, 5, [0, 17]))
    assert smooth_along_route([], 3, [0]).shape == (0,)


# ---------------------------------------------------------------------------
# closure clamp
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nc,ns,expected", [(3, 10, 3), (12, 10, 10), (0, 0, 0)])
def test_clamp_closures(nc, ns, expected):
    # detection noise: closures can never exceed storefronts
    values, _, _ = _segment_values(make_points(point_row(closed_left=nc, signboards_left=ns)))
    assert values["cr"] == (expected / ns if ns else 0.0)


# ---------------------------------------------------------------------------
# brand weights
# ---------------------------------------------------------------------------

def test_brand_weights_defaults():
    w = BrandWeights()
    assert (w.local, w.international, w.ordinary) == (1.0, 1.5, 0.0)


def test_brand_weights_ordering_enforced():
    with pytest.raises(ValidationError):
        BrandWeights(local=2.0, international=1.0)
    with pytest.raises(ValidationError):
        BrandWeights(ordinary=-0.5)


# ---------------------------------------------------------------------------
# segment aggregation
# ---------------------------------------------------------------------------

def test_segment_density_and_closure():
    points = make_points(
        point_row("p0", signboards_left=4, signboards_right=2, closed_left=1),
        point_row("p1", order=1, signboards_left=3, signboards_right=1, closed_right=1),
    )
    values, flag, _ = _segment_values(points, 100.0)
    assert values["sd"] == pytest.approx(0.10)
    assert values["cr"] == pytest.approx(0.20)
    assert not flag


def test_segment_brand_ratio_hand_value():
    # 10 signboards, 2 local + 2 international at default weights -> 0.5
    points = make_points(point_row("p0", signboards_left=10))
    tallies = {"p0": BrandTally(n_local=2, n_international=2)}
    values, _, _ = _segment_values(points, 100.0, tallies)
    assert values["br"] == pytest.approx((2 * 1.0 + 2 * 1.5) / 10)


def test_segment_all_zero_detections():
    points = make_points(point_row("p0"), point_row("p1", order=1))
    # a brand tally on a segment without signboards gives no premium
    values, flag, _ = _segment_values(points, 80.0, {"p0": BrandTally(n_international=3)},
                                      window=5)
    assert list(values.values()) == [0.0] * 8
    assert flag


def test_segment_all_ordinary_brands_score_zero():
    points = make_points(point_row("p0", signboards_left=5))
    values, _, _ = _segment_values(points, 50.0, {"p0": BrandTally(n_ordinary=5)})
    assert values["br"] == 0.0


def test_density_scale_invariance():
    points = make_points(point_row("p0", signboards_left=4, motor_left=6, nonmotor_right=2,
                                   persons_left=8, glass_right=3))
    doubled = make_points(point_row("p0", signboards_left=8, motor_left=12,
                                    nonmotor_right=4, persons_left=16, glass_right=6))
    v1, _, _ = _segment_values(points, 100.0)
    v2, _, _ = _segment_values(doubled, 200.0)
    for name in ("sd", "md", "nd", "pp", "gd"):
        assert v1[name] == pytest.approx(v2[name])


def test_closure_ratio_clamped_to_unit():
    values, _, _ = _segment_values(make_points(point_row(signboards_left=3, closed_left=9)))
    assert values["cr"] == 1.0


def test_green_ratio():
    points = make_points(point_row(green_pixels_left=250, total_pixels_left=1000,
                                   green_pixels_right=250, total_pixels_right=1000))
    values, _, _ = _segment_values(points, 50.0)
    assert values["gr"] == pytest.approx(0.25)
    assert 0.0 <= values["gr"] <= 1.0


def test_mv_passthrough(city_dir):
    # an analysis inserts its setting's mv, the segment means of its field,
    # bit for bit between the city's br and md columns
    config = PipelineConfig.from_mapping({})
    analysis = _Analysis(_City(config, city_dir), config.spillover_config())
    segment_ids, matrix, _, _ = analysis.indicators
    points = analysis.city.load.points
    assert segment_ids == points.route[0]
    assert matrix[:, INDICATOR_NAMES.index("mv")].tobytes() == (
        points.segment_means(analysis.spillover_field).tobytes())
    others = np.delete(matrix, INDICATOR_NAMES.index("mv"), axis=1)
    assert others.tobytes() == analysis.city.indicators[1].tobytes()


# ---------------------------------------------------------------------------
# smoothed brand premium
# ---------------------------------------------------------------------------

def test_smoothed_ratio_window_one_matches_direct():
    points = make_points(
        point_row("p0", order=0, signboards_left=4),
        point_row("p1", order=1, signboards_left=6),
    )
    tallies = {"p0": BrandTally(n_international=2), "p1": BrandTally(n_local=3)}
    values, flag, _ = _segment_values(points, tallies=tallies, window=1)
    direct = (2 * 1.5 + 3 * 1.0) / 10
    assert values["br"] == pytest.approx(direct, abs=1e-12)
    assert not flag


def test_smoothed_ratio_no_signboards():
    values, flag, _ = _segment_values(make_points(point_row()), window=5)
    assert values["br"] == 0.0 and flag


def test_smoothed_ratio_spreads_along_route():
    # a single branded point bleeds into its neighbors under window 5; the
    # rows arrive out of route order
    points = make_points(*(point_row(f"p{i}", order=i, signboards_left=2)
                           for i in (3, 0, 4, 2, 1)))
    tallies = {"p2": BrandTally(n_international=2)}
    values, _, point_br = _segment_values(points, tallies=tallies, window=5)
    series = [0, 0, (2 * 1.5) / 2, 0, 0]
    smoothed = [np.mean(series[max(0, i - 2):i + 3]) for i in range(5)]
    assert point_br.tolist() == [smoothed[i] for i in (3, 0, 4, 2, 1)]
    assert values["br"] == pytest.approx(np.mean(smoothed), abs=1e-12)


# ---------------------------------------------------------------------------
# parity with a per-row reference on the bundled city
# ---------------------------------------------------------------------------

def _reference_table(city_dir, window):
    """The indicators computed point by point from the CSV rows: Python
    integer sums and the same numpy float reductions, per segment in route
    order."""
    with open(city_dir / "points.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(city_dir / "brands.csv", newline="", encoding="utf-8") as fh:
        brands = {r["point_id"]: r for r in csv.DictReader(fh)}
    with open(city_dir / "segments.csv", newline="", encoding="utf-8") as fh:
        lengths = {r["id"]: float(r["length_m"]) for r in csv.DictReader(fh)}
    by_segment = {}
    for r in rows:
        by_segment.setdefault(r["segment_id"], []).append(r)
    half = window // 2
    table, point_br = {}, {}
    for sid in sorted(by_segment):
        route = sorted(by_segment[sid], key=lambda r: int(r["order"]))

        def total(name):
            return sum(int(r[f"{name}_left"]) + int(r[f"{name}_right"]) for r in route)

        series, signboards = [], []
        for r in route:
            ns = int(r["signboards_left"]) + int(r["signboards_right"])
            b = brands.get(r["id"])
            score = (int(b["n_local"]) * 1.0 + int(b["n_international"]) * 1.5
                     + int(b["n_ordinary"]) * 0.0) if b else 0.0
            series.append(score / ns if ns > 0 else 0.0)
            signboards.append(float(ns))
        smoothed = [np.mean(series[max(0, i - half):i + half + 1]) for i in range(len(route))]
        for r, value in zip(route, smoothed):
            point_br[r["id"]] = float(value)
        ns, length, pixels = total("signboards"), lengths[sid], total("total_pixels")
        br = float((np.array(smoothed) * np.array(signboards)).sum() / ns) if ns else 0.0
        table[sid] = [
            ns / length, min(total("closed"), ns) / ns if ns else 0.0, br,
            total("motor") / length, total("nonmotor") / length, total("persons") / length,
            total("green_pixels") / pixels if pixels else 0.0, total("glass") / length,
        ]
    return table, point_br


@pytest.mark.parametrize("window", [1, 5, 7])
def test_indicator_table_matches_per_row_reference(city_dir, window):
    tables = load_tables(TablePaths(
        points=city_dir / "points.csv", segments=city_dir / "segments.csv",
        anchors=city_dir / "anchors.csv", pois=city_dir / "pois.csv",
        lbs=city_dir / "lbs.csv", brands=city_dir / "brands.csv"))
    ids, matrix, flags, point_br = indicator_table(
        tables.points, tables.segments, tables.brands, BrandWeights(), window)

    expected, expected_br = _reference_table(city_dir, window)
    assert ids == sorted(expected)
    assert {sid: row for sid, row in zip(ids, matrix.tolist())} == expected
    assert flags.tolist() == [expected[sid][0] == 0.0 for sid in ids]
    assert dict(zip(tables.points.ids.tolist(), point_br.tolist())) == expected_br
