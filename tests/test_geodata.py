import csv
import dataclasses
import gc
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevi import geodata
from sevi.exceptions import ComputationError, SchemaError, StageError, ValidationError
from sevi.geodata import (ANCHORS_HEADER, BRANDS_HEADER, COUNT_COLUMNS, EARTH_RADIUS_M,
                          LBS_HEADER, PERIODS, POINTS_HEADER, POIS_HEADER, SEGMENTS_HEADER,
                          BrandTally, CityTables, MallAnchor, PoiTable, StreetSegment,
                          TablePaths, load_tables, metric_to_lonlat, project_to_metric)
from sevi.pipeline import PipelineConfig, _City, write_tables

from .conftest import make_points, point_row, table_columns, write_feature_collection


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_projection_origin():
    assert project_to_metric(0.0, 0.0) == (0.0, 0.0)


def test_projection_equatorial_arc():
    x, y = project_to_metric(180.0, 0.0)
    assert x == pytest.approx(math.pi * EARTH_RADIUS_M, abs=1e-6)
    assert y == 0.0


def test_projection_closed_form_oracle():
    # independent evaluation of the forward spherical transform
    lon, lat = 118.78, 32.06
    expected_x = EARTH_RADIUS_M * math.radians(lon)
    expected_y = EARTH_RADIUS_M * math.log(math.tan(math.pi / 4 + math.radians(lat) / 2))
    x, y = project_to_metric(lon, lat)
    assert x == pytest.approx(expected_x, abs=1e-9)
    assert y == pytest.approx(expected_y, abs=1e-6)  # asinh vs ln-tan form, sub-micrometer
    assert x == pytest.approx(13222529.116425034, abs=1e-6)
    assert y == pytest.approx(3771189.1389290714, abs=1e-6)


def test_projection_rejects_out_of_band_latitude():
    with pytest.raises(ValidationError):
        project_to_metric(0.0, 85.5)
    with pytest.raises(ValidationError):
        project_to_metric(0.0, -89.0)


def test_projection_round_trip(rng):
    lons = rng.uniform(-179.9, 179.9, 200)
    lats = rng.uniform(-84.9, 84.9, 200)
    for lon, lat in zip(lons, lats):
        x, y = project_to_metric(lon, lat)
        lon2, lat2 = metric_to_lonlat(x, y)
        assert abs(lon2 - lon) < 1e-9
        assert abs(lat2 - lat) < 1e-9


# ---------------------------------------------------------------------------
# the point table
# ---------------------------------------------------------------------------

def test_route_sorts_segments_by_id_and_points_by_order():
    points = make_points(point_row("a", segment_id="s2", order=5),
                         point_row("b", segment_id="s10", order=0),
                         point_row("c", segment_id="s2", order=1),
                         point_row("d", segment_id="s2", order=3, signboards_right=4))
    segment_ids, perm, bounds = points.route
    assert segment_ids == ["s10", "s2"]
    assert points.ids[perm].tolist() == ["b", "c", "d", "a"]
    assert bounds.tolist() == [0, 1, 4]
    assert points.both_sides("signboards").tolist() == [0, 0, 0, 4]


def test_segment_means_equal_np_mean_over_each_segment_in_route_order():
    # one-point segments among longer ones, the rows shuffled, and values
    # spanning nine orders of magnitude, so the order of the additions shows
    rng = np.random.default_rng(8)
    sizes = [1, 3, 1, 9, 17, 2, 40, 1]
    rows = [point_row(f"p{k}.{j}", segment_id=f"s{k}", order=int(rank))
            for k, size in enumerate(sizes) for j, rank in enumerate(rng.permutation(size))]
    points = make_points(*(rows[i] for i in rng.permutation(len(rows))))
    column = rng.normal(size=len(points)) * 10.0 ** rng.uniform(-3, 6, len(points))
    want = []
    for sid in sorted(set(points.segment_ids.tolist())):
        rows_of = np.flatnonzero(points.segment_ids == sid)
        want.append(np.mean(column[rows_of[np.argsort(points.order[rows_of])]]))
    assert np.array_equal(points.segment_means(column), np.array(want))


def test_segment_sums_equal_a_per_slice_sum_in_route_order():
    # the loop `indicator_table` summed the brand numerator with: np.sum of
    # each segment's route slice, one-point segments included
    rng = np.random.default_rng(9)
    sizes = [1, 5, 1, 1, 12, 33, 2, 64, 1]
    rows = [point_row(f"p{k}.{j}", segment_id=f"s{k}", order=int(rank))
            for k, size in enumerate(sizes) for j, rank in enumerate(rng.permutation(size))]
    points = make_points(*(rows[i] for i in rng.permutation(len(rows))))
    column = rng.normal(size=len(points)) * 10.0 ** rng.uniform(-3, 6, len(points))
    _, perm, bounds = points.route
    routed = column[perm]
    want = [routed[lo:hi].sum() for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    assert np.array_equal(points.segment_sums(column), np.array(want))
    assert np.array_equal(points.segment_means(column), np.array(want) / np.diff(bounds))


def test_id_order_is_computed_once_and_read_only():
    points = make_points(*(point_row(pid) for pid in ("p10", "p2", "p1")))
    assert points.ids[points.by_id].tolist() == ["p1", "p10", "p2"]
    assert points.by_id is points.by_id
    with pytest.raises(ValueError):
        points.by_id[0] = 1


# ---------------------------------------------------------------------------
# radius join (POI counts per point) and the active filter
# ---------------------------------------------------------------------------

def _pois(rows):
    """A PoiTable of (id, x, y, is_premium) rows placed directly in metric
    coordinates."""
    return PoiTable(*table_columns([(pid, 0.0, 0.0, x, y, "shopping", premium)
                                    for pid, x, y, premium in rows],
                                   (object, float, float, float, float, object, bool)))


def _brute_counts(points_xy, poi_rows, radius):
    hits = [[q for q in poi_rows if math.hypot(q[1] - x, q[2] - y) <= radius]
            for x, y in points_xy]
    return [len(h) for h in hits], [sum(q[3] for q in h) for h in hits]


def _counts(points_xy, poi_rows, radius):
    xy = np.asarray(points_xy, dtype=float).reshape(-1, 2)
    total, premium = _pois(poi_rows).counts_within(xy[:, 0], xy[:, 1], radius)
    return total.tolist(), premium.tolist()


def test_radius_join_simple():
    rows = [("q1", 30.0, 0.0, True), ("q2", 60.0, 0.0, True)]
    assert _counts([(0.0, 0.0)], rows, 50.0) == ([1], [1])


def test_radius_join_coincident_included():
    assert _counts([(10.0, 10.0)], [("q1", 10.0, 10.0, False)], 50.0) == ([1], [0])


def test_radius_join_brute_force_oracle(rng):
    points_xy = rng.uniform(0, 2000, (200, 2)).tolist()
    rows = [(f"q{j:03d}", *rng.uniform(0, 2000, 2).tolist(), bool(j % 3 == 0))
            for j in range(500)]
    assert _counts(points_xy, rows, 120.0) == _brute_counts(points_xy, rows, 120.0)


_coord = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_coord, _coord), max_size=25),
       st.lists(st.tuples(_coord, _coord, st.booleans()), max_size=40),
       st.floats(1e-3, 3e4, allow_nan=False))
def test_radius_join_property(points_xy, poi_xy, radius):
    rows = [(f"q{j}", x, y, premium) for j, (x, y, premium) in enumerate(poi_xy)]
    assert _counts(points_xy, rows, radius) == _brute_counts(points_xy, rows, radius)


def _rows(site_xy):
    """POI rows at `site_xy`, every third one premium."""
    return [(f"q{j}", float(x), float(y), j % 3 == 0) for j, (x, y) in enumerate(site_xy)]


def _matches_brute_force(query_xy, site_xy, radius):
    rows = _rows(site_xy)
    return _counts(query_xy, rows, radius) == _brute_counts(query_xy, rows, radius)


def test_index_matches_brute_force(rng):
    for _ in range(20):
        n = int(rng.integers(1, 400))
        xy = rng.uniform(0, 1000, (n, 2))
        queries = rng.uniform(0, 1000, (int(rng.integers(1, 30)), 2))
        assert _matches_brute_force(queries, xy, float(rng.uniform(10, 500)))


def test_index_permutation_invariant(rng):
    rows = _rows(rng.uniform(0, 100, (200, 2)))
    permuted = [rows[k] for k in rng.permutation(200)]
    queries = rng.uniform(0, 100, (20, 2))
    for r in rng.uniform(5, 60, 5):
        assert _counts(queries, rows, float(r)) == _counts(queries, permuted, float(r))


def test_index_keeps_duplicates():
    assert _counts([[1.0, 1.0]], _rows([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]]), 0.5) == ([2], [1])


def test_index_boundary_is_inclusive():
    # exact 3-4-5 triangle: the distance is exactly representable
    site = [("q0", 3.0, 4.0, True)]
    assert _counts([[0.0, 0.0]], site, 5.0) == ([1], [1])
    assert _counts([[0.0, 0.0]], site, np.nextafter(5.0, 0.0)) == ([0], [0])


def test_index_empty():
    assert _counts([[0.0, 0.0]], [], 10.0) == ([0], [0])
    assert _counts(np.empty((0, 2)), _rows([[0.0, 0.0]]), 10.0) == ([], [])


def test_pairs_negative_coordinates_and_queries_off_the_grid(rng):
    sites = rng.uniform(-5000, -3000, (300, 2))
    # inside the site extent, just outside it, and far outside it
    queries = np.vstack([rng.uniform(-5200, -2800, (40, 2)),
                         [[-5000 - 75.0, -4000.0], [-2900.0, -2900.0], [1e6, -1e6], [-1e7, 0.0]]])
    assert _matches_brute_force(queries, sites, 80.0)


def test_pairs_radius_larger_than_extent(rng):
    # 90,000 candidate pairs: more than one chunk of the search
    sites = rng.uniform(0, 50, (300, 2))
    queries = rng.uniform(-100, 150, (300, 2))
    assert _matches_brute_force(queries, sites, 400.0)
    # one site, or all sites coincident: the extent is zero
    assert _matches_brute_force(queries, [[7.0, 7.0]] * 3, 60.0)


@pytest.mark.parametrize("pair_chunk", [1, 5, 2**16])
def test_pairs_chunks_match_brute_force(rng, monkeypatch, pair_chunk):
    # chunks of one location, of a few candidate pairs (locations far off the
    # grid have none, so several share a chunk) and of the whole search
    monkeypatch.setattr(geodata, "_PAIR_CHUNK", pair_chunk)
    sites = rng.uniform(0, 300, (400, 2))
    queries = rng.uniform(-50, 350, (80, 2))
    queries[::7] = [5e4, -5e4]
    assert _matches_brute_force(queries, sites, 40.0)


def test_pairs_sites_on_cell_edges_and_at_the_radius():
    r = 25.0
    # sites on every multiple of the radius, which are the edges of cells r
    # wide, and queries on the same lattice and halfway between: many pairs
    # sit exactly at distance r
    lattice = [(i * r, j * r) for i in range(-3, 4) for j in range(-3, 4)]
    queries = lattice + [(x + r / 2, y) for x, y in lattice] + [(x, y + r) for x, y in lattice]
    total, premium = _counts(queries, _rows(lattice), r)
    assert (total, premium) == _brute_counts(queries, _rows(lattice), r)
    assert total[0] == 3  # the corner site and its two neighbours exactly r away
    # 2 - (1 - 2**-53) rounds to a distance of exactly 1, though in exact
    # arithmetic the site lies just over 1 away: cells exactly 1 wide would
    # put it two cells from the query
    sites = [("q0", 0.0, 0.0, True), ("q1", 1.0 - 2**-53, 0.0, True), ("q2", 3.0, 0.0, False)]
    assert _counts([(2.0, 0.0)], sites, 1.0) == ([2], [1])
    # a far site widens the cells past r, so one cell holds the whole lattice
    assert _matches_brute_force(queries, lattice + [(1e9, -1e9)], r)


def test_pairs_distance_rounds_as_math_hypot():
    # a libm hypot that is not correctly rounded puts these two distances one
    # unit in the last place above and below the correctly rounded math.hypot
    for site in ((980.091, 269.908), (657.957, 216.65)):
        d = math.hypot(*site)
        for r in (d, float(np.nextafter(d, 0.0))):
            assert _matches_brute_force([[0.0, 0.0]], [site], r)


def test_pairs_rejects_bad_input():
    pois = _pois(_rows([[0.0, 0.0]]))
    with pytest.raises(ValidationError, match="radius must be positive"):
        pois.counts_within(np.zeros(1), np.zeros(1), 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="query coordinates must be finite"):
            pois.counts_within(np.zeros(2), np.array([0.0, bad]), 1.0)


def _validation(points_xy, poi_rows):
    """The tier validation of points with brand premiums 0, 1, 2, ..."""
    points = make_points(*(point_row(f"p{i:04d}", x, y) for i, (x, y) in enumerate(points_xy)))
    tables = CityTables(points=points, segments={}, anchors=[], pois=_pois(poi_rows), lbs={})
    city = _City(PipelineConfig.from_mapping({"poi_radius_m": 50.0}), None)
    # the results the validation stage reads: the tables and the brand series
    city.__dict__.update(load=tables, indicators=(None, None, None,
                                                  np.arange(len(points), dtype=float)))
    return city.validation


def test_filter_active():
    # a point is active when at least one POI lies within the radius
    points_xy = [(1000.0 * i, 0.0) for i in range(7)]
    rows = [(f"q{i}", 1000.0 * i + 20.0, 0.0, True) for i in (1, 2, 4, 5, 6)]
    tv = _validation(points_xy, rows)
    assert (tv.n_active, tv.n_points) == (5, 7)
    assert sum(tv.tier_n.values()) == 5
    with pytest.raises(StageError, match="stage 'validation' failed: external validation "
                       "needs at least 3 active points, got 0") as err:
        _validation(points_xy, [("q0", 500.0, 0.0, True)])
    assert isinstance(err.value.cause, ComputationError)


def test_filter_active_planted_coverage():
    points_xy = [(1000.0 * (i % 40), 1000.0 * (i // 40)) for i in range(1000)]
    rows = [(f"q{i}", x, y, True) for i, (x, y) in enumerate(points_xy[:638])]
    tv = _validation(points_xy, rows)
    assert tv.coverage == pytest.approx(0.638)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _minimal_tables(tmp_path, point_rows=(), segment_rows=(("s0", "100.0"),),
                    lbs_rows=None, anchor_rows=(("a0", "mall", "0.001", "0.0"),),
                    poi_rows=(("q0", "0.0005", "0.0", "shopping", "1"),), fmt="csv"):
    """The tables in `fmt`; as GeoJSON each segment runs from (0, 0) to (0.001, 0)."""
    spatial = {"points": (POINTS_HEADER, point_rows, None),
               "segments": (SEGMENTS_HEADER, segment_rows,
                            [[[0.0, 0.0], [0.001, 0.0]]] * len(segment_rows)),
               "anchors": (ANCHORS_HEADER, anchor_rows, None),
               "pois": (POIS_HEADER, poi_rows, None)}
    for name, (header, rows, vertices) in spatial.items():
        if fmt == "csv":
            _write_csv(tmp_path / f"{name}.csv", header, rows)
        else:
            write_feature_collection(tmp_path / f"{name}.{fmt}", header, rows, vertices)
    if lbs_rows is None:
        lbs_rows = [("s0", per, "10.0") for per in
                    ("wd_am", "wd_md", "wd_pm", "wd_nt", "we_am", "we_md", "we_pm", "we_nt")]
    _write_csv(tmp_path / "lbs.csv", ("segment_id", "period", "uv"), lbs_rows)
    return TablePaths(**{name: tmp_path / f"{name}.{fmt}" for name in spatial},
                      lbs=tmp_path / "lbs.csv")


def _point_row(pid="p0", lon="0.0", lat="0.0", seg="s0", order="0", **overrides):
    counts = {c: "0" for c in COUNT_COLUMNS}
    counts["total_pixels_left"] = counts["total_pixels_right"] = "1000"
    counts.update({k: str(v) for k, v in overrides.items()})
    return (pid, lon, lat, seg, order) + tuple(counts[c] for c in COUNT_COLUMNS)


def test_load_empty_points_file(tmp_path):
    paths = _minimal_tables(tmp_path)
    tables = load_tables(paths)
    assert len(tables.points) == 0
    assert tables.points.counts.shape == (0, len(COUNT_COLUMNS))
    assert len(tables.segments) == 1


def test_load_rejects_negative_count(tmp_path):
    paths = _minimal_tables(tmp_path, point_rows=[_point_row(signboards_left=-1)])
    with pytest.raises(SchemaError) as err:
        load_tables(paths)
    assert "points.csv" in str(err.value)
    assert "row 2" in str(err.value)
    assert "signboards_left" in str(err.value)


def test_load_rejects_green_above_total(tmp_path):
    paths = _minimal_tables(tmp_path,
                            point_rows=[_point_row(green_pixels_left=2000)])
    with pytest.raises(SchemaError):
        load_tables(paths)


def test_load_rejects_dangling_segment(tmp_path):
    paths = _minimal_tables(tmp_path, point_rows=[_point_row(seg="missing")])
    with pytest.raises(ValidationError, match="unknown segment"):
        load_tables(paths)


@pytest.mark.parametrize("fmt", ["csv", "geojson"])
def test_dangling_segment_names_its_row_past_the_first_chunk(tmp_path, fmt):
    # point 289 of 300 names no segment: CSV row 290 (its header is row 1),
    # feature 289
    rows = [_point_row(f"p{k}", order=str(k)) for k in range(300)]
    rows[288] = _point_row("p288", seg="zzz", order="288")
    paths = _minimal_tables(tmp_path, point_rows=rows, fmt=fmt)
    with pytest.raises(SchemaError) as err:
        load_tables(paths, fmt)
    row = 290 if fmt == "csv" else 289
    assert str(err.value) == \
        f"{paths.points}: row {row}, column 'segment_id': unknown segment 'zzz'"


def test_dangling_brand_point_names_its_row(tmp_path):
    rows = [_point_row(f"p{k}", order=str(k)) for k in range(3)]
    paths = dataclasses.replace(_minimal_tables(tmp_path, point_rows=rows),
                                brands=tmp_path / "brands.csv")
    _write_csv(paths.brands, BRANDS_HEADER,
               [("p0", "1", "0", "0"), (" nope ", "0", "1", "0"), ("p2", "0", "0", "1")])
    with pytest.raises(SchemaError) as err:
        load_tables(paths)
    assert str(err.value) == f"{paths.brands}: row 3, column 'point_id': unknown point 'nope'"


# each case: a table with a bad row beside a point of unknown segment, and
# the table whose error is raised
_BESIDE_DANGLING = {
    "segments": (dict(segment_rows=[("s0", "100.0"), ("s1", "0")]), "segments"),
    "pois": (dict(poi_rows=[("q0", "0.0005", "0.0", "shopping", "yes")]), "pois"),
    "lbs": (dict(lbs_rows=[("s0", "wd_am", "-1")]), "points"),
}


@pytest.mark.parametrize("case", list(_BESIDE_DANGLING))
def test_dangling_segment_is_checked_after_the_pois(tmp_path, case):
    tables, raised = _BESIDE_DANGLING[case]
    paths = _minimal_tables(tmp_path, point_rows=[_point_row(seg="zzz")], **tables)
    with pytest.raises(SchemaError) as err:
        load_tables(paths)
    assert err.value.path == str(getattr(paths, raised))


def test_load_rejects_duplicate_order(tmp_path):
    rows = [_point_row("p0", order="0"), _point_row("p1", order="0")]
    paths = _minimal_tables(tmp_path, point_rows=rows)
    with pytest.raises(ValidationError, match="duplicate order"):
        load_tables(paths)


def test_load_rejects_duplicate_lbs(tmp_path):
    lbs = [("s0", per, "10.0") for per in
           ("wd_am", "wd_md", "wd_pm", "wd_nt", "we_am", "we_md", "we_pm", "we_nt")]
    lbs.append(("s0", "wd_am", "11.0"))
    paths = _minimal_tables(tmp_path, lbs_rows=lbs)
    with pytest.raises(SchemaError, match="duplicate record"):
        load_tables(paths)


def test_load_rejects_missing_period(tmp_path):
    lbs = [("s0", "wd_am", "10.0")]
    paths = _minimal_tables(tmp_path, lbs_rows=lbs)
    with pytest.raises(ValidationError, match="missing periods"):
        load_tables(paths)


def test_load_rejects_bad_period(tmp_path):
    paths = _minimal_tables(tmp_path, lbs_rows=[("s0", "midnight", "10.0")])
    with pytest.raises(SchemaError, match="period"):
        load_tables(paths)


def _assert_same_columns(a, b):
    for f in dataclasses.fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def test_round_trip_ten_rows(tmp_path, rng):
    rows = []
    for i in range(10):
        rows.append(_point_row(
            pid=f"p{i}", lon=f"{rng.uniform(-1, 1):.8f}", lat=f"{rng.uniform(-1, 1):.8f}",
            order=str(i), signboards_left=int(rng.integers(0, 9)),
            persons_right=int(rng.integers(0, 20)), green_pixels_left=int(rng.integers(0, 1000)),
        ))
    paths = _minimal_tables(tmp_path, point_rows=rows)
    tables = load_tables(paths)
    assert len(tables.points) == 10

    out = tmp_path / "echo"
    write_tables(tables, out)
    reloaded = load_tables(TablePaths(
        points=out / "points.csv", segments=out / "segments.csv",
        anchors=out / "anchors.csv", pois=out / "pois.csv", lbs=out / "lbs.csv"))
    _assert_same_columns(reloaded.points, tables.points)
    _assert_same_columns(reloaded.pois, tables.pois)
    assert {s.id: s.length_m for s in reloaded.segments.values()} == \
           {s.id: s.length_m for s in tables.segments.values()}
    assert reloaded.lbs == tables.lbs


def _city_paths(city_dir):
    return TablePaths(**{name: city_dir / f"{name}.csv" for name in (
        "points", "segments", "anchors", "pois", "lbs", "brands")})


def test_label_columns_share_one_string_per_value(city_dir):
    tables = load_tables(_city_paths(city_dir))
    for labels in (tables.points.segment_ids.tolist(), tables.pois.category.tolist(),
                   [a.category for a in tables.anchors]):
        assert len({id(label) for label in labels}) == len(set(labels)) < len(labels)


def test_load_peak_memory_stays_near_what_the_tables_hold(city_dir):
    # rows are parsed a chunk at a time, so no table is ever held as text
    paths = _city_paths(city_dir)
    load_tables(paths)
    gc.collect()
    tracemalloc.start()
    try:
        tables = load_tables(paths)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tables.points) > 1000
    assert peak <= 1.4 * held, (peak, held)


def test_geojson_points_ingestion(tmp_path):
    paths = _minimal_tables(tmp_path, point_rows=[_point_row(signboards_left=3)])
    csv_tables = load_tables(paths)

    pts = csv_tables.points
    features = []
    for i in range(len(pts)):
        props = {"id": pts.ids[i], "segment_id": pts.segment_ids[i], "order": int(pts.order[i])}
        props.update(zip(COUNT_COLUMNS, pts.counts[i].tolist()))
        features.append({"type": "Feature",
                         "geometry": {"type": "Point",
                                      "coordinates": [float(pts.lon[i]), float(pts.lat[i])]},
                         "properties": props})
    (tmp_path / "points.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": features}))
    (tmp_path / "segments.geojson").write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [{"type": "Feature",
                      "geometry": {"type": "LineString", "coordinates": [[0, 0], [0.001, 0]]},
                      "properties": {"id": "s0", "length_m": 100.0}}]}))
    anchors_fc = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "geometry": {"type": "Point", "coordinates": [0.001, 0.0]},
         "properties": {"id": "a0", "category": "mall"}}]}
    (tmp_path / "anchors.geojson").write_text(json.dumps(anchors_fc))
    pois_fc = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "geometry": {"type": "Point", "coordinates": [0.0005, 0.0]},
         "properties": {"id": "q0", "top_category": "shopping", "is_premium": 1}}]}
    (tmp_path / "pois.geojson").write_text(json.dumps(pois_fc))

    gj = load_tables(TablePaths(
        points=tmp_path / "points.geojson", segments=tmp_path / "segments.geojson",
        anchors=tmp_path / "anchors.geojson", pois=tmp_path / "pois.geojson",
        lbs=tmp_path / "lbs.csv"), fmt="geojson")
    _assert_same_columns(gj.points, csv_tables.points)
    assert gj.segment_geometry == {"s0": [(0.0, 0.0), (0.001, 0.0)]}
    assert [a.id for a in gj.anchors] == ["a0"]
    assert gj.pois.ids.tolist() == ["q0"] and gj.pois.is_premium.tolist() == [True]


# each case: table, the rows that replace its default, index of the bad row, column
_BAD_ROWS = {
    "duplicate anchor id": ("anchors", [("a0", "mall", "0.001", "0.0"),
                                        (" a0 ", "mall", "0.002", "0.0")], 1, "id"),
    "duplicate poi id": ("pois", [("q0", "0.0005", "0.0", "shopping", "1"),
                                  ("q0", "0.0006", "0.0", "shopping", "0")], 1, "id"),
    "empty category": ("anchors", [("a0", " ", "0.001", "0.0")], 0, "category"),
    "out-of-band latitude": ("anchors", [("a0", "mall", "0.001", "0.0"),
                                         ("a1", "mall", "0.001", "85.5")], 1, "lat"),
    "bad is_premium": ("pois", [("q0", "0.0005", "0.0", "shopping", "yes")], 0, "is_premium"),
}


@pytest.mark.parametrize("fmt", ["csv", "geojson"])
@pytest.mark.parametrize("case", list(_BAD_ROWS))
def test_both_encodings_reject_bad_rows(tmp_path, fmt, case):
    table, rows, bad, column = _BAD_ROWS[case]
    paths = _minimal_tables(tmp_path, fmt=fmt, **{f"{table[:-1]}_rows": rows})
    with pytest.raises(SchemaError) as err:
        load_tables(paths, fmt)
    # a CSV row number counts the header; a feature number starts at 1
    row = bad + (2 if fmt == "csv" else 1)
    assert (err.value.path, err.value.row, err.value.column) == \
        (str(getattr(paths, table)), row, column)


@pytest.mark.parametrize("fmt", ["csv", "geojson"])
def test_both_encodings_strip_ids(tmp_path, fmt):
    paths = _minimal_tables(tmp_path, fmt=fmt, anchor_rows=[(" a1 ", " mall ", "0.001", "0.0")],
                            poi_rows=[(" q1 ", "0.0005", "0.0", " shop ", " 0 ")])
    tables = load_tables(paths, fmt)
    assert [(a.id, a.category) for a in tables.anchors] == [("a1", "mall")]
    assert tables.pois.ids.tolist() == ["q1"] and tables.pois.category.tolist() == ["shop"]


def _edit_features(path, edit):
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc["features"])
    path.write_text(json.dumps(doc), encoding="utf-8")


def _coordinates(value):
    """An edit that gives the first feature's geometry these coordinates."""
    return lambda features: features[0]["geometry"].update(coordinates=value)


# each case: table, edit of its feature list, feature number, column
_BAD_FEATURES = {
    "not an object": ("anchors", lambda fs: fs.append(42), 2, "geometry"),
    "wrong geometry": ("anchors", lambda fs: fs[0].update(geometry={
        "type": "LineString", "coordinates": [[0, 0], [1, 1]]}), 1, "geometry"),
    "point without lat": ("pois", _coordinates([0.0005]), 1, "coordinates"),
    "missing property": ("pois", lambda fs: fs[0]["properties"].pop("is_premium"), 1,
                         "is_premium"),
    "null id": ("anchors", lambda fs: fs[0]["properties"].update(id=None), 1, "id"),
    "no properties": ("anchors", lambda fs: fs[0].update(properties=None), 1, "properties"),
    "one vertex": ("segments", _coordinates([[0.0, 0.0]]), 1, "coordinates"),
    "short vertex": ("segments", _coordinates([[0.0, 0.0], [0.001]]), 1, "coordinates"),
    "text vertex": ("segments", _coordinates([[0.0, 0.0], ["x", 0.0]]), 1, "coordinates"),
    "vertex not a list": ("segments", _coordinates([[0.0, 0.0], "12"]), 1, "coordinates"),
}


@pytest.mark.parametrize("case", list(_BAD_FEATURES))
def test_geojson_rejects_malformed_features(tmp_path, case):
    table, edit, feature, column = _BAD_FEATURES[case]
    paths = _minimal_tables(tmp_path, fmt="geojson")
    _edit_features(getattr(paths, table), edit)
    with pytest.raises(SchemaError) as err:
        load_tables(paths, "geojson")
    assert (err.value.path, err.value.row, err.value.column) == \
        (str(getattr(paths, table)), feature, column)


@pytest.mark.parametrize("text", ["{not json", '{"type": "Feature"}', "[]",
                                  '{"type": "FeatureCollection", "features": {}}'])
def test_geojson_rejects_malformed_document(tmp_path, text):
    paths = _minimal_tables(tmp_path, fmt="geojson")
    paths.points.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_tables(paths, "geojson")
    assert err.value.path == str(paths.points) and err.value.row == 0



# ---------------------------------------------------------------------------
# column checks against a row-by-row reference
# ---------------------------------------------------------------------------

def _reference_rows(path, header):
    """(row number, fields) of a CSV table's non-blank rows, read one by one."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        assert tuple(h.strip() for h in next(reader)) == header
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(path, lineno, "-",
                                  f"expected {len(header)} fields, got {len(row)}")
            rows.append((lineno, row))
        return rows


def _ref_int(path, row, column, text):
    """A non-negative int64 field."""
    try:
        value = int(text)
    except ValueError:
        raise SchemaError(path, row, column, f"not an integer: {text!r}")
    if value < 0:
        raise SchemaError(path, row, column, f"must be >= 0, got {value}")
    if not -2**63 <= value < 2**63:
        raise SchemaError(path, row, column, f"outside the 64-bit integer range: {text!r}")
    return value


def _ref_float(path, row, column, text, minimum=None):
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(path, row, column, f"not a number: {text!r}")
    if not math.isfinite(value):
        raise SchemaError(path, row, column, f"not finite: {text!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, row, column, f"must be >= {minimum}, got {value}")
    return value


def _ref_id(path, row, text, seen, what, column="id"):
    ident = text.strip()
    if not ident:
        raise SchemaError(path, row, column, "empty id")
    if ident in seen:
        raise SchemaError(path, row, column, f"duplicate {what} id {ident!r}")
    seen.add(ident)
    return ident


def _ref_lonlat(path, row, lon_text, lat_text):
    lon = _ref_float(path, row, "lon", lon_text)
    lat = _ref_float(path, row, "lat", lat_text)
    if abs(lat) >= 85.06:
        raise SchemaError(path, row, "lat",
                          f"latitude {lat} outside projection band (|lat| < 85.06)")
    return (lon, lat, *project_to_metric(lon, lat))


def _reference_points(path):
    """The row-by-row points loader: every field checked as it is met."""
    seen, placed, table = set(), set(), []
    totals = [0] * (len(COUNT_COLUMNS) // 2)  # per left/right pair, over the rows so far
    for lineno, row in _reference_rows(path, POINTS_HEADER):
        pid = _ref_id(path, lineno, row[0], seen, "point")
        lon, lat, x, y = _ref_lonlat(path, lineno, row[1], row[2])
        sid = row[3].strip()
        order = _ref_int(path, lineno, "order", row[4])
        if (sid, order) in placed:
            raise SchemaError(path, lineno, "order",
                              f"duplicate order {order} within segment {sid!r}")
        placed.add((sid, order))
        counts = tuple(_ref_int(path, lineno, col, text)
                       for col, text in zip(COUNT_COLUMNS, row[5:]))
        for side in ("left", "right"):
            green = COUNT_COLUMNS.index(f"green_pixels_{side}")
            if counts[green] > counts[COUNT_COLUMNS.index(f"total_pixels_{side}")]:
                raise SchemaError(path, lineno, COUNT_COLUMNS[green],
                                  "green pixel count exceeds total pixel count")
        for j in range(0, len(COUNT_COLUMNS), 2):
            totals[j // 2] += counts[j] + counts[j + 1]
            if totals[j // 2] >= 2**63:
                raise SchemaError(path, lineno, COUNT_COLUMNS[j], "the running total of left + "
                                  "right over the file leaves the 64-bit integer range")
        table.append((pid, lon, lat, x, y, sid, order, counts))
    return make_points(*table)


def _reference_segments(path):
    seen, segments = set(), {}
    for lineno, row in _reference_rows(path, SEGMENTS_HEADER):
        sid = _ref_id(path, lineno, row[0], seen, "segment")
        length = _ref_float(path, lineno, "length_m", row[1])
        if length <= 0:
            raise SchemaError(path, lineno, "length_m", f"must be > 0, got {length}")
        segments[sid] = StreetSegment(id=sid, length_m=length)
    return segments


def _reference_anchors(path):
    seen, anchors = set(), []
    for lineno, row in _reference_rows(path, ANCHORS_HEADER):
        aid = _ref_id(path, lineno, row[0], seen, "anchor")
        category = row[1].strip()
        if not category:
            raise SchemaError(path, lineno, "category", "empty category")
        lon, lat, x, y = _ref_lonlat(path, lineno, row[2], row[3])
        anchors.append(MallAnchor(id=aid, category=category, x=x, y=y, lon=lon, lat=lat))
    return anchors


def _reference_pois(path):
    seen, table = set(), []
    for lineno, row in _reference_rows(path, POIS_HEADER):
        pid = _ref_id(path, lineno, row[0], seen, "poi")
        lon, lat, x, y = _ref_lonlat(path, lineno, row[1], row[2])
        premium = row[4].strip()
        if premium not in ("0", "1"):
            raise SchemaError(path, lineno, "is_premium", f"must be 0 or 1, got {premium!r}")
        table.append((pid, lon, lat, x, y, row[3].strip(), premium == "1"))
    return PoiTable(*table_columns(table, (object, float, float, float, float, object, bool)))


_LBS_SEGMENTS = {f"s{k}": StreetSegment(f"s{k}", 100.0) for k in range(3)}


def _reference_lbs(path):
    lbs = {}
    for lineno, row in _reference_rows(path, LBS_HEADER):
        sid = row[0].strip()
        if sid not in _LBS_SEGMENTS:
            raise SchemaError(path, lineno, "segment_id", f"unknown segment {sid!r}")
        period = row[1].strip()
        if period not in PERIODS:
            raise SchemaError(path, lineno, "period",
                              f"unknown period {period!r}; expected one of {list(PERIODS)}")
        uv = _ref_float(path, lineno, "uv", row[2], minimum=0.0)
        slot = lbs.setdefault(sid, {})
        if period in slot:
            raise SchemaError(path, lineno, "period",
                              f"duplicate record for ({sid!r}, {period!r})")
        slot[period] = uv
    for sid, slot in lbs.items():
        missing = [p for p in PERIODS if p not in slot]
        if missing:
            raise ValidationError(f"{path}: segment {sid!r} is missing periods {missing}")
    return lbs


def _reference_brands(path):
    seen, brands = set(), {}
    for lineno, row in _reference_rows(path, BRANDS_HEADER):
        pid = _ref_id(path, lineno, row[0], seen, "point", column="point_id")
        brands[pid] = BrandTally(*(_ref_int(path, lineno, col, text)
                                   for col, text in zip(BRANDS_HEADER[1:], row[1:])))
    return brands


# each table's header and column kinds as they were stated apart, before the
# schemas gave each column its kind
_SEPARATE_KINDS = {
    ("id", "lon", "lat", "segment_id", "order") + COUNT_COLUMNS:
        ("text", "float", "float", "label", "int") + ("int",) * len(COUNT_COLUMNS),
    ("id", "length_m"): ("text", "float"),
    ("id", "category", "lon", "lat"): ("text", "label", "float", "float"),
    ("id", "lon", "lat", "top_category", "is_premium"):
        ("text", "float", "float", "label", "text"),
    ("segment_id", "period", "uv"): ("label", "label", "float"),
    ("point_id", "n_local", "n_international", "n_ordinary"): ("text", "int", "int", "int"),
}


def test_schemas_keep_the_headers_and_kinds():
    schemas = (geodata.POINTS_SCHEMA, geodata.SEGMENTS_SCHEMA, geodata.ANCHORS_SCHEMA,
               geodata.POIS_SCHEMA, geodata.LBS_SCHEMA, geodata.BRANDS_SCHEMA)
    assert {tuple(s): tuple(s.values()) for s in schemas} == _SEPARATE_KINDS
    assert [tuple(s) for s in schemas] == [POINTS_HEADER, SEGMENTS_HEADER, ANCHORS_HEADER,
                                           POIS_HEADER, LBS_HEADER, BRANDS_HEADER]


def _columnar(load, schema, *args):
    return lambda path: load(path, *geodata._read_csv_rows(path, schema), *args)


# per table: header, valid row k, row counts, columnar loader, reference loader
_TABLES = {
    "points": (POINTS_HEADER, lambda k: _point_row(f"p{k}", f"{0.01 * k}", f"{-0.02 * k}",
                                                   f"s{k % 2}", str(k), signboards_left=k),
               st.integers(1, 6), _columnar(geodata._load_points, geodata.POINTS_SCHEMA),
               _reference_points),
    "segments": (SEGMENTS_HEADER, lambda k: (f"s{k}", f"{10.0 + k}"), st.integers(1, 6),
                 _columnar(geodata._load_segments, geodata.SEGMENTS_SCHEMA), _reference_segments),
    "anchors": (ANCHORS_HEADER, lambda k: (f"a{k}", f"cat{k % 2}", f"{0.01 * k}", f"{0.03 * k}"),
                st.integers(1, 6), _columnar(geodata._load_anchors, geodata.ANCHORS_SCHEMA),
                _reference_anchors),
    "pois": (POIS_HEADER, lambda k: (f"q{k}", f"{0.01 * k}", f"{0.03 * k}", "shop", str(k % 2)),
             st.integers(1, 6), _columnar(geodata._load_pois, geodata.POIS_SCHEMA),
             _reference_pois),
    # every period of one or two segments, so a valid table is complete
    "lbs": (LBS_HEADER, lambda k: (f"s{k // 8}", PERIODS[k % 8], f"{1.5 * k}"),
            st.sampled_from([8, 16]),
            _columnar(geodata._load_lbs, geodata.LBS_SCHEMA, _LBS_SEGMENTS), _reference_lbs),
    "brands": (BRANDS_HEADER, lambda k: (f"p{k}", str(k), str(2 * k), "1"), st.integers(1, 6),
               _columnar(geodata._load_brands, geodata.BRANDS_SCHEMA), _reference_brands),
}

# texts that no numeric or id field accepts, and texts that only some columns reject
_FIELD_FAULTS = ["x", "1.5", "-1", "nan", "inf", "-inf", "", " ", "99999999999999999999",
                 "-99999999999999999999"]
_COLUMN_FAULTS = {"lat": ["85.06", "-90"], "green_pixels_left": ["1001"],
                  "signboards_right": [str(2**62), str(2**63 - 1)],
                  "green_pixels_right": ["2000"], "is_premium": ["2", "true"],
                  "length_m": ["0", "-1"], "category": [" "], "period": ["midnight"],
                  "uv": ["-1"], "segment_id": ["s9"]}


def _apply_fault(rows, data, header):
    """One fault in the text rows: a field's text, a padded field, a copied id
    (or the (segment, period) of an lbs row) or (segment, order), a blank line
    or a row of the wrong width. Padding and blank lines are no faults: both
    loaders must accept them."""
    filled = [i for i, row in enumerate(rows) if row]
    k = data.draw(st.sampled_from(filled))
    kind = data.draw(st.sampled_from(["field", "column", "pad", "copy", "blank", "width"]))
    special = [j for j, name in enumerate(header) if name in _COLUMN_FAULTS]
    if kind == "field" or (kind == "column" and not special):
        rows[k][data.draw(st.integers(0, len(header) - 1))] = \
            data.draw(st.sampled_from(_FIELD_FAULTS))
    elif kind == "column":
        j = data.draw(st.sampled_from(special))
        rows[k][j] = data.draw(st.sampled_from(_COLUMN_FAULTS[header[j]]))
    elif kind == "pad":
        j = data.draw(st.integers(0, len(header) - 1))
        rows[k][j] = f" {rows[k][j]}\t"
    elif kind == "copy":
        # the first two fields, then for points (segment, order)
        j = data.draw(st.sampled_from([0, 3] if header == POINTS_HEADER else [0]))
        src = data.draw(st.sampled_from(filled))
        rows[k][j:j + 2] = rows[src][j:j + 2]
    elif kind == "blank":
        rows.insert(k, [])
    else:
        rows[k].append("0")


def _outcome(load, path):
    try:
        return "ok", load(path)
    except ValidationError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("table", list(_TABLES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_column_checks_match_row_reference(tmp_path_factory, table, data):
    # a few faults per table: the columnar loader returns what the row-by-row
    # loader builds, or raises its error for the first bad row
    header, valid_row, n_rows, load, reference = _TABLES[table]
    rows = [list(valid_row(k)) for k in range(data.draw(n_rows))]
    for _ in range(data.draw(st.integers(0, 3))):
        _apply_fault(rows, data, header)
    path = tmp_path_factory.mktemp("table") / f"{table}.csv"
    text = "".join(",".join(row) + "\n" for row in [list(header)] + rows)
    path.write_text(text, encoding="utf-8")

    expected = _outcome(reference, path)
    # at the real chunk size, and at chunks of two rows, which put faults on
    # both sides of chunk boundaries
    for chunk_rows in (geodata._CHUNK_ROWS, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geodata, "_CHUNK_ROWS", chunk_rows)
            got = _outcome(load, path)
        assert got[0] == expected[0], (chunk_rows, got, expected)
        if got[0] == "error" or table not in ("points", "pois"):
            assert got[1] == expected[1]
        else:
            _assert_same_columns(got[1], expected[1])
            assert [getattr(got[1], f.name).dtype for f in dataclasses.fields(got[1])] == \
                [getattr(expected[1], f.name).dtype for f in dataclasses.fields(expected[1])]


# per rejected kind: the fields of one point row past the first chunk (row 290
# of the file; its header is row 1), the column named and the message
_PAST_FIRST_CHUNK = {
    "not an integer": ({"signboards_left": "x"}, "signboards_left", "not an integer: 'x'"),
    "not a number": ({"lon": "x"}, "lon", "not a number: 'x'"),
    "not finite": ({"lat": "inf"}, "lat", "not finite: 'inf'"),
    "negative outside int64": ({"persons_left": "-99999999999999999999"}, "persons_left",
                               "must be >= 0, got -99999999999999999999"),
    "outside int64": ({"glass_right": str(2**63)}, "glass_right",
                      "outside the 64-bit integer range: '9223372036854775808'"),
    "running total": ({"signboards_left": str(2**62)}, "signboards_left",
                      "the running total of left + right over the file leaves the 64-bit "
                      "integer range"),
}


@pytest.mark.parametrize("case", list(_PAST_FIRST_CHUNK))
def test_rejected_text_past_the_first_chunk(tmp_path, case):
    fields, column, message = _PAST_FIRST_CHUNK[case]
    rows = [_point_row(f"p{k}", order=str(k)) for k in range(300)]
    # the running total leaves int64 only at the second of two such rows
    rows[10] = _point_row("p10", order="10", signboards_left=str(2**62))
    rows[288] = tuple({**dict(zip(POINTS_HEADER, rows[288])), **fields}.values())
    paths = _minimal_tables(tmp_path, point_rows=rows)
    with pytest.raises(SchemaError) as err:
        load_tables(paths)
    assert (err.value.row, err.value.column) == (290, column)
    assert str(err.value) == f"{paths.points}: row 290, column {column!r}: {message}"
    with pytest.raises(SchemaError) as reference:
        _reference_points(paths.points)
    assert str(reference.value) == str(err.value)


# every number column of the six schemas, with its table and its kind
_NUMBER_COLUMNS = [(table, name, kind) for table in _TABLES
                   for name, kind in getattr(geodata, f"{table.upper()}_SCHEMA").items()
                   if kind in ("int", "float")]


def test_every_number_column_is_listed():
    assert len(_NUMBER_COLUMNS) == 28


@pytest.mark.parametrize("table, name, kind", _NUMBER_COLUMNS)
def test_every_number_column_is_checked_by_its_kind(tmp_path, table, name, kind):
    # an "x" in row 3 of the file (its header is row 1) of valid rows
    header, valid_row, _, load, _ = _TABLES[table]
    rows = [list(valid_row(k)) for k in range(8 if table == "lbs" else 3)]
    rows[1][header.index(name)] = "x"
    path = tmp_path / f"{table}.csv"
    path.write_text("".join(",".join(row) + "\n" for row in [header, *rows]), encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load(path)
    message = "not an integer: 'x'" if kind == "int" else "not a number: 'x'"
    assert (err.value.row, err.value.column) == (3, name)
    assert str(err.value) == f"{path}: row 3, column {name!r}: {message}"
