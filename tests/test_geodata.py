import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevi.exceptions import SchemaError, ValidationError
from sevi.geodata import (COUNT_COLUMNS, EARTH_RADIUS_M, POINTS_HEADER,
                          TablePaths, filter_active, load_tables,
                          metric_to_lonlat, pairs_within, project_to_metric,
                          radius_join, write_tables)
from sevi.geodata import PoiRecord

from .conftest import make_point


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
# pair search
# ---------------------------------------------------------------------------

def _brute_pairs(query_xy, site_xy, r):
    """(query, site) index pairs with math.hypot <= r, in (query, site) order."""
    return [(i, j) for i, (qx, qy) in enumerate(query_xy) for j, (sx, sy) in enumerate(site_xy)
            if math.hypot(sx - qx, sy - qy) <= r]


def _pairs(query_xy, site_xy, r):
    qi, si = pairs_within(np.asarray(query_xy, dtype=float).reshape(-1, 2),
                          np.asarray(site_xy, dtype=float).reshape(-1, 2), r)
    return list(zip(qi.tolist(), si.tolist()))


def test_index_matches_brute_force(rng):
    for _ in range(20):
        n = int(rng.integers(1, 400))
        xy = rng.uniform(0, 1000, (n, 2))
        queries = rng.uniform(0, 1000, (int(rng.integers(1, 30)), 2))
        r = float(rng.uniform(10, 500))
        assert _pairs(queries, xy, r) == _brute_pairs(queries, xy, r)


def test_index_permutation_invariant(rng):
    xy = rng.uniform(0, 100, (200, 2))
    perm = rng.permutation(200)
    queries = rng.uniform(0, 100, (20, 2))
    for r in rng.uniform(5, 60, 5):
        qa, sa = pairs_within(queries, xy, float(r))
        qb, sb = pairs_within(queries, xy[perm], float(r))
        assert qa.tolist() == qb.tolist()
        assert sorted(zip(qa.tolist(), perm[sb].tolist())) == list(zip(qa.tolist(), sa.tolist()))


def test_index_keeps_duplicates():
    xy = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
    assert _pairs([[1.0, 1.0]], xy, 0.5) == [(0, 0), (0, 1)]


def test_index_boundary_is_inclusive():
    # exact 3-4-5 triangle: the distance is exactly representable
    assert _pairs([[0.0, 0.0]], [[3.0, 4.0]], 5.0) == [(0, 0)]
    assert _pairs([[0.0, 0.0]], [[3.0, 4.0]], np.nextafter(5.0, 0.0)) == []


def test_index_empty():
    assert _pairs([[0.0, 0.0]], np.empty((0, 2)), 10.0) == []
    assert _pairs(np.empty((0, 2)), [[0.0, 0.0]], 10.0) == []


def test_pairs_negative_coordinates_and_queries_off_the_grid(rng):
    sites = rng.uniform(-5000, -3000, (300, 2))
    # inside the site extent, just outside it, and far outside it
    queries = np.vstack([rng.uniform(-5200, -2800, (40, 2)),
                         [[-5000 - 75.0, -4000.0], [-2900.0, -2900.0], [1e6, -1e6], [-1e7, 0.0]]])
    assert _pairs(queries, sites, 80.0) == _brute_pairs(queries, sites, 80.0)


def test_pairs_radius_larger_than_extent(rng):
    # 90,000 candidate pairs: more than one chunk of the search
    sites = rng.uniform(0, 50, (300, 2))
    queries = rng.uniform(-100, 150, (300, 2))
    assert _pairs(queries, sites, 400.0) == _brute_pairs(queries, sites, 400.0)
    # one site, or all sites coincident: the extent is zero
    assert _pairs(queries, [[7.0, 7.0]] * 3, 60.0) == _brute_pairs(queries, [[7.0, 7.0]] * 3, 60.0)


def test_pairs_sites_on_cell_edges_and_at_the_radius():
    r = 25.0
    # sites on every multiple of the radius, which are the edges of cells r
    # wide, and queries on the same lattice and halfway between: many pairs
    # sit exactly at distance r
    lattice = [(i * r, j * r) for i in range(-3, 4) for j in range(-3, 4)]
    queries = lattice + [(x + r / 2, y) for x, y in lattice] + [(x, y + r) for x, y in lattice]
    got = _pairs(queries, lattice, r)
    assert got == _brute_pairs(queries, lattice, r)
    assert (0, 1) in got and (0, 7) in got    # the neighbours exactly r away
    # 2 - (1 - 2**-53) rounds to a distance of exactly 1, though in exact
    # arithmetic the site lies just over 1 away: cells exactly 1 wide would
    # put it two cells from the query
    sites = [(0.0, 0.0), (1.0 - 2**-53, 0.0), (3.0, 0.0)]
    assert _pairs([(2.0, 0.0)], sites, 1.0) == [(0, 1), (0, 2)]
    # a far site widens the cells past r, so one cell holds the whole lattice
    wide = lattice + [(1e9, -1e9)]
    assert _pairs(queries, wide, r) == _brute_pairs(queries, wide, r)


def test_pairs_distance_rounds_as_math_hypot():
    # a libm hypot that is not correctly rounded puts these two distances one
    # unit in the last place above and below the correctly rounded math.hypot
    for site in ((980.091, 269.908), (657.957, 216.65)):
        d = math.hypot(*site)
        for r in (d, float(np.nextafter(d, 0.0))):
            assert _pairs([[0.0, 0.0]], [site], r) == _brute_pairs([[0.0, 0.0]], [site], r)


def test_pairs_rejects_bad_input():
    with pytest.raises(ValidationError):
        pairs_within(np.zeros((1, 2)), np.zeros((1, 2)), 0.0)
    with pytest.raises(ValidationError):
        pairs_within(np.zeros((1, 3)), np.zeros((1, 2)), 1.0)
    with pytest.raises(ValidationError):
        pairs_within(np.zeros((1, 2)), np.array([[0.0, np.nan]]), 1.0)


# ---------------------------------------------------------------------------
# radius join and the active filter
# ---------------------------------------------------------------------------

def _poi(pid, x, y, premium=False):
    return PoiRecord(id=pid, x=x, y=y, top_category="shopping", is_premium=premium)


def test_radius_join_simple():
    points = [make_point("p0", 0.0, 0.0)]
    pois = [_poi("q1", 30.0, 0.0), _poi("q2", 60.0, 0.0)]
    assert radius_join(points, pois, 50.0) == {"p0": ["q1"]}


def test_radius_join_coincident_included():
    points = [make_point("p0", 10.0, 10.0)]
    pois = [_poi("q1", 10.0, 10.0)]
    assert radius_join(points, pois, 50.0)["p0"] == ["q1"]


def test_radius_join_sorted_by_poi_id():
    points = [make_point("p0", 0.0, 0.0)]
    pois = [_poi("q9", 1.0, 0.0), _poi("q1", 2.0, 0.0), _poi("q5", 3.0, 0.0)]
    assert radius_join(points, pois, 50.0)["p0"] == ["q1", "q5", "q9"]


def test_radius_join_brute_force_oracle(rng):
    points = [make_point(f"p{i}", *rng.uniform(0, 2000, 2)) for i in range(200)]
    pois = [_poi(f"q{j:03d}", *rng.uniform(0, 2000, 2)) for j in range(500)]
    joined = radius_join(points, pois, 120.0)
    for p in points:
        expected = sorted(
            q.id for q in pois if math.hypot(q.x - p.x, q.y - p.y) <= 120.0
        )
        assert joined[p.id] == expected


_coord = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_coord, _coord), max_size=25),
       st.lists(st.tuples(_coord, _coord, st.integers(0, 30)), max_size=40),
       st.floats(1e-3, 3e4, allow_nan=False))
def test_radius_join_property(point_xy, poi_rows, radius):
    points = [make_point(f"p{i}", x, y) for i, (x, y) in enumerate(point_xy)]
    # ids may repeat a sort key's prefix and arrive in any order
    pois = [_poi(f"q{k}-{j}", x, y) for j, (x, y, k) in enumerate(poi_rows)]
    joined = radius_join(points, pois, radius)
    assert joined == {
        p.id: sorted(q.id for q in pois if math.hypot(q.x - p.x, q.y - p.y) <= radius)
        for p in points
    }


def test_filter_active():
    points = [make_point(f"p{i}") for i in range(3)]
    lists = {"p0": [], "p1": ["q1"], "p2": []}
    active = filter_active(points, lists)
    assert [p.id for p in active] == ["p1"]
    assert filter_active(points, {p.id: [] for p in points}) == []


def test_filter_active_planted_coverage(rng):
    points = [make_point(f"p{i:04d}") for i in range(1000)]
    lists = {p.id: (["q"] if i < 638 else []) for i, p in enumerate(points)}
    active = filter_active(points, lists)
    assert len(active) / len(points) == pytest.approx(0.638)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _minimal_tables(tmp_path, point_rows=(), segment_rows=(("s0", "100.0"),),
                    lbs_rows=None):
    _write_csv(tmp_path / "points.csv", POINTS_HEADER, point_rows)
    _write_csv(tmp_path / "segments.csv", ("id", "length_m"), segment_rows)
    _write_csv(tmp_path / "anchors.csv", ("id", "category", "lon", "lat"),
               [("a0", "mall", "0.001", "0.0")])
    _write_csv(tmp_path / "pois.csv", ("id", "lon", "lat", "top_category", "is_premium"),
               [("q0", "0.0005", "0.0", "shopping", "1")])
    if lbs_rows is None:
        lbs_rows = [("s0", per, "10.0") for per in
                    ("wd_am", "wd_md", "wd_pm", "wd_nt", "we_am", "we_md", "we_pm", "we_nt")]
    _write_csv(tmp_path / "lbs.csv", ("segment_id", "period", "uv"), lbs_rows)
    return TablePaths(points=tmp_path / "points.csv", segments=tmp_path / "segments.csv",
                      anchors=tmp_path / "anchors.csv", pois=tmp_path / "pois.csv",
                      lbs=tmp_path / "lbs.csv")


def _point_row(pid="p0", lon="0.0", lat="0.0", seg="s0", order="0", **overrides):
    counts = {c: "0" for c in COUNT_COLUMNS}
    counts["total_pixels_left"] = counts["total_pixels_right"] = "1000"
    counts.update({k: str(v) for k, v in overrides.items()})
    return (pid, lon, lat, seg, order) + tuple(counts[c] for c in COUNT_COLUMNS)


def test_load_empty_points_file(tmp_path):
    paths = _minimal_tables(tmp_path)
    tables = load_tables(paths)
    assert tables.points == []
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
    assert reloaded.points == tables.points
    assert {s.id: s.length_m for s in reloaded.segments.values()} == \
           {s.id: s.length_m for s in tables.segments.values()}
    assert reloaded.lbs == tables.lbs


def test_geojson_points_ingestion(tmp_path):
    paths = _minimal_tables(tmp_path, point_rows=[_point_row(signboards_left=3)])
    csv_tables = load_tables(paths)

    features = []
    for p in csv_tables.points:
        props = {"id": p.id, "segment_id": p.segment_id, "order": p.order_along_segment}
        props.update({c: getattr(p.detections, c) for c in COUNT_COLUMNS})
        features.append({"type": "Feature",
                         "geometry": {"type": "Point", "coordinates": [p.lon, p.lat]},
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
    assert gj.points == csv_tables.points
    assert gj.segment_geometry == {"s0": [(0.0, 0.0), (0.001, 0.0)]}
    assert [a.id for a in gj.anchors] == ["a0"]
    assert [q.id for q in gj.pois] == ["q0"]
