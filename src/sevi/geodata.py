"""Data model, ingestion, metric projection, and the cell-grid POI counts.

Sampling points and POIs are held as columns, one array per field and one
row per record in file order (`PointTable`, `PoiTable`). A point's sixteen
detection counts are one row of an (n, 16) int64 matrix in COUNT_COLUMNS
order. The route order sorts the segments by id and each segment's points by
`order`; `PointTable.route` holds it as a permutation plus run bounds, so
a per-segment reduction, as `PointTable.segment_means`, reads one contiguous
slice of the permuted column. `PointTable.by_id` holds the point-id order.

Ingestion reads a table from a CSV file or from a GeoJSON FeatureCollection
(a feature's number is its row, a Point's coordinates fill `lon`/`lat`) and
parses it a chunk of rows at a time, so the text of a whole table is never
held as cells. A table's schema (`POINTS_SCHEMA`, ...) maps its columns, in
header order, to their kinds, and is the one statement of each kind: a
reader parses, strips and checks every column by it and returns the columns
keyed by name. Text is stripped; labels (segment ids, categories, periods)
are held as one str object per distinct value; a number column comes as its
int64/float64 values and its kind's checks, which quote the text of the
rows they reject. A loader adds only the rules that span columns or tables.
Each table is validated by one ordered list of column checks, each a
whole-column rule giving the mask of the rows that break it; the error is
that of the smallest bad row and, on one row, of the check listed first, as
a row-by-row check in that order would raise. A number `int`/`float`
rejects reads as 0: its parse check comes before every check reading the
column. The file-wide running total of each left+right count pair stays
inside int64, so no sum over points wraps. Tables are immutable after load
and safe for concurrent reads.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .exceptions import SchemaError, ValidationError

EARTH_RADIUS_M = 6378137.0
MAX_ABS_LAT = 85.06  # planar metric projection validity band

PERIODS = ("wd_am", "wd_md", "wd_pm", "wd_nt", "we_am", "we_md", "we_pm", "we_nt")

COUNT_COLUMNS = (
    "signboards_left", "signboards_right",
    "closed_left", "closed_right",
    "glass_left", "glass_right",
    "persons_left", "persons_right",
    "motor_left", "motor_right",
    "nonmotor_left", "nonmotor_right",
    "green_pixels_left", "green_pixels_right",
    "total_pixels_left", "total_pixels_right",
)

# each input table's columns in header order, each with its kind: "text"
# stripped, a "label" stripped and held as one str object per distinct value,
# or a number parsed and checked by "int" or "float"
POINTS_SCHEMA = {"id": "text", "lon": "float", "lat": "float", "segment_id": "label",
                 "order": "int", **dict.fromkeys(COUNT_COLUMNS, "int")}
SEGMENTS_SCHEMA = {"id": "text", "length_m": "float"}
ANCHORS_SCHEMA = {"id": "text", "category": "label", "lon": "float", "lat": "float"}
POIS_SCHEMA = {"id": "text", "lon": "float", "lat": "float", "top_category": "label",
               "is_premium": "text"}
LBS_SCHEMA = {"segment_id": "label", "period": "label", "uv": "float"}
BRANDS_SCHEMA = {"point_id": "text", "n_local": "int", "n_international": "int",
                 "n_ordinary": "int"}
POINTS_HEADER, SEGMENTS_HEADER, ANCHORS_HEADER, POIS_HEADER, LBS_HEADER, BRANDS_HEADER = (
    tuple(schema) for schema in (POINTS_SCHEMA, SEGMENTS_SCHEMA, ANCHORS_SCHEMA, POIS_SCHEMA,
                                 LBS_SCHEMA, BRANDS_SCHEMA))


def project_to_metric(lon: float, lat: float) -> tuple[float, float]:
    """Spherical web-mercator forward transform (degrees -> meters).

    Rejects latitudes outside the +/-85.06 deg validity band.
    """
    if not (math.isfinite(lon) and math.isfinite(lat)):
        raise ValidationError(f"non-finite coordinate ({lon}, {lat})")
    if abs(lat) >= MAX_ABS_LAT:
        raise ValidationError(f"latitude {lat} outside the projection validity band "
                              f"(|lat| < {MAX_ABS_LAT})")
    return tuple(v.item() for v in _project((lon,), (lat,)))


def _project(lon, lat) -> tuple[np.ndarray, np.ndarray]:
    """Web-mercator x and y of each lon/lat, by scalar `math` per value
    (numpy's arcsinh(tan) differs in the last bits)."""
    return (np.array([EARTH_RADIUS_M * math.radians(v) for v in lon]),
            # asinh(tan(lat)) == ln(tan(pi/4 + lat/2)), but exact at the equator
            np.array([EARTH_RADIUS_M * math.asinh(math.tan(math.radians(v))) for v in lat]))


def metric_to_lonlat(x: float, y: float) -> tuple[float, float]:
    """Analytic inverse of `project_to_metric`."""
    lon = math.degrees(x / EARTH_RADIUS_M)
    lat = math.degrees(math.atan(math.sinh(y / EARTH_RADIUS_M)))
    return lon, lat


@dataclass
class StreetSegment:
    id: str
    length_m: float


@dataclass
class MallAnchor:
    id: str
    category: str
    x: float
    y: float
    lon: float = 0.0
    lat: float = 0.0


class BrandTally(NamedTuple):
    n_local: int = 0
    n_international: int = 0
    n_ordinary: int = 0


@dataclass(frozen=True, eq=False)
class PointTable:
    """The sampling points as columns, one row per point in file order;
    `counts` is (n, 16) int64 in COUNT_COLUMNS order, read via `both_sides`."""

    ids: np.ndarray          # str objects
    lon: np.ndarray
    lat: np.ndarray
    x: np.ndarray
    y: np.ndarray
    segment_ids: np.ndarray  # str objects
    order: np.ndarray        # int64 rank along the segment
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def both_sides(self, name: str) -> np.ndarray:
        """Per point, the left plus the right count of `name` ("signboards", ...)."""
        j = COUNT_COLUMNS.index(f"{name}_left")
        return self.counts[:, j] + self.counts[:, j + 1]

    @cached_property
    def route(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Route order: the segments that hold points sorted by id, each one's
        points by `order`. (segment_ids, perm, bounds), computed once per
        table and read-only; the points of `segment_ids[k]` are rows
        `perm[bounds[k]:bounds[k + 1]]`."""
        segment_ids, code = np.unique(self.segment_ids, return_inverse=True)
        perm = np.lexsort((self.order, code))
        bounds = np.searchsorted(code[perm], np.arange(len(segment_ids) + 1))
        perm.flags.writeable = bounds.flags.writeable = False
        return segment_ids.tolist(), perm, bounds

    def segment_means(self, column) -> np.ndarray:
        """Per segment of `route`, the mean of `column` (a float per point, in
        table order): its values added in route order over their count, as np.mean."""
        _, perm, bounds = self.route
        values, edges = column[perm], bounds.tolist()
        sums = [values[lo:hi].sum() for lo, hi in zip(edges, edges[1:])]
        return np.array(sums) / np.diff(bounds)

    @cached_property
    def by_id(self) -> np.ndarray:
        """The rows in point-id order, computed once per table and read-only."""
        order = np.argsort(self.ids)
        order.flags.writeable = False
        return order


# candidate (location, POI) pairs `PoiTable.counts_within` tests at once;
# bounds its working memory
_PAIR_CHUNK = 2**14


@dataclass(frozen=True, eq=False)
class PoiTable:
    """The POIs as columns, one row per POI in file order."""

    ids: np.ndarray         # str objects
    lon: np.ndarray
    lat: np.ndarray
    x: np.ndarray
    y: np.ndarray
    category: np.ndarray    # str objects
    is_premium: np.ndarray  # bool

    def __len__(self) -> int:
        return len(self.ids)

    def counts_within(self, x, y, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """For each location (x[i], y[i]), the number of POIs within `radius`
        meters and the number of premium ones among them.

        The test is the correctly rounded `math.hypot(dx, dy) <= radius`, and
        duplicate POIs count apart. The POIs are bucketed into square cells at
        least `radius` wide, so a location's candidates are the POIs of the
        3 x 3 cells around its own: three contiguous runs of the cell-sorted
        POIs, found with `np.searchsorted`.
        """
        if not radius > 0:
            raise ValidationError(f"radius must be positive, got {radius}")
        q = np.column_stack((x, y)).astype(float)
        if not np.all(np.isfinite(q)):
            raise ValidationError("query coordinates must be finite")
        total = np.zeros(len(q), dtype=np.intp)
        premium = np.zeros(len(q), dtype=np.intp)
        if len(q) == 0 or len(self) == 0:
            return total, premium

        s = np.column_stack((self.x, self.y))
        lo = s.min(axis=0)
        span = s.max(axis=0) - lo
        # at most 2**20 cells a side keeps a row-major cell key inside int64; the
        # 2**-20 widening keeps rounding in the cell coordinates from putting a
        # POI at distance exactly `radius` two cells away from its location
        cell = max(float(radius), float(span.max()) / 2**20) * (1.0 + 2**-20)
        ncols, nrows = (np.floor(span / cell).astype(np.int64) + 1).tolist()
        site_cell = np.floor((s - lo) / cell).astype(np.int64)
        site_key = site_cell[:, 1] * ncols + site_cell[:, 0]
        order = np.argsort(site_key)
        site_key = site_key[order]

        # a location more than one cell off the grid reaches no POI, so its cell
        # is clamped there; the column run is clamped to the grid, so the key
        # runs of rows outside it are empty
        q_cell = np.clip(np.floor((q - lo) / cell), -1, [ncols, nrows]).astype(np.int64)
        col_lo = np.maximum(q_cell[:, 0] - 1, 0)[:, None]
        col_hi = np.minimum(q_cell[:, 0] + 1, ncols - 1)[:, None]
        row_key = (q_cell[:, 1, None] + np.arange(-1, 2)) * ncols
        start = np.searchsorted(site_key, row_key + col_lo, side="left")
        count = np.searchsorted(site_key, row_key + col_hi, side="right") - start
        per_query = count.sum(axis=1)
        cum = np.concatenate(([0], np.cumsum(per_query)))

        a = 0
        while a < len(q):
            b = max(int(np.searchsorted(cum, cum[a] + _PAIR_CHUNK, side="right")) - 1, a + 1)
            run_start, run_len = start[a:b].ravel(), count[a:b].ravel()
            # the k-th candidate of a run sits at run_start + k in the sorted POIs
            pos = np.repeat(run_start - (np.cumsum(run_len) - run_len), run_len)
            si = order[pos + np.arange(int(cum[b] - cum[a]))]
            qi = np.repeat(np.arange(b - a), per_query[a:b])
            dx = s[si, 0] - q[a:b, 0][qi]
            dy = s[si, 1] - q[a:b, 1][qi]
            dist = np.hypot(dx, dy)
            keep = dist <= radius
            # np.hypot may round one unit in the last place away from math.hypot;
            # pairs that close to the radius are settled by math.hypot
            for k in np.flatnonzero(np.abs(dist - radius) <= np.spacing(radius)).tolist():
                keep[k] = math.hypot(dx[k], dy[k]) <= radius
            qi, si = qi[keep], si[keep]
            total[a:b] = np.bincount(qi, minlength=b - a)
            premium[a:b] = np.bincount(qi[self.is_premium[si]], minlength=b - a)
            a = b
        return total, premium


@dataclass
class CityTables:
    """Validated, referentially consistent in-memory tables."""

    points: PointTable
    segments: dict[str, StreetSegment]
    anchors: list[MallAnchor]
    pois: PoiTable
    lbs: dict[str, dict[str, float]]              # segment_id -> period -> uv
    brands: dict[str, BrandTally] | None = None   # point_id -> tally
    segment_geometry: dict[str, list[tuple[float, float]]] | None = None


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

# rows parsed at once: only a chunk's text is held, and its row lists die
# before 700 allocations start a GC pass
_CHUNK_ROWS = 256


def _parsed(parse, text: str):
    """`parse(text)` (int or float), or None when the text is no such number."""
    try:
        return parse(text)
    except ValueError:
        return None


def _number_column(cells: tuple[str, ...], kind: str) -> tuple[np.ndarray, np.ndarray]:
    """One number column of a chunk, "int" or "float": its values and the
    mask of the cells the kind rejects: no number (read as 0), not finite,
    negative, or outside int64 (read clipped)."""
    parse = int if kind == "int" else float
    try:
        column = np.fromiter(map(parse, cells), np.int64 if parse is int else float, len(cells))
        return column, column < 0 if parse is int else ~np.isfinite(column)
    except (ValueError, OverflowError):  # a cell that is no number, or outside int64
        values = [_parsed(parse, cell) for cell in cells]
    unparsed = [i for i, value in enumerate(values) if value is None]
    for i in unparsed:
        values[i] = 0
    if parse is float:
        column = np.array(values, dtype=float)
        bad = ~np.isfinite(column)
    else:
        wide = np.array(values, dtype=object)
        column = np.clip(wide, -2**63, 2**63 - 1).astype(np.int64)
        bad = (wide < 0) | (wide >= 2**63)
    bad[unparsed] = True
    return column, bad


def _columns(chunks, schema: dict[str, str]) -> dict:
    """Rows of texts, parsed a chunk at a time, as the columns of `schema`
    keyed by name: "text" as a list of stripped str, "label" the same with
    one str object per distinct value, and "int" and "float" as the
    (values, checks) of `_ints` and `_floats`, which quote the text of each
    row they reject."""
    kinds = tuple(schema.values())
    columns = [[] for _ in kinds]
    shared = [{} for _ in kinds]      # a label column's one str per value
    rejected = [{} for _ in kinds]
    start = 0
    for chunk in chunks:
        for j, (kind, cells) in enumerate(zip(kinds, zip(*chunk))):
            if kind == "text":
                columns[j].extend(map(str.strip, cells))
            elif kind == "label":
                labels = list(map(str.strip, cells))
                columns[j].extend(map(shared[j].setdefault, labels, labels))
            else:
                values, bad = _number_column(cells, kind)
                columns[j].append(values)
                for i in np.flatnonzero(bad).tolist():
                    rejected[j][start + i] = cells[i]
        start += len(chunk)
    checked = {"int": (_ints, np.int64), "float": (_floats, float)}
    for j, (name, kind) in enumerate(schema.items()):
        if kind in checked:
            check, dtype = checked[kind]
            columns[j] = check(name, np.concatenate([np.empty(0, dtype), *columns[j]]), rejected[j])
    return dict(zip(schema, columns))


def _read_csv_rows(path: Path, schema: dict[str, str]):
    """A CSV table's non-blank rows as (row numbers, its `schema` columns
    keyed by name, each of its kind); the header is row 1 and lists the
    schema's columns in order. A UTF-8 byte-order mark before the header is
    skipped. A row of another width raises as it is read."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc
    width = len(schema)
    lines = []

    def chunks(reader):
        start = 2
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            numbers = range(start, start + len(chunk))
            start += len(chunk)
            if set(map(len, chunk)) != {width}:  # blank rows, or a row of another width
                numbers = [lineno for lineno, row in zip(numbers, chunk) if row]
                chunk = [row for row in chunk if row]
                widths = np.fromiter(map(len, chunk), dtype=np.intp, count=len(chunk))
                _raise_first(path, numbers, [_Check("-", widths != width, lambda i: (
                    f"expected {width} fields, got {widths[i]}"))])
            lines.extend(numbers)
            yield chunk

    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(path, 0, "-", "file is empty (header row required)")
            if [h.strip() for h in header] != list(schema):
                raise SchemaError(
                    path, 1, "-",
                    f"header {header} does not match expected {list(schema)}",
                )
            columns = _columns(chunks(reader), schema)
        except UnicodeDecodeError:
            _raise_not_utf8(path)
    return lines, columns


def _raise_not_utf8(path: Path):
    """Raise a `SchemaError` naming the line of the first byte of `path` that
    is not UTF-8; the streaming decoder only knows its offset in a chunk."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(path, data.count(b"\n", 0, exc.start) + 1, "-",
                          f"not UTF-8 text: byte {data[exc.start]:#04x} at offset "
                          f"{exc.start} ({exc.reason})") from None
    raise ValidationError(f"{path} changed while it was read")


def _read_geojson_rows(path: Path, schema: dict[str, str]):
    """The features of a GeoJSON FeatureCollection as a `_read_csv_rows`
    table: (feature numbers, the `schema` columns keyed by name).

    With lon/lat in the schema the features are Points whose coordinates
    fill those two fields; otherwise they are LineStrings. Returns the table
    and, for LineStrings, each one's [(lon, lat), ...] vertices (else None).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(path, 0, "-", f"not a JSON document: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise SchemaError(path, 0, "type", "expected a FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list):
        raise SchemaError(path, 0, "features", "expected a list of features")
    shape = "Point" if "lon" in schema else "LineString"
    vertices = [] if shape == "LineString" else None

    def rows():
        for i, feat in enumerate(features, start=1):
            geom = feat.get("geometry") if isinstance(feat, dict) else None
            if not isinstance(geom, dict) or geom.get("type") != shape:
                raise SchemaError(path, i, "geometry", f"expected a {shape} feature")
            props = feat.get("properties")
            if not isinstance(props, dict):
                raise SchemaError(path, i, "properties", "expected an object")
            coords = geom.get("coordinates")
            if not (isinstance(coords, list) and len(coords) >= 2):
                raise SchemaError(path, i, "coordinates", "expected [lon, lat] for a Point, "
                                  f"two or more such vertices for a LineString; got {coords!r}")
            if shape == "Point":
                props = {**props, "lon": coords[0], "lat": coords[1]}
            else:
                vertices.append([_vertex(path, i, k, c) for k, c in enumerate(coords)])
            missing = [name for name in schema if name not in props]
            if missing:
                raise SchemaError(path, i, missing[0], "missing property")
            yield ["" if props[name] is None else str(props[name]) for name in schema]

    texts = rows()
    columns = _columns(iter(lambda: list(islice(texts, _CHUNK_ROWS)), []), schema)
    return (list(range(1, len(features) + 1)), columns), vertices


def _vertex(path, feature, k, c) -> tuple[float, float]:
    """Vertex `k` of a LineString feature as a finite (lon, lat)."""
    try:
        lon, lat = float(c[0]), float(c[1])
    except (TypeError, ValueError, IndexError, KeyError):
        lon = lat = math.nan
    if not (isinstance(c, list) and math.isfinite(lon) and math.isfinite(lat)):
        raise SchemaError(path, feature, "coordinates",
                          f"vertex {k}: expected finite [lon, lat], got {c!r}")
    return lon, lat


class _Check(NamedTuple):
    """A rule over a column: the mask of the rows that break it, and row i's message."""

    column: str
    bad: np.ndarray | None
    message: Callable[[int], str]


def _raise_first(path, lines, checks: list[_Check]):
    """Raise the SchemaError of the smallest bad row; on one row the check
    listed first wins, as a row-by-row check in that order would stop there."""
    found = [(int(check.bad.argmax()), k) for k, check in enumerate(checks)
             if check.bad is not None and check.bad.any()]
    if found:
        i, k = min(found)
        raise SchemaError(path, lines[i], checks[k].column, checks[k].message(i))


def _isin(values: list, allowed) -> np.ndarray:
    """Mask of the values in `allowed`, a set, dict or tuple."""
    return np.fromiter(map(allowed.__contains__, values), dtype=bool, count=len(values))


def _repeats(keys: list) -> np.ndarray | None:
    """Mask of the keys equal to an earlier key; None when all differ."""
    if len(set(keys)) == len(keys):
        return None
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return np.fromiter(map(first.__getitem__, keys), np.intp, len(keys)) != np.arange(len(keys))


def _id_checks(column: str, ids: list[str], what: str) -> list[_Check]:
    return [_Check(column, None if all(ids) else _isin(ids, {""}), lambda i: "empty id"),
            _Check(column, _repeats(ids), lambda i: f"duplicate {what} id {ids[i]!r}")]


def _mask(n: int, rows) -> np.ndarray | None:
    """The mask of `rows` among n rows; None when there are none."""
    rows = list(rows)
    if not rows:
        return None
    mask = np.zeros(n, dtype=bool)
    mask[rows] = True
    return mask


def _floats(column: str, values: np.ndarray, texts: dict[int, str]):
    """A column of finite floats and its checks; `texts` holds, by row
    index, the text of each row the column rejects."""
    finite = np.isfinite(values)
    # a rejected row that reads finite read as 0: its text is no number
    return values, [_Check(column, _mask(len(values), (i for i in texts if finite[i])),
                           lambda i: f"not a number: {texts[i]!r}"),
                    _Check(column, ~finite, lambda i: f"not finite: {texts[i]!r}")]


def _ints(column: str, values: np.ndarray, texts: dict[int, str]):
    """A column of non-negative int64 and its checks; values outside int64 read clipped."""
    wide = {i: _parsed(int, text) for i, text in texts.items()}
    outside = (i for i, v in wide.items() if v is not None and not -2**63 <= v < 2**63)
    return values, [_Check(column, _mask(len(values), (i for i, v in wide.items() if v is None)),
                           lambda i: f"not an integer: {texts[i]!r}"),
                    _Check(column, values < 0, lambda i: f"must be >= 0, got {wide[i]}"),
                    _Check(column, _mask(len(values), outside),
                           lambda i: f"outside the 64-bit integer range: {texts[i]!r}")]


def _coordinates(columns: dict) -> tuple[np.ndarray, np.ndarray, list[_Check]]:
    """The lon and lat columns and their checks, the projection band last."""
    (lon, lon_checks), (lat, lat_checks) = columns["lon"], columns["lat"]
    return lon, lat, [*lon_checks, *lat_checks, _Check(
        "lat", np.abs(lat) >= MAX_ABS_LAT,
        lambda i: f"latitude {lat[i].item()} outside projection band (|lat| < {MAX_ABS_LAT})")]


def _total_overflows(pair: np.ndarray) -> np.ndarray | None:
    """Mask of the rows from which the running total of both columns of
    `pair` over the file leaves int64; None when no total comes near it."""
    if np.cumsum(pair.sum(axis=1, dtype=float)).max(initial=0.0) < 2.0**62:
        return None
    return np.cumsum(pair.astype(object).sum(axis=1)) >= 2**63


def _load_points(path: Path, lines, columns) -> PointTable:
    ids, segment_ids = columns["id"], columns["segment_id"]
    lon, lat, checks = _coordinates(columns)
    order, order_checks = columns["order"]
    counts = np.array([columns[name][0] for name in COUNT_COLUMNS]).T  # (n, 16), column by column
    placed = list(zip(segment_ids, order.tolist()))
    _raise_first(path, lines, [
        *_id_checks("id", ids, "point"), *checks, *order_checks,
        _Check("order", _repeats(placed),
               lambda i: f"duplicate order {placed[i][1]} within segment {placed[i][0]!r}"),
        *(check for name in COUNT_COLUMNS for check in columns[name][1]),
        *(_Check(f"green_pixels_{side}",
                 columns[f"green_pixels_{side}"][0] > columns[f"total_pixels_{side}"][0],
                 lambda i: "green pixel count exceeds total pixel count")
          for side in ("left", "right")),
        *(_Check(COUNT_COLUMNS[j], _total_overflows(counts[:, j:j + 2]),
                 lambda i: "the running total of left + right over the file leaves the 64-bit "
                           "integer range") for j in range(0, len(COUNT_COLUMNS), 2)),
    ])
    return PointTable(np.array(ids, dtype=object), lon, lat, *_project(lon.tolist(), lat.tolist()),
                      np.array(segment_ids, dtype=object), order, counts)


def _load_segments(path: Path, lines, columns) -> dict[str, StreetSegment]:
    ids, (length, checks) = columns["id"], columns["length_m"]
    positive = _Check("length_m", length <= 0, lambda i: f"must be > 0, got {length[i].item()}")
    _raise_first(path, lines, [*_id_checks("id", ids, "segment"), *checks, positive])
    return {sid: StreetSegment(sid, m) for sid, m in zip(ids, length.tolist())}


def _load_anchors(path: Path, lines, columns) -> list[MallAnchor]:
    ids, category = columns["id"], columns["category"]
    lon, lat, checks = _coordinates(columns)
    empty = _Check("category", _isin(category, {""}), lambda i: "empty category")
    _raise_first(path, lines, [*_id_checks("id", ids, "anchor"), empty, *checks])
    x, y = _project(lon.tolist(), lat.tolist())
    return list(map(MallAnchor, ids, category, x.tolist(), y.tolist(), lon.tolist(), lat.tolist()))


def _load_pois(path: Path, lines, columns) -> PoiTable:
    ids, category, premium = columns["id"], columns["top_category"], columns["is_premium"]
    lon, lat, checks = _coordinates(columns)
    _raise_first(path, lines, [*_id_checks("id", ids, "poi"), *checks,
                               _Check("is_premium", ~_isin(premium, {"0", "1"}),
                                      lambda i: f"must be 0 or 1, got {premium[i]!r}")])
    return PoiTable(np.array(ids, dtype=object), lon, lat, *_project(lon.tolist(), lat.tolist()),
                    np.array(category, dtype=object), _isin(premium, {"1"}))


def _load_lbs(path: Path, lines, columns, segments: dict[str, StreetSegment]):
    sids, periods, (uv, uv_checks) = columns["segment_id"], columns["period"], columns["uv"]
    records = list(zip(sids, periods))
    _raise_first(path, lines, [
        _Check("segment_id", ~_isin(sids, segments), lambda i: f"unknown segment {sids[i]!r}"),
        _Check("period", ~_isin(periods, PERIODS),
               lambda i: f"unknown period {periods[i]!r}; expected one of {list(PERIODS)}"),
        *uv_checks, _Check("uv", uv < 0, lambda i: f"must be >= 0.0, got {uv[i].item()}"),
        _Check("period", _repeats(records),
               lambda i: "duplicate record for ({!r}, {!r})".format(*records[i])),
    ])
    lbs = {}
    for (sid, period), value in zip(records, uv.tolist()):
        lbs.setdefault(sid, {})[period] = value
    for sid, slot in lbs.items():
        missing = [p for p in PERIODS if p not in slot]
        if missing:
            raise ValidationError(f"{path}: segment {sid!r} is missing periods {missing}")
    return lbs


def _load_brands(path: Path, lines, columns) -> dict[str, BrandTally]:
    ids, tallies = columns["point_id"], [columns[name] for name in BRANDS_HEADER[1:]]
    _raise_first(path, lines, [*_id_checks("point_id", ids, "point"),
                               *(check for _, checks in tallies for check in checks)])
    return dict(zip(ids, map(BrandTally, *(values.tolist() for values, _ in tallies))))


@dataclass(frozen=True)
class TablePaths:
    points: Path
    segments: Path
    anchors: Path
    pois: Path
    lbs: Path
    brands: Path | None = None


def load_tables(paths: TablePaths, fmt: str = "csv") -> CityTables:
    """Load and cross-validate the five core tables (plus optional brands).

    `fmt` selects how the four spatial tables are encoded: "csv", or
    "geojson", where points, anchors and POIs are Point features and
    segments are LineString features, with the CSV columns as properties.
    The encoding only decides how the rows of text are read: both are parsed
    into the same columns, and each table has one validator. LineString vertices become
    `segment_geometry`. The lbs/brands tables are CSV in both modes.
    """
    if fmt == "csv":
        def read(path, schema):
            return _read_csv_rows(path, schema), None
    elif fmt == "geojson":
        read = _read_geojson_rows
    else:
        raise ValidationError(f"unknown table format {fmt!r} (expected csv or geojson)")

    points = _load_points(paths.points, *read(paths.points, POINTS_SCHEMA)[0])
    segment_table, vertices = read(paths.segments, SEGMENTS_SCHEMA)
    segments = _load_segments(paths.segments, *segment_table)
    anchors = _load_anchors(paths.anchors, *read(paths.anchors, ANCHORS_SCHEMA)[0])
    pois = _load_pois(paths.pois, *read(paths.pois, POIS_SCHEMA)[0])
    segment_geometry = None if vertices is None else dict(zip(segments, vertices))

    for pid, sid in zip(points.ids.tolist(), points.segment_ids.tolist()):
        if sid not in segments:
            raise ValidationError(f"{paths.points}: point {pid!r} references unknown "
                                  f"segment {sid!r}")

    lbs = _load_lbs(paths.lbs, *_read_csv_rows(paths.lbs, LBS_SCHEMA), segments)

    brands = None
    if paths.brands is not None:
        brands = _load_brands(paths.brands, *_read_csv_rows(paths.brands, BRANDS_SCHEMA))
        point_ids = set(points.ids.tolist())
        for pid in brands:
            if pid not in point_ids:
                raise ValidationError(f"{paths.brands}: brand tally references unknown "
                                      f"point {pid!r}")

    return CityTables(points=points, segments=segments, anchors=anchors, pois=pois,
                      lbs=lbs, brands=brands, segment_geometry=segment_geometry)
