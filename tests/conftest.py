import json

import numpy as np
import pytest

from sevi.geodata import COUNT_COLUMNS, PointTable, project_to_metric
from sevi.synth import generate_brand_corpus, generate_city

CITY_SEED = 20251015


@pytest.fixture(scope="session")
def city_dir(tmp_path_factory):
    """The bundled synthetic city, generated once per session."""
    path = tmp_path_factory.mktemp("city")
    generate_city(path, seed=CITY_SEED)
    return path


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """The 50-image offline brand-decoding corpus."""
    path = tmp_path_factory.mktemp("corpus")
    generate_brand_corpus(path, seed=7, n_images=50)
    return path


def point_row(pid="p0", x=0.0, y=0.0, segment_id="s0", order=0, **counts):
    """One `PointTable` row placed directly in metric coordinates; counts
    not named are 0."""
    unknown = set(counts) - set(COUNT_COLUMNS)
    assert not unknown, f"unknown count columns {unknown}"
    return (pid, 0.0, 0.0, x, y, segment_id, order,
            tuple(counts.get(c, 0) for c in COUNT_COLUMNS))


def table_columns(rows, dtypes) -> list[np.ndarray]:
    """One array per field of `rows`, of the given dtypes."""
    fields = list(zip(*rows)) or [()] * len(dtypes)
    return [np.array(f, dtype=t) for f, t in zip(fields, dtypes)]


def make_points(*rows) -> PointTable:
    """A `PointTable` of `point_row` rows."""
    *columns, counts = table_columns(rows, (object, float, float, float, float, object,
                                            np.int64, np.int64))
    return PointTable(*columns, counts.reshape(-1, len(COUNT_COLUMNS)))


def metric_offset(lon0, lat0, dx, dy):
    """lon/lat whose projection sits (dx, dy) meters from that of (lon0, lat0)."""
    from sevi.geodata import metric_to_lonlat
    x0, y0 = project_to_metric(lon0, lat0)
    return metric_to_lonlat(x0 + dx, y0 + dy)


def write_feature_collection(path, header, rows, vertices=None):
    """GeoJSON twin of a CSV table of text `rows` in `header` order. Without
    `vertices` each row is a Point feature at its lon/lat fields; with them,
    row k is a LineString through vertices[k]. The other fields become
    properties, as text."""
    features = []
    for k, row in enumerate(rows):
        props = dict(zip(header, row))
        if vertices is None:
            geometry = {"type": "Point",
                        "coordinates": [float(props.pop("lon")), float(props.pop("lat"))]}
        else:
            geometry = {"type": "LineString", "coordinates": vertices[k]}
        features.append({"type": "Feature", "geometry": geometry, "properties": props})
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}),
                    encoding="utf-8")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
