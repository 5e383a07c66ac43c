import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevi.exceptions import CalibrationError, ConfigError, ValidationError
from sevi.geodata import MallAnchor
from sevi.pipeline import PipelineConfig
from sevi.spillover import SigmaTable, SpilloverConfig, calibrate_sigma, field_all

from .conftest import make_points, point_row
from .oracles import decay_value, field_at


def _anchor(aid, x, y, category="mall"):
    return MallAnchor(id=aid, category=category, x=x, y=y)


def _points(xy):
    """A `PointTable` of points at the rows (x, y) of `xy`."""
    rows = np.asarray(xy).tolist()
    return make_points(*(point_row(f"p{i}", x, y) for i, (x, y) in enumerate(rows)))


# ---------------------------------------------------------------------------
# bandwidth calibration
# ---------------------------------------------------------------------------

def test_sigma_symmetric_pair():
    table = calibrate_sigma([_anchor("a0", 0, 0), _anchor("a1", 100, 0)])
    assert table.sigma_m["mall"] == pytest.approx(100.0, abs=1e-9)
    assert table.provenance["mall"] == "computed"


def test_sigma_collinear_hand_value():
    # nearest-neighbor distances are (100, 100, 200) -> mean 400/3
    anchors = [_anchor("a0", 0, 0), _anchor("a1", 100, 0), _anchor("a2", 300, 0)]
    table = calibrate_sigma(anchors)
    assert table.sigma_m["mall"] == pytest.approx(400.0 / 3.0, abs=1e-9)


def test_sigma_singleton_imputed():
    anchors = [_anchor("a0", 0, 0), _anchor("a1", 100, 0),
               _anchor("a2", 5000, 5000, category="flagship")]
    table = calibrate_sigma(anchors)
    assert table.sigma_m["flagship"] == pytest.approx(100.0, abs=1e-9)
    assert table.provenance["flagship"] == "imputed"


def test_sigma_imputed_is_mean_of_computed():
    anchors = [
        _anchor("a0", 0, 0, "a"), _anchor("a1", 100, 0, "a"),
        _anchor("b0", 0, 1000, "b"), _anchor("b1", 300, 1000, "b"),
        _anchor("c0", 9000, 9000, "c"),
    ]
    table = calibrate_sigma(anchors)
    assert table.sigma_m["c"] == pytest.approx((100.0 + 300.0) / 2.0, abs=1e-9)


def test_sigma_no_calibratable_category():
    with pytest.raises(CalibrationError):
        calibrate_sigma([_anchor("a0", 0, 0, "a"), _anchor("b0", 10, 10, "b")])


def test_sigma_all_coincident_rejected():
    with pytest.raises(CalibrationError):
        calibrate_sigma([_anchor("a0", 5, 5), _anchor("a1", 5, 5)])


def test_sigma_planted_grid(rng):
    # regular grid: every nearest-neighbor distance equals the spacing
    spacing = 250.0
    anchors = [_anchor(f"g{i}{j}", i * spacing, j * spacing)
               for i in range(4) for j in range(4)]
    table = calibrate_sigma(anchors)
    assert table.sigma_m["mall"] == pytest.approx(spacing, abs=1e-9)


def _nn_mean(anchors):
    """Mean nearest-competitor distance, each distance as sqrt(dx*dx + dy*dy)."""
    total = 0.0
    for a in anchors:
        total += min(math.sqrt((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y))
                     for b in anchors if b is not a)
    return total / len(anchors)


def test_sigma_equals_nearest_neighbour_mean(rng):
    anchors = [_anchor(f"m{j:02d}", *rng.uniform(-3e4, 4e4, 2), category="m")
               for j in range(40)]
    # one coincident pair among other anchors: both members have distance 0
    twins = [_anchor(f"t{j}", *rng.uniform(1e6, 1e6 + 5e3, 2), category="t") for j in range(6)]
    twins.append(_anchor("t6", twins[2].x, twins[2].y, category="t"))
    # two-member categories: sigma is their one distance, unblurred by a sum
    pairs = [_anchor(f"p{j}", *rng.uniform(-3e4, 4e4, 2), category=f"p{j // 2}")
             for j in range(40)]
    table = calibrate_sigma(anchors + twins + pairs)
    assert table.sigma_m["m"] == _nn_mean(anchors)
    assert table.sigma_m["t"] == _nn_mean(twins)
    for c in range(20):
        assert table.sigma_m[f"p{c}"] == _nn_mean(pairs[2 * c:2 * c + 2])


# ---------------------------------------------------------------------------
# decay values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("decay", ["gaussian", "exponential", "linear"])
def test_decay_at_zero(decay):
    cfg = SpilloverConfig(decay=decay)
    assert decay_value(0.0, 500.0, cfg) == 1.0


@pytest.mark.parametrize("decay", ["gaussian", "exponential", "linear"])
def test_decay_gated_beyond_threshold(decay):
    cfg = SpilloverConfig(threshold_m=2000.0, decay=decay)
    assert decay_value(2000.0001, 10000.0, cfg) == 0.0


def test_decay_gaussian_paper_spot_check():
    # sigma calibrated for general markets in the source data
    cfg = SpilloverConfig(threshold_m=2000.0, decay="gaussian")
    value = decay_value(1000.0, 991.84, cfg)
    assert value == pytest.approx(math.exp(-1000.0 ** 2 / (2 * 991.84 ** 2)), abs=1e-15)
    assert value == pytest.approx(0.6016, abs=1e-4)


def test_decay_exponential_formula():
    cfg = SpilloverConfig(decay="exponential")
    assert decay_value(300.0, 600.0, cfg) == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_decay_linear_hits_zero_at_threshold():
    cfg = SpilloverConfig(threshold_m=2000.0, decay="linear")
    assert decay_value(2000.0, 1.0, cfg) == 0.0
    assert decay_value(500.0, 1.0, cfg) == pytest.approx(0.75)


def test_saturated_field_bound_for_huge_sigma():
    # within the gate, a very wide bandwidth keeps the factor near 1
    cfg = SpilloverConfig(threshold_m=2000.0, decay="gaussian")
    assert decay_value(2000.0, 43045.21, cfg) >= 0.9989


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------

def _sigma_for(anchors):
    return SigmaTable(sigma_m={a.category: 500.0 for a in anchors},
                      provenance={a.category: "computed" for a in anchors})


def test_field_no_anchor_within_threshold():
    anchors = [_anchor("a0", 10000.0, 0.0)]
    cfg = SpilloverConfig(threshold_m=2000.0)
    assert field_at(0.0, 0.0, anchors, _sigma_for(anchors), cfg) == 0.0


def test_field_single_anchor_at_zero_distance():
    anchors = [_anchor("a0", 0.0, 0.0)]
    cfg = SpilloverConfig()
    assert field_at(0.0, 0.0, anchors, _sigma_for(anchors), cfg) == 1.0


def _brute_field(points_xy, anchors, table, cfg):
    """Exact sequential oracle: fsum over id-sorted anchors."""
    ordered = sorted(anchors, key=lambda a: a.id)
    out = []
    for x, y in points_xy:
        terms = []
        for a in ordered:
            d = math.hypot(a.x - x, a.y - y)
            if d <= cfg.threshold_m:
                terms.append(decay_value(d, table.sigma_m[a.category], cfg))
        out.append(math.fsum(terms))
    return np.array(out)


@pytest.mark.parametrize("decay", ["gaussian", "exponential", "linear"])
def test_field_matches_brute_force(rng, decay):
    anchors = [_anchor(f"a{j:02d}", *rng.uniform(0, 4000, 2),
                       category=f"c{j % 3}") for j in range(50)]
    table = SigmaTable(sigma_m={f"c{k}": float(rng.uniform(200, 2000)) for k in range(3)},
                       provenance={f"c{k}": "computed" for k in range(3)})
    points_xy = rng.uniform(0, 4000, (100, 2))
    cfg = SpilloverConfig(threshold_m=2000.0, decay=decay)
    got = field_all(_points(points_xy), anchors, table, cfg)
    expected = _brute_field(points_xy, anchors, table, cfg)
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_field_at_agrees_with_field_all(rng):
    anchors = [_anchor(f"a{j:02d}", *rng.uniform(0, 3000, 2)) for j in range(30)]
    table = _sigma_for(anchors)
    cfg = SpilloverConfig(threshold_m=1500.0)
    xy = rng.uniform(0, 3000, (25, 2))
    batch = field_all(_points(xy), anchors, table, cfg)
    for i, (x, y) in enumerate(xy.tolist()):
        single = field_at(x, y, anchors, table, cfg)
        assert single == pytest.approx(batch[i], abs=1e-12)


@pytest.mark.parametrize("n_points, n_anchors", [(0, 3), (4, 0), (0, 0)])
def test_field_without_points_or_anchors_is_zeros(n_points, n_anchors):
    anchors = [_anchor(f"a{j}", 100.0 * j, 0.0) for j in range(n_anchors)]
    table = SigmaTable(sigma_m={"mall": 500.0}, provenance={"mall": "computed"})
    got = field_all(_points(np.zeros((n_points, 2))), anchors, table, SpilloverConfig())
    assert np.array_equal(got, np.zeros(n_points))


def test_threshold_gate_examples():
    anchors = [_anchor("a0", 1500.0, 0.0)]
    table = SigmaTable(sigma_m={"mall": 1e7}, provenance={"mall": "computed"})
    xy = np.array([[0.0, 0.0]])
    sweep = {t: field_all(_points(xy), anchors, table, SpilloverConfig(threshold_m=t))
             for t in (1000.0, 2000.0, 3000.0)}
    assert sweep[1000.0][0] == 0.0
    assert sweep[2000.0][0] > 0.99
    assert sweep[3000.0][0] > 0.99


@pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_config_rejects_threshold_not_positive_and_finite(threshold):
    # the config is the one check of the threshold; SpilloverConfig takes it as given
    with pytest.raises(ConfigError, match="spillover.threshold_m must be"):
        PipelineConfig.from_mapping({"spillover": {"threshold_m": threshold}})


def test_threshold_infinite_equals_ungated(rng):
    anchors = [_anchor(f"a{j}", *rng.uniform(0, 5000, 2)) for j in range(20)]
    table = _sigma_for(anchors)
    xy = rng.uniform(0, 5000, (10, 2))
    wide = field_all(_points(xy), anchors, table, SpilloverConfig(threshold_m=1e12))
    ungated = np.array([
        math.fsum(math.exp(-(math.hypot(a.x - x, a.y - y) ** 2) / (2 * 500.0 ** 2))
                  for a in sorted(anchors, key=lambda a: a.id))
        for x, y in xy
    ])
    assert np.allclose(wide, ungated, atol=1e-12)


@pytest.mark.parametrize("decay", ["gaussian", "exponential", "linear"])
def test_field_monotone_in_threshold(rng, decay):
    anchors = [_anchor(f"a{j:02d}", *rng.uniform(0, 6000, 2)) for j in range(40)]
    table = _sigma_for(anchors)
    xy = rng.uniform(0, 6000, (50, 2))
    points = _points(xy)
    sweep = {t: field_all(points, anchors, table, SpilloverConfig(threshold_m=t, decay=decay))
             for t in (1000.0, 2000.0, 3000.0)}
    assert np.all(sweep[1000.0] <= sweep[2000.0] + 1e-15)
    assert np.all(sweep[2000.0] <= sweep[3000.0] + 1e-15)


_xy = st.tuples(st.floats(0.0, 5000.0), st.floats(0.0, 5000.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(_xy, min_size=1, max_size=15), st.lists(_xy, min_size=1, max_size=10),
       st.floats(1.0, 8000.0), st.floats(1.0, 8000.0), st.floats(10.0, 3000.0),
       st.sampled_from(["gaussian", "exponential", "linear"]))
def test_field_non_decreasing_in_threshold_property(anchor_xy, points_xy, t1, t2, sigma,
                                                    decay):
    anchors = [_anchor(f"a{j:02d}", x, y) for j, (x, y) in enumerate(anchor_xy)]
    table = SigmaTable(sigma_m={"mall": sigma}, provenance={"mall": "computed"})
    low, high = sorted((t1, t2))
    points = _points(points_xy)
    assert np.all(field_all(points, anchors, table, SpilloverConfig(threshold_m=low, decay=decay))
                  <= field_all(points, anchors, table, SpilloverConfig(threshold_m=high,
                                                                       decay=decay)))


@pytest.mark.parametrize("decay", ["gaussian", "exponential", "linear"])
def test_field_non_increasing_when_anchor_moves_away(decay):
    table = SigmaTable(sigma_m={"mall": 800.0}, provenance={"mall": "computed"})
    cfg = SpilloverConfig(threshold_m=2000.0, decay=decay)
    fixed = [_anchor("a0", 200.0, 0.0)]
    previous = math.inf
    for dist in (100.0, 400.0, 900.0, 1500.0, 1999.0, 2100.0):
        anchors = fixed + [_anchor("a1", dist, 0.0)]
        value = field_at(0.0, 0.0, anchors, table, cfg)
        assert value <= previous + 1e-15
        previous = value
