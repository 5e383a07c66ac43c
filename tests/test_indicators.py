import numpy as np
import pytest

from sevi.exceptions import ValidationError
from sevi.geodata import BrandTally, StreetSegment
from sevi.indicators import (BrandWeights, clamp_closures, segment_indicators,
                             smooth_along_route, smoothed_brand_ratio)

from .conftest import make_point


def _segment(length=100.0, sid="s0"):
    return StreetSegment(id=sid, length_m=length)


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
    with pytest.raises(ValidationError):
        smooth_along_route([1.0, 2.0], window=window)


def test_smooth_stays_within_bounds(rng):
    values = rng.normal(size=50)
    out = smooth_along_route(values, window=7)
    assert out.min() >= values.min() - 1e-12
    assert out.max() <= values.max() + 1e-12


# ---------------------------------------------------------------------------
# closure clamp
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nc,ns,expected", [(3, 10, 3), (12, 10, 10), (0, 0, 0)])
def test_clamp_closures(nc, ns, expected):
    assert clamp_closures(nc, ns) == expected


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
    points = [
        make_point("p0", signboards_left=4, signboards_right=2, closed_left=1),
        make_point("p1", order=1, signboards_left=3, signboards_right=1, closed_right=1),
    ]
    vec = segment_indicators(_segment(100.0), points, 0.0, 0.0)
    assert vec.sd == pytest.approx(0.10)
    assert vec.cr == pytest.approx(0.20)
    assert not vec.no_signboards


def test_segment_brand_ratio_hand_value():
    # 10 signboards, 2 local + 2 international at default weights -> 0.5
    points = [make_point("p0", signboards_left=10)]
    tallies = {"p0": BrandTally(n_local=2, n_international=2)}
    br, _, _ = smoothed_brand_ratio(points, tallies, BrandWeights(), window=1)
    vec = segment_indicators(_segment(100.0), points, br, 0.0)
    assert vec.br == pytest.approx((2 * 1.0 + 2 * 1.5) / 10)


def test_segment_all_zero_detections():
    points = [make_point("p0"), make_point("p1", order=1)]
    # a premium passed for a segment without signboards is forced to 0
    vec = segment_indicators(_segment(80.0), points, 0.5, 0.0)
    assert vec.as_array().tolist() == [0.0] * 9
    assert vec.no_signboards


def test_segment_all_ordinary_brands_score_zero():
    points = [make_point("p0", signboards_left=5)]
    tallies = {"p0": BrandTally(n_ordinary=5)}
    br, _, _ = smoothed_brand_ratio(points, tallies, BrandWeights(), window=1)
    vec = segment_indicators(_segment(50.0), points, br, 0.0)
    assert vec.br == 0.0


def test_density_scale_invariance():
    points = [make_point("p0", signboards_left=4, motor_left=6, nonmotor_right=2,
                         persons_left=8, glass_right=3)]
    doubled = [make_point("p0", signboards_left=8, motor_left=12, nonmotor_right=4,
                          persons_left=16, glass_right=6)]
    v1 = segment_indicators(_segment(100.0), points, 0.0, 0.0)
    v2 = segment_indicators(_segment(200.0), doubled, 0.0, 0.0)
    for name in ("sd", "md", "nd", "pp", "gd"):
        assert getattr(v1, name) == pytest.approx(getattr(v2, name))


def test_closure_ratio_clamped_to_unit():
    points = [make_point("p0", signboards_left=3, closed_left=9)]
    vec = segment_indicators(_segment(50.0), points, 0.0, 0.0)
    assert vec.cr == 1.0


def test_green_ratio():
    points = [make_point("p0", green_pixels_left=250, total_pixels_left=1000,
                         green_pixels_right=250, total_pixels_right=1000)]
    vec = segment_indicators(_segment(50.0), points, 0.0, 0.0)
    assert vec.gr == pytest.approx(0.25)
    assert 0.0 <= vec.gr <= 1.0


def test_mv_passthrough():
    points = [make_point("p0")]
    vec = segment_indicators(_segment(50.0), points, 0.0, 2.75)
    assert vec.mv == 2.75


# ---------------------------------------------------------------------------
# smoothed brand premium
# ---------------------------------------------------------------------------

def test_smoothed_ratio_window_one_matches_direct():
    points = [
        make_point("p0", order=0, signboards_left=4),
        make_point("p1", order=1, signboards_left=6),
    ]
    tallies = {"p0": BrandTally(n_international=2), "p1": BrandTally(n_local=3)}
    value, flag, _ = smoothed_brand_ratio(points, tallies, BrandWeights(), window=1)
    direct = (2 * 1.5 + 3 * 1.0) / 10
    assert value == pytest.approx(direct, abs=1e-12)
    assert not flag


def test_smoothed_ratio_no_signboards():
    points = [make_point("p0")]
    value, flag, _ = smoothed_brand_ratio(points, {}, BrandWeights(), window=5)
    assert value == 0.0 and flag


def test_smoothed_ratio_spreads_along_route():
    # a single branded point bleeds into its neighbors under window 5
    points = [make_point(f"p{i}", order=i, signboards_left=2) for i in range(5)]
    tallies = {"p2": BrandTally(n_international=2)}
    smoothed, _, _ = smoothed_brand_ratio(points, tallies, BrandWeights(), window=5)
    series = [0, 0, (2 * 1.5) / 2, 0, 0]
    expected = np.mean([np.mean(series[max(0, i - 2):i + 3]) for i in range(5)])
    assert smoothed == pytest.approx(expected, abs=1e-12)
