import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sevi.exceptions import ValidationError
from sevi import scoring
from sevi.geodata import StreetSegment
from sevi.indicators import (BLOCKS, INDICATOR_INPUTS, INDICATOR_NAMES, BrandWeights,
                             indicator_table)
from sevi.scoring import (align_and_normalize, alternative_indices, block_aggregate,
                          compute_weight_matrix, entropy_weights, topsis)
from sevi.stats import is_flat, spearman

from .conftest import make_points, point_row

CR = INDICATOR_NAMES.index("cr")


def _raw(n, rng=None, fill=None):
    if fill is not None:
        return np.full((n, 9), float(fill))
    return rng.uniform(0, 5, (n, 9))


# ---------------------------------------------------------------------------
# alignment and normalization
# ---------------------------------------------------------------------------

def test_minmax_column():
    raw = np.arange(27.0).reshape(3, 9)
    raw[:, 0] = [0.0, 5.0, 10.0]
    nm = align_and_normalize(raw)
    assert np.allclose(nm.values[:, 0], [0.0, 0.5, 1.0])


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.lists(
           st.lists(st.integers(0, 50), min_size=9, max_size=9), min_size=n, max_size=n)),
       st.integers(0, 8), st.floats(0.01, 100.0), st.floats(-1e3, 1e3))
def test_minmax_invariant_under_positive_affine_map(rows, j, scale, shift):
    raw = np.array(rows, dtype=float)
    mapped = raw.copy()
    mapped[:, j] = scale * raw[:, j] + shift
    flat = [name for name, col in zip(INDICATOR_NAMES, raw.T) if col.min() == col.max()]
    if flat:  # the map keeps a column flat, and a varying one varying
        for matrix in (raw, mapped):
            with pytest.raises(ValidationError, match=f"indicator '{flat[0]}'"):
                align_and_normalize(matrix)
        return
    before, after = align_and_normalize(raw), align_and_normalize(mapped)
    np.testing.assert_allclose(after.values, before.values, rtol=0, atol=1e-9)


def test_closure_column_is_benefit_aligned():
    raw = np.array([np.zeros(9), np.ones(9)])
    raw[:, CR] = [0.2, 0.8]
    nm = align_and_normalize(raw)
    # 1 - cr gives (0.8, 0.2); scaled to (1, 0)
    assert np.allclose(nm.values[:, CR], [1.0, 0.0])
    meta = nm.columns[CR]
    assert meta.aligned
    assert meta.raw_min == pytest.approx(0.2)
    assert meta.raw_max == pytest.approx(0.8)


@pytest.mark.parametrize("column, values, shown", [
    pytest.param(3, [7.0, 7.0, 7.0], "7.0", id="constant"),
    pytest.param(3, [0.0, 0.0, 0.0], "0.0", id="all-zero"),
    # one ulp apart: a flat column up to the round-off of a segment mean
    pytest.param(3, [7.108628229631475, 7.108628229631476, 7.108628229631475],
                 "7.108628229631475", id="one-ulp"),
    # 1 - cr is flat where cr is, and the raw value is shown
    pytest.param(CR, [0.25, 0.25, 0.25], "0.25", id="closure"),
])
def test_flat_column_is_rejected_naming_its_inputs(column, values, shown):
    raw = np.arange(27.0).reshape(3, 9)
    raw[:, column] = values
    name = INDICATOR_NAMES[column]
    with pytest.raises(ValidationError) as err:
        align_and_normalize(raw)
    message = str(err.value)
    assert f"indicator {name!r} is {shown} at all 3 segments" in message
    assert ", ".join(INDICATOR_INPUTS[name]) in message


def test_first_flat_column_is_named():
    raw = np.arange(27.0).reshape(3, 9)
    raw[:, [2, 7]] = 0.0
    with pytest.raises(ValidationError, match="indicator 'br'"):
        align_and_normalize(raw)


@pytest.mark.parametrize("column, flat", [
    ([0.0, 0.0], True), ([5.0, 5.0], True), ([-3.0, -3.0 * (1 + 1e-10)], True),
    ([1.0, 1.0 + 2e-9], False), ([0.0, 1e-300], False), ([-1.0, 1.0], False),
])
def test_is_flat_is_relative_to_the_magnitude(column, flat):
    assert is_flat(np.array(column)) is flat


def test_non_finite_value_named():
    # normalize reads finite indicators: the indicators stage rejects the first
    # non-finite one, naming it, its segment and its inputs
    points = make_points(point_row("p0", segment_id="a", signboards_left=1, motor_left=2),
                         point_row("p1", segment_id="b", motor_left=3))
    segments = {"a": StreetSegment(id="a", length_m=50.0),
                "b": StreetSegment(id="b", length_m=1e-320)}
    with pytest.raises(ValidationError) as err:
        indicator_table(points, segments, {}, BrandWeights())
    assert str(err.value) == ("indicator 'md' is inf at segment 'b'; it is computed from "
                              "points.motor_*, segments.length_m")


def test_needs_two_segments():
    with pytest.raises(ValidationError):
        align_and_normalize(np.zeros((1, 9)))


def test_values_in_unit_interval(rng):
    nm = align_and_normalize(_raw(40, rng))
    assert nm.values.min() >= 0.0
    assert nm.values.max() <= 1.0


# ---------------------------------------------------------------------------
# entropy weights
# ---------------------------------------------------------------------------

def test_constant_column_gets_zero_weight():
    block = np.column_stack([np.full(10, 0.5), np.linspace(0, 1, 10)])
    w, _ = entropy_weights(block)
    assert w[0] == 0.0
    assert w[1] == 1.0


def test_row_reversed_columns_share_weight():
    col = np.linspace(0.1, 1.0, 12)
    w, _ = entropy_weights(np.column_stack([col, col[::-1]]))
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)


def test_entropy_weights_match_literal_oracle(rng):
    block = rng.uniform(0.01, 1.0, (20, 4))
    # independent spreadsheet-style evaluation
    p = block / block.sum(axis=0, keepdims=True)
    e = -(np.where(p > 0, p * np.log(p), 0.0)).sum(axis=0) / np.log(block.shape[0])
    expected = (1 - e) / (1 - e).sum()
    w, entropies = entropy_weights(block)
    assert np.allclose(w, expected, atol=1e-9)
    assert np.allclose(entropies, e, atol=1e-9)


def test_weights_sum_to_one_and_nonnegative(rng):
    for _ in range(10):
        block = rng.uniform(0, 1, (15, 3))
        w, _ = entropy_weights(block)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-12


def test_weights_invariant_under_row_permutation(rng):
    block = rng.uniform(0, 1, (25, 4))
    perm = rng.permutation(25)
    assert np.allclose(entropy_weights(block)[0], entropy_weights(block[perm])[0], atol=1e-12)


def test_all_degenerate_block_uniform():
    block = np.full((8, 3), 0.5)
    assert np.allclose(entropy_weights(block)[0], [1 / 3] * 3)


# ---------------------------------------------------------------------------
# block aggregation
# ---------------------------------------------------------------------------

def _uniform():
    return {name: np.full(hi - lo, 1.0 / (hi - lo)) for name, (lo, hi) in BLOCKS.items()}


def test_uniform_weights_on_half_inputs():
    dims = block_aggregate(np.full((1, 9), 0.5), _uniform())
    assert np.allclose(dims, 0.5)


def test_weight_one_selects_single_indicator():
    wm = {"activity": np.array([0, 0, 1.0, 0]),
          "utilization": np.array([1.0, 0, 0]),
          "environment": np.array([1.0, 0])}
    values = np.arange(9, dtype=float).reshape(1, 9) / 10
    dims = block_aggregate(values, wm)
    assert dims[0, 0] == pytest.approx(values[0, 2])  # br
    assert dims[0, 1] == pytest.approx(values[0, 4])  # md
    assert dims[0, 2] == pytest.approx(values[0, 7])  # gr


def test_block_aggregate_matches_matrix_product(rng):
    values = rng.uniform(0, 1, (12, 9))
    wa, wu, wp = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(2))
    wm = {"activity": wa, "utilization": wu, "environment": wp}
    dims = block_aggregate(values, wm)
    expected = np.column_stack([values[:, :4] @ wa, values[:, 4:7] @ wu, values[:, 7:] @ wp])
    assert np.allclose(dims, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# TOPSIS
# ---------------------------------------------------------------------------

def test_topsis_endpoints():
    dims = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    sevi = topsis(dims)
    assert sevi[0] == 1.0
    assert sevi[1] == 0.0


def test_topsis_midpoint():
    dims = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
    assert topsis(dims)[2] == pytest.approx(0.5)


def test_topsis_three_segment_hand_computation():
    dims = np.array([[0.9, 0.2, 0.5], [0.1, 0.8, 0.5], [0.4, 0.4, 0.1]])
    sevi = topsis(dims)
    z_plus = dims.max(axis=0)
    z_minus = dims.min(axis=0)
    for i in range(3):
        dp = math.dist(dims[i], z_plus)
        dm = math.dist(dims[i], z_minus)
        assert sevi[i] == pytest.approx(dm / (dp + dm), abs=1e-12)


def test_topsis_constant_rows_get_half():
    dims = np.full((3, 3), 0.7)
    assert np.all(topsis(dims) == 0.5)


def test_sevi_in_unit_interval(rng):
    for _ in range(10):
        sevi = topsis(rng.uniform(0, 1, (30, 3)))
        assert sevi.min() >= 0.0
        assert sevi.max() <= 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 15).flatmap(lambda n: st.lists(
           st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n, unique=True),
           min_size=9, max_size=9)),
       st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9).filter(
           lambda w: sum(w[0:4]) > 0 and sum(w[4:7]) > 0 and sum(w[7:9]) > 0))
def test_topsis_scores_in_unit_interval(columns, weights):
    # random indicator blocks under random per-block weights summing to one
    raw = np.array(columns).T
    aligned = raw.copy()
    aligned[:, CR] = 1.0 - aligned[:, CR]
    assume(not any(is_flat(col) for col in aligned.T))  # a flat indicator is an input error
    w = np.array(weights)
    wm = {"activity": w[0:4] / w[0:4].sum(), "utilization": w[4:7] / w[4:7].sum(),
          "environment": w[7:9] / w[7:9].sum()}
    sevi = topsis(block_aggregate(align_and_normalize(raw).values, wm))
    assert np.all((sevi >= 0.0) & (sevi <= 1.0))


def test_topsis_monotone_in_interior_indicator(rng):
    values = rng.uniform(0.2, 0.8, (20, 9))
    wm, _ = compute_weight_matrix(align_and_normalize(values))
    base = topsis(block_aggregate(values, wm))
    bumped = values.copy()
    bumped[5, 0] = min(bumped[5, 0] + 0.1, 0.99)  # stays interior
    after = topsis(block_aggregate(bumped, wm))
    assert after[5] >= base[5] - 1e-12


# ---------------------------------------------------------------------------
# alternative composites
# ---------------------------------------------------------------------------

def test_equal_weight_index_coincides_when_ewm_is_uniform(rng):
    # columns are row permutations of one multiset: identical entropy, so
    # EWM weights are exactly uniform and the two indices agree
    base = np.linspace(0.0, 1.0, 16)
    raw = np.column_stack([base[rng.permutation(16)] for _ in range(9)])
    raw[:, CR] = 1.0 - raw[:, CR]  # keep the aligned column a permutation too
    nm = align_and_normalize(raw)
    wm, _ = compute_weight_matrix(nm)
    sevi = topsis(block_aggregate(nm.values, wm))
    eq, _ = alternative_indices(nm)
    assert np.allclose(sevi, eq, atol=1e-9)


def test_two_segment_equal_weight_endpoints(rng):
    raw = np.vstack([np.full(9, 0.1), np.full(9, 3.0)])
    raw[:, CR] = [0.9, 0.1]  # worse closure on the low segment
    nm = align_and_normalize(raw)
    eq, _ = alternative_indices(nm)
    assert sorted(eq.tolist()) == [0.0, 1.0]


def test_pca_index_rank_matches_generating_factor(rng):
    factor = rng.uniform(0, 1, 30)
    loadings = rng.uniform(0.5, 1.5, 9)
    raw = np.outer(factor, loadings)
    nm = align_and_normalize(raw)
    _, pca_index = alternative_indices(nm)
    # the aligned closure column flips one coordinate, but rank-1 structure
    # keeps the first component a monotone image of the factor
    assert abs(spearman(pca_index, factor)) == pytest.approx(1.0, abs=1e-12)


def test_pca_index_sign_fixed_positive(rng):
    raw = _raw(40, rng)
    nm = align_and_normalize(raw)
    eq, pca_index = alternative_indices(nm)
    assert np.corrcoef(pca_index, eq)[0, 1] >= 0
    assert pca_index.min() >= 0.0
    assert pca_index.max() <= 1.0


def _pca_index_before(nm):
    """`alternative_indices`' PCA composite as it was before it read
    `stats.correlation_components`: z-scores with ddof 0, its own
    eigendecomposition, and LAPACK's sign where the equal-weight index is
    constant."""
    values = nm.values
    z = (values - values.mean(axis=0)) / values.std(axis=0)
    corr = (z.T @ z) / (z.shape[0] - 1)
    scores = z @ np.linalg.eigh(corr)[1][:, -1]
    eq = alternative_indices(nm)[0]
    if eq.std() > 0 and np.corrcoef(scores, eq)[0, 1] < 0:
        scores = -scores
    return (scores - scores.min()) / (scores.max() - scores.min())


@pytest.mark.parametrize("n", [2, 3, 5, 9, 10, 40, 200])
def test_pca_index_matches_its_separate_decomposition(n):
    # the ddof of the z-scores is a constant scale, which the min-max rescale
    # removes; 2-9 rows are below `stats.pca`'s 10, and the index is read
    # without it
    rng = np.random.default_rng(n)
    nm = align_and_normalize(rng.uniform(0, 5, (n, 9)) ** rng.uniform(0.5, 2.0, 9))
    np.testing.assert_allclose(alternative_indices(nm)[1], _pca_index_before(nm),
                               rtol=0, atol=1e-12)


def test_ewm_and_equal_weight_indices_strongly_agree(rng):
    # consistency property over random non-degenerate data
    rhos = []
    for _ in range(20):
        raw = rng.uniform(0, 1, (40, 9)) ** rng.uniform(0.5, 2.0)
        nm = align_and_normalize(raw)
        wm, _ = compute_weight_matrix(nm)
        sevi = topsis(block_aggregate(nm.values, wm))
        eq, _ = alternative_indices(nm)
        rhos.append(spearman(sevi, eq))
    assert min(rhos) > 0.9


# ---------------------------------------------------------------------------
# the dimension partition
# ---------------------------------------------------------------------------

def test_another_partition_of_the_columns_flows_through(monkeypatch, rng):
    # scoring reads the dimensions from BLOCKS alone: a partition into two
    # blocks of widths 2 and 7 gives two weight blocks and two score columns
    blocks = {"first": (0, 2), "second": (2, 9)}
    monkeypatch.setattr(scoring, "BLOCKS", blocks)
    nm = align_and_normalize(_raw(25, rng))

    weights, entropies = compute_weight_matrix(nm)
    assert list(weights) == list(entropies) == list(blocks)
    for name, (lo, hi) in blocks.items():
        want_w, want_e = entropy_weights(nm.values[:, lo:hi])
        assert np.array_equal(weights[name], want_w) and np.array_equal(entropies[name], want_e)
        assert len(want_w) == hi - lo
        assert weights[name].sum() == pytest.approx(1.0, abs=1e-12)

    dims = block_aggregate(nm.values, weights)
    assert dims.shape == (25, 2)
    np.testing.assert_allclose(dims, np.column_stack(
        [nm.values[:, lo:hi] @ weights[name] for name, (lo, hi) in blocks.items()]),
        rtol=1e-12, atol=0)

    eq, pca_index = alternative_indices(nm)
    uniform = np.column_stack([nm.values[:, :2].mean(axis=1), nm.values[:, 2:].mean(axis=1)])
    np.testing.assert_allclose(eq, topsis(uniform), rtol=1e-12, atol=1e-15)
    assert eq.shape == pca_index.shape == (25,)
