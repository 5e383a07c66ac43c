import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevi.exceptions import ComputationError, ValidationError
from sevi.stats import (TERTILE_LABELS, chi2_sf, kruskal_wallis, pca, rankdata,
                        sorted_quantiles, spearman, spearman_matrix, tertile_split,
                        varimax)


# ---------------------------------------------------------------------------
# spearman
# ---------------------------------------------------------------------------

def _counting_ranks(values):
    """O(n^2) definitional ranks: 1 + #smaller + (#equal - 1) / 2."""
    out = []
    for v in values:
        smaller = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        out.append(1 + smaller + (equal - 1) / 2)
    return np.array(out)


def _literal_pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def test_spearman_identity_and_reversal():
    x = [3.0, 1.0, 4.0, 1.5, 9.0]
    assert spearman(x, x) == pytest.approx(1.0, abs=1e-15)
    assert spearman(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-15)


def test_spearman_matches_rank_pearson_oracle_with_ties(rng):
    x = rng.integers(0, 10, 50).astype(float)  # heavy ties
    y = rng.integers(0, 10, 50).astype(float)
    expected = _literal_pearson(_counting_ranks(x), _counting_ranks(y))
    assert spearman(x, y) == pytest.approx(expected, abs=1e-12)


def test_rankdata_average_ties():
    assert rankdata([10.0, 20.0, 20.0, 30.0]).tolist() == [1.0, 2.5, 2.5, 4.0]


def test_spearman_invariant_under_monotone_transform(rng):
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    base = spearman(x, y)
    assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
    assert spearman(x, y ** 3) == pytest.approx(base, abs=1e-12)


def test_spearman_errors():
    with pytest.raises(ComputationError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        spearman([1.0, 2.0], [1.0, 2.0])


def test_spearman_matrix_symmetric_unit_diagonal(rng):
    m = rng.normal(size=(30, 4))
    corr = spearman_matrix(m, ["a", "b", "c", "d"])
    assert np.allclose(corr.values, corr.values.T, atol=1e-12)
    assert np.all(np.diag(corr.values) == 1.0)
    assert np.all(np.abs(corr.values) <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

def test_pca_rank_one_pair_explains_everything(rng):
    base = rng.normal(size=20)
    matrix = np.column_stack([base, 3.0 * base + 1.0])
    model = pca(matrix, n_components=1)
    assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-12)


def test_pca_loadings_orthonormal(rng):
    matrix = rng.normal(size=(60, 9))
    model = pca(matrix, n_components=9)
    gram = model.loadings.T @ model.loadings
    assert np.allclose(gram, np.eye(9), atol=1e-9)


def test_pca_ratios_descending_and_sum_to_one(rng):
    model = pca(rng.normal(size=(50, 9)), n_components=4)
    r = model.explained_variance_ratio
    assert np.all(np.diff(r) <= 1e-12)
    assert abs(r.sum() - 1.0) <= 1e-9


def test_pca_isotropic_fixed_seed_oracle():
    # recorded at first run on isotropic gaussian data, seed 123
    rng = np.random.default_rng(123)
    model = pca(rng.normal(size=(4000, 9)), n_components=4)
    frozen = [0.121362525, 0.11533688, 0.11491156, 0.113725651, 0.110580447,
              0.108634409, 0.106358077, 0.105324366, 0.103766084]
    assert np.allclose(model.explained_variance_ratio, frozen, atol=1e-6)
    assert model.explained_variance_ratio.max() < 0.135
    assert model.explained_variance_ratio.min() > 0.09


def test_pca_sign_convention():
    rng = np.random.default_rng(5)
    model = pca(rng.normal(size=(40, 9)), n_components=9)
    for j in range(9):
        col = model.loadings[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_pca_needs_ten_rows(rng):
    with pytest.raises(ValidationError):
        pca(rng.normal(size=(9, 9)))


# ---------------------------------------------------------------------------
# varimax
# ---------------------------------------------------------------------------

def _varimax_criterion(loadings):
    p = loadings.shape[0]
    sq = loadings ** 2
    return float(((p * (sq ** 2).sum(axis=0) - sq.sum(axis=0) ** 2) / p ** 2).sum())


def _rot(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def test_varimax_simple_structure_is_fixed_point():
    simple = np.array([[0.9, 0.0], [0.8, 0.0], [0.0, 0.7], [0.0, 0.95]])
    result = varimax(simple)
    assert np.allclose(np.abs(result.loadings), np.abs(simple), atol=1e-9)
    assert result.converged


def test_varimax_two_factor_recovers_45_degree_rotation():
    simple = np.array([[1.0, 0.0], [0.9, 0.0], [0.8, 0.0],
                       [0.0, 1.0], [0.0, 0.9], [0.0, 0.7]])
    mixed = simple @ _rot(math.pi / 4)
    result = varimax(mixed)
    rotation = np.linalg.lstsq(mixed, result.loadings, rcond=None)[0]
    angle = math.atan2(rotation[1, 0], rotation[0, 0])
    assert abs(abs(angle) - math.pi / 4) < 1e-6
    # up to column order and sign, the simple structure is recovered
    recovered = np.sort(np.abs(result.loadings), axis=1)
    assert np.allclose(recovered, np.sort(np.abs(simple), axis=1), atol=1e-6)


def test_varimax_beats_brute_force_angle_grid(rng):
    loadings = rng.normal(size=(8, 2))
    result = varimax(loadings, tol=1e-10)
    best_grid = max(
        _varimax_criterion(loadings @ _rot(t))
        for t in np.linspace(-math.pi / 4, math.pi / 4, 100001)
    )
    assert _varimax_criterion(result.loadings) >= best_grid - 1e-9


def test_varimax_preserves_communalities(rng):
    loadings = rng.normal(size=(9, 4))
    result = varimax(loadings)
    assert np.allclose((result.loadings ** 2).sum(axis=1),
                       (loadings ** 2).sum(axis=1), atol=1e-9)
    rotation = np.linalg.lstsq(loadings, result.loadings, rcond=None)[0]
    assert np.allclose(rotation.T @ rotation, np.eye(4), atol=1e-9)


def test_varimax_warns_on_non_convergence(rng):
    loadings = rng.normal(size=(9, 3))
    with pytest.warns(UserWarning, match="did not converge"):
        result = varimax(loadings, tol=0.0, max_iter=2)
    assert not result.converged


# ---------------------------------------------------------------------------
# chi-square survival
# ---------------------------------------------------------------------------

def test_chi2_sf_basics():
    assert chi2_sf(0.0, 2) == 1.0
    # closed forms: dof 1 erfc(sqrt(x/2)), dof 2 exp(-x/2), dof 4 exp(-x/2)(1 + x/2)
    assert chi2_sf(3.0, 2) == pytest.approx(math.exp(-1.5), rel=1e-12)
    for x in (0.01, 0.5, 1.0, 3.84, 10.0, 40.0):
        assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-12)
        assert chi2_sf(x, 4) == pytest.approx(math.exp(-x / 2) * (1 + x / 2), rel=1e-12)
    with pytest.raises(ValidationError):
        chi2_sf(1.0, 0)


def test_chi2_sf_matches_scipy_reference():
    from scipy import special   # the reference only; `sevi` does not import scipy

    worst = 0.0
    for dof in range(1, 201):
        # a grid to 2000, where e^-x/2 alone underflows past x = 1490 while the
        # tail for large dof is still far above 1e-300, plus the bulk around dof
        xs = np.concatenate([np.linspace(0.0, 2000.0, 201),
                             dof + np.linspace(-3.0, 3.0, 13) * math.sqrt(2 * dof)])
        for x in xs[xs >= 0].tolist():
            ref = float(special.chdtrc(dof, x))
            if ref > 1e-300:
                worst = max(worst, abs(chi2_sf(x, dof) - ref) / ref)
    assert worst <= 1e-12


def test_chi2_sf_rejects_fractional_dof():
    with pytest.raises(ValidationError):
        chi2_sf(1.0, 2.5)


# ---------------------------------------------------------------------------
# Kruskal-Wallis
# ---------------------------------------------------------------------------

def test_kw_identical_split_gives_zero():
    result = kruskal_wallis([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert result.h == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0, abs=1e-12)


def test_kw_hand_rank_value():
    result = kruskal_wallis([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert result.h == pytest.approx(27.0 / 7.0, abs=1e-12)
    assert result.dof == 1
    assert result.h == pytest.approx(3.857, abs=5e-4)


def test_kw_all_identical_values():
    result = kruskal_wallis([[2.0, 2.0, 2.0], [2.0, 2.0]])
    assert result.h == 0.0
    assert result.p_value == 1.0
    assert result.tie_correction == 0.0


def test_kw_invariant_under_monotone_transform(rng):
    groups = [rng.normal(size=12).tolist(), rng.normal(size=9).tolist(),
              rng.normal(size=15).tolist()]
    base = kruskal_wallis(groups)
    warped = [[math.exp(v) for v in g] for g in groups]
    assert kruskal_wallis(warped).h == pytest.approx(base.h, abs=1e-12)


def test_kw_validation():
    with pytest.raises(ValidationError):
        kruskal_wallis([[1.0, 2.0]])
    with pytest.raises(ValidationError):
        kruskal_wallis([[1.0, 2.0], []])
    with pytest.raises(ValidationError):
        kruskal_wallis([[1.0], [2.0, 3.0]])  # total below 5


def test_kw_equal_rank_sums_give_zero():
    # the ranks 1..3282 dealt in blocks of six: the 1st and 6th of each block
    # to group 0, the 2nd and 5th to group 1, the 3rd and 4th to group 2. The
    # rank sums are equal, so H is exactly 0; the form sum R_j^2 / n_j - 3 (N + 1)
    # gave -1.8e-12 here
    blocks = np.arange(1.0, 3283.0).reshape(-1, 6)
    groups = [np.concatenate([blocks[:, i], blocks[:, 5 - i]]) for i in range(3)]
    result = kruskal_wallis(groups)
    assert (result.h, result.p_value) == (0.0, 1.0)


def _kw_rank_sum_form(groups):
    """H as 12 / (N (N + 1)) sum R_j^2 / n_j - 3 (N + 1), over the tie correction."""
    pooled = np.concatenate([np.asarray(g, dtype=float) for g in groups])
    n, ranks = len(pooled), rankdata(pooled)
    bounds = np.cumsum([0] + [len(g) for g in groups])
    h = sum(ranks[lo:hi].sum() ** 2 / (hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:]))
    t = np.unique(pooled, return_counts=True)[1].astype(float)
    correction = 1.0 - float(np.sum(t ** 3 - t)) / (n ** 3 - n)
    return (12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)) / correction


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6).map(float), min_size=1, max_size=15),
                min_size=2, max_size=4).filter(lambda gs: sum(map(len, gs)) >= 5
                                               and len(set().union(*gs)) > 1))
def test_kw_is_non_negative_and_matches_the_rank_sum_form(groups):
    h = kruskal_wallis(groups).h
    assert h >= 0.0
    assert h == pytest.approx(_kw_rank_sum_form(groups), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# tertiles
# ---------------------------------------------------------------------------

def test_tertile_nine_values():
    labels = tertile_split(list(range(1, 10)))
    assert labels == ["low"] * 3 + ["mid"] * 3 + ["high"] * 3


def test_tertile_all_equal_raises():
    with pytest.raises(ComputationError, match="3 distinct values, got 1"):
        tertile_split([4.0] * 6)
    with pytest.raises(ComputationError, match="3 distinct values, got 2"):
        tertile_split([4.0] * 6 + [5.0])


def test_tertile_ties_at_the_lowest_value():
    # over two thirds of the values are 0, so both quantiles are 0; the mid
    # tier is the next distinct value
    values = [0.0] * 8 + [0.5, 2.0, 3.0, 3.0]
    assert tertile_split(values) == ["low"] * 8 + ["mid", "high", "high", "high"]


def _old_rule(values):
    """The cut rule without clamping: v <= q1 low, v <= q2 mid, else high."""
    q1, q2 = np.quantile(values, [1.0 / 3.0, 2.0 / 3.0])
    return ["low" if v <= q1 else "mid" if v <= q2 else "high" for v in values]


_tied = st.one_of(st.integers(0, 5).map(float), st.floats(-1e6, 1e6, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(_tied, min_size=3, max_size=40))
def test_tertile_property(values):
    if len(set(values)) < 3:
        with pytest.raises(ComputationError):
            tertile_split(values)
        return
    labels = tertile_split(values)
    assert set(labels) == set(TERTILE_LABELS)
    old = _old_rule(values)
    if set(old) == set(TERTILE_LABELS):
        assert labels == old
    rank = {t: k for k, t in enumerate(TERTILE_LABELS)}
    for v, a in zip(values, labels):
        for w, b in zip(values, labels):
            if v == w:
                assert a == b  # ties share a label
            elif v < w:
                assert rank[a] <= rank[b]  # labels are monotone in the value


def test_tertile_means_monotone(rng):
    values = rng.normal(size=1000)
    labels = tertile_split(values)
    means = {t: values[[l == t for l in labels]].mean() for t in ("low", "mid", "high")}
    assert means["low"] < means["mid"] < means["high"]


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------

_q = st.one_of(st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75, 1.0]),
               st.floats(0.0, 1.0))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(-1e12, 1e12, allow_nan=False), min_size=1, max_size=60),
       st.lists(_q, min_size=1, max_size=4))
def test_sorted_quantiles_match_numpy(values, qs):
    values = np.array(values)
    assert sorted_quantiles(np.sort(values), qs) == np.quantile(values, qs).tolist()
