import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevi import gwr, kernels
from sevi.exceptions import ComputationError, ValidationError
from sevi.geodata import PERIODS
from sevi.gwr import GwrDesign, adaptive_bandwidths, adjusted_r2, coef_summary
from sevi.report import mean_adjusted_r2

from .oracles import kernel_weight

TABLE_A1_BASELINE = (0.5729, 0.7089, 0.6800, 0.6629, 0.5974, 0.6985, 0.6821, 0.6644)


def _fit1(design, bandwidth):
    """The fit of a one-response design."""
    (fit,) = gwr.fit(design, bandwidth)
    return fit


def _linear_design(rng, n=200, k=3, noise=0.0, extent=2000.0, kernel="gaussian"):
    coords = rng.uniform(0, extent, (n, 2))
    predictors = rng.normal(size=(n, k))
    beta = np.arange(1, k + 2, dtype=float)  # intercept 1, slopes 2..k+1
    y = beta[0] + predictors @ beta[1:] + (rng.normal(0, noise, n) if noise else 0.0)
    design = GwrDesign.build(coords, predictors, y, kernel=kernel)
    return design, beta


def _two_regime(rng, n_per_side=150, gap=50000.0, noise=0.01):
    """Left cluster slope 1, right cluster slope 3, far apart."""
    coords_l = rng.uniform(0, 2000, (n_per_side, 2))
    coords_r = rng.uniform(0, 2000, (n_per_side, 2)) + np.array([gap, 0.0])
    x = rng.uniform(0, 1, 2 * n_per_side)
    y = np.concatenate([
        0.5 + 1.0 * x[:n_per_side],
        0.5 + 3.0 * x[n_per_side:],
    ]) + rng.normal(0, noise, 2 * n_per_side)
    coords = np.vstack([coords_l, coords_r])
    return GwrDesign.build(coords, x[:, None], y, predictor_names=["x"]), gap


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_weight_at_zero():
    assert kernel_weight(0.0, 100.0, "gaussian") == 1.0
    assert kernel_weight(0.0, 100.0, "bisquare") == 1.0


def test_bisquare_vanishes_at_bandwidth():
    assert kernel_weight(100.0, 100.0, "bisquare") == 0.0
    assert kernel_weight(99.0, 100.0, "bisquare") > 0.0


def test_gaussian_at_bandwidth():
    assert kernel_weight(100.0, 100.0, "gaussian") == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_kernel_weight_validation():
    with pytest.raises(ValidationError):
        kernel_weight(-1.0, 100.0)
    with pytest.raises(ValidationError):
        kernel_weight(1.0, 0.0)


# ---------------------------------------------------------------------------
# design validation
# ---------------------------------------------------------------------------

def test_design_rejects_constant_predictor(rng):
    coords = rng.uniform(0, 100, (20, 2))
    predictors = np.column_stack([np.ones(20), rng.normal(size=20)])
    with pytest.raises(ValidationError, match="constant"):
        GwrDesign.build(coords, predictors, rng.normal(size=20))


def test_design_holds_responses_as_columns(rng):
    coords = rng.uniform(0, 100, (20, 2))
    predictors = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    assert GwrDesign.build(coords, predictors, y).Y.shape == (20, 1)
    Y = rng.normal(size=(20, 3))
    design = GwrDesign.build(coords, predictors, Y)
    assert design.Y.shape == (20, 3) and design.Y.flags.c_contiguous
    np.testing.assert_array_equal(design.Y, Y)


# ---------------------------------------------------------------------------
# local fits
# ---------------------------------------------------------------------------

def test_exact_fit_recovery(rng):
    design, beta = _linear_design(rng, n=120, k=3, noise=0.0)
    fit = _fit1(design, 500.0)
    assert fit.rss < 1e-16 * fit.tss
    assert np.allclose(fit.beta, beta, atol=1e-6)
    assert fit.adjusted_r2 == pytest.approx(1.0, abs=1e-9)


def test_ols_limit_matches_global_regression(rng):
    design, _ = _linear_design(rng, n=300, k=4, noise=0.5)
    _, diameter = design.pairwise_extent(kernels.pairwise_distances(design.coords))
    fit = _fit1(design, 1e3 * diameter)
    beta_ols, *_ = np.linalg.lstsq(design.X, design.Y[:, 0], rcond=None)
    rel = np.max(np.abs(fit.beta - beta_ols)) / np.max(np.abs(beta_ols))
    assert rel < 1e-6


@pytest.mark.parametrize("kernel", gwr.KERNELS)
def test_gwr_tends_to_global_ols_as_bandwidth_grows(rng, kernel):
    # at 1e9 m every weight is 1 to within 1e-11 on a 2 km design, so each
    # local fit is the global regression
    design, _ = _linear_design(rng, n=80, k=3, noise=0.5, kernel=kernel)
    fit = _fit1(design, 1e9)
    y = design.Y[:, 0]
    n, p = design.X.shape
    beta_ols, *_ = np.linalg.lstsq(design.X, y, rcond=None)
    residuals = y - design.X @ beta_ols
    r2_ols = 1.0 - (residuals @ residuals / (n - p)) / (((y - y.mean()) ** 2).sum() / (n - 1))

    np.testing.assert_allclose(fit.beta, np.broadcast_to(beta_ols, fit.beta.shape),
                               rtol=1e-9, atol=0)
    assert fit.trace_s == pytest.approx(p, abs=1e-6)
    assert fit.adjusted_r2 == pytest.approx(r2_ols, abs=1e-9)


def test_two_regime_recovery(rng):
    design, gap = _two_regime(rng)
    fit = _fit1(design, "aicc")
    assert fit.bandwidth < gap
    slopes = fit.beta[:, 1]
    n = len(slopes) // 2
    assert np.abs(slopes[:n] - 1.0).max() < 0.05 * 1.0
    assert np.abs(slopes[n:] - 3.0).max() < 0.05 * 3.0


def test_singular_local_system_flagged_not_fatal(rng):
    # duplicated predictor makes every local system rank-deficient: the ridge
    # fallback must kick in and flag each location
    coords = rng.uniform(0, 100, (30, 2))
    x = rng.normal(size=30)
    predictors = np.column_stack([x, x + 0.0])
    jitter = predictors + rng.normal(0, 1e-13, predictors.shape)
    design = GwrDesign.build(coords, jitter, rng.normal(size=30))
    fit = _fit1(design, 50.0)
    assert fit.n_ridged == 30


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_adjusted_r2_perfect_fit(rng):
    design, _ = _linear_design(rng, n=100, k=2, noise=0.0)
    fit = _fit1(design, 800.0)
    assert adjusted_r2(fit.rss, fit.tss, fit.trace_s, fit.trace_sts,
                       design.n) == pytest.approx(1.0, abs=1e-9)


def test_adjusted_r2_uninformative_predictors(rng):
    coords = rng.uniform(0, 100, (200, 2))
    predictors = rng.normal(size=(200, 2))
    y = rng.normal(size=200)  # unrelated response
    design = GwrDesign.build(coords, predictors, y)
    _, diameter = design.pairwise_extent(kernels.pairwise_distances(design.coords))
    fit = _fit1(design, 100.0 * diameter)
    assert abs(fit.adjusted_r2) < 0.1


def test_table_baseline_mean_matches_reported_average():
    mean = mean_adjusted_r2(TABLE_A1_BASELINE)
    assert mean == pytest.approx(0.6583875, abs=1e-12)
    assert round(mean, 3) == 0.658
    assert round(mean, 2) == 0.66


def test_hat_trace_bounds(rng):
    design, _ = _linear_design(rng, n=150, k=3, noise=0.3)
    for bw in (200.0, 500.0, 2000.0):
        fit = _fit1(design, bw)
        assert design.n_params - 1e-6 <= fit.trace_s < design.n
        assert fit.trace_sts > 0


def test_rss_monotone_in_bandwidth(rng):
    design, _ = _linear_design(rng, n=150, k=3, noise=0.5)
    rss = [_fit1(design, bw).rss for bw in (100.0, 200.0, 400.0, 800.0, 1600.0)]
    assert all(rss[i] <= rss[i + 1] + 1e-9 * design.n for i in range(len(rss) - 1))


def test_row_permutation_invariance(rng):
    design, _ = _linear_design(rng, n=80, k=2, noise=0.4)
    perm = rng.permutation(design.n)
    permuted = GwrDesign.build(design.coords[perm], design.X[perm, 1:], design.Y[perm])
    fit = _fit1(design, 600.0)
    fit_p = _fit1(permuted, 600.0)
    assert np.allclose(fit_p.beta, fit.beta[perm], rtol=1e-8, atol=1e-10)
    assert fit_p.rss == pytest.approx(fit.rss, rel=1e-10)
    assert fit_p.trace_s == pytest.approx(fit.trace_s, rel=1e-10)


def test_adaptive_bisquare_well_posed(rng):
    coords = rng.uniform(0, 1000, (100, 2))
    predictors = rng.normal(size=(100, 2))
    y = rng.normal(size=100)
    design = GwrDesign.build(coords, predictors, y, kernel="bisquare")
    fit = _fit1(design, ("adaptive", design.n_params + 1))
    assert set(np.unique(fit.flags)) <= {0, 1}


def test_adaptive_bandwidths_are_mth_neighbor(rng):
    coords = rng.uniform(0, 100, (40, 2))
    bw = adaptive_bandwidths(kernels.pairwise_distances(coords), 5)
    d = np.hypot(coords[:, 0][:, None] - coords[:, 0][None, :],
                 coords[:, 1][:, None] - coords[:, 1][None, :])
    for i in range(40):
        assert bw[i] == pytest.approx(np.sort(d[i])[5], abs=1e-12)


# ---------------------------------------------------------------------------
# bandwidth selection
# ---------------------------------------------------------------------------

def test_selection_hits_upper_boundary_for_global_truth(rng):
    design, _ = _linear_design(rng, n=120, k=2, noise=0.5)
    with pytest.warns(UserWarning, match="boundary"):
        fit = _fit1(design, "aicc")
    _, diameter = design.pairwise_extent(kernels.pairwise_distances(design.coords))
    assert fit.bandwidth == pytest.approx(diameter)
    assert fit.bandwidth_boundary == "upper"


def test_selection_deterministic(rng):
    design, gap = _two_regime(rng, n_per_side=80)
    assert _fit1(design, "aicc").bandwidth == _fit1(design, "aicc").bandwidth


def test_selection_without_finite_aicc_fails_by_name(rng):
    # n = k + 3 leaves n - 2 = p = k + 1; tr(S) is p in the global limit and
    # larger at finite bandwidths, so AICc is +inf wherever the search looks;
    # the failed search reports no boundary
    design = GwrDesign.build(rng.uniform(0, 2000, (12, 2)), rng.normal(size=(12, 9)),
                             rng.normal(size=12))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ComputationError, match="n=12 locations .* 10 parameters"):
            gwr.fit(design)
    assert caught == []


def _drifting_design(rng, kernel):
    """160 locations and eight responses whose slope drifts across the city
    with strengths from absent to strong, so AICc chooses several bandwidths."""
    coords = rng.uniform(0, 3000, (160, 2))
    predictors = rng.normal(size=(160, 2))
    slope = 1.0 + coords[:, 0] / 1500.0
    Y = np.column_stack([s * slope * predictors[:, 0] + rng.normal(0, 0.5, 160)
                         for s in (0.0, 0.3, 0.6, 1.0, 0.1, 0.8, 0.4, 0.05)])
    return GwrDesign.build(coords, predictors, Y, kernel=kernel)


def _golden_section_before(objective, lo0, hi0, rel_tol, max_iter):
    """The golden-section search as it was before it became a stepper:
    minimize `objective` over [lo0, hi0], evaluating each bandwidth once, and
    return (best bandwidth, the boundary it was clamped to or None, number of
    distinct bandwidths evaluated)."""
    cache = {}

    def f(b):
        if b not in cache:
            cache[b] = objective(b)
        return cache[b]

    lo, hi = lo0, hi0
    f(lo)
    f(hi)
    x1 = hi - gwr.GOLDEN_INV * (hi - lo)
    x2 = lo + gwr.GOLDEN_INV * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if (hi - lo) <= rel_tol * (hi0 - lo0):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - gwr.GOLDEN_INV * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + gwr.GOLDEN_INV * (hi - lo)
            f2 = f(x2)

    best = min(cache, key=lambda b: (cache[b], b))
    boundary = None
    boundary_pad = rel_tol * (hi0 - lo0)
    if best <= lo0 + boundary_pad or best >= hi0 - boundary_pad:
        best, boundary = (lo0, "lower") if best <= lo0 + boundary_pad else (hi0, "upper")
    return float(best), boundary, len(cache)


def _objective(shape, center, step):
    """A drawn objective: unimodal about `center`, monotone, flat, or stepped
    (the distance to `center` in whole `step`s), the last two with ties."""
    return {"unimodal": lambda b: (b - center) ** 2,
            "increasing": lambda b: b,
            "decreasing": lambda b: -b,
            "flat": lambda b: 1.0,
            "stepped": lambda b: math.floor(abs(b - center) / step)}[shape]


@settings(max_examples=300, deadline=None)
@given(st.floats(1.0, 1e4), st.floats(1e-3, 1e5),
       st.sampled_from(["unimodal", "increasing", "decreasing", "flat", "stepped"]),
       st.floats(-0.5, 1.5), st.floats(1e-3, 0.5))
def test_golden_section_visits_what_the_search_before_visited(lo0, width, shape, where, step):
    hi0 = lo0 + width
    objective = _objective(shape, lo0 + where * width, step * width)
    visited_before = []

    def record(b):
        visited_before.append(b)
        return objective(b)

    *_, evals_before = _golden_section_before(record, lo0, hi0, gwr.REL_TOL, gwr.MAX_ITER)
    stepper = gwr._golden_section(lo0, hi0)
    asked = [next(stepper)]
    try:
        while True:
            asked.append(stepper.send(objective(asked[-1])))
    except StopIteration:
        pass

    assert list(dict.fromkeys(asked)) == visited_before
    assert len(set(asked)) == evals_before == len(visited_before)


def _full_kernel_search(design):
    """The AICc search as it was before it became a stepper, with every
    visited bandwidth fitted by the full kernel, which measures its distances
    per row block: (bandwidth, boundary, evaluations) per column."""
    lo0, hi0 = design.pairwise_extent(kernels.pairwise_distances(design.coords))
    operands = kernels.gwr_operands(design.X, design.Y)
    memo = {}

    def column_aicc(b):
        if b not in memo:
            _, fitted, s_ii, _, _ = kernels.gwr_fit_all(
                design.coords, design.X, design.Y, np.full(design.n, b), design.kernel, operands)
            memo[b] = [gwr._aicc(gwr._rss(design.Y[:, k], fitted[:, k])[1],
                                 float(s_ii.sum()), design.n)
                       for k in range(design.Y.shape[1])]
        return memo[b]

    return [_golden_section_before(lambda b, k=k: column_aicc(b)[k], lo0, hi0, 1e-3, 60)
            for k in range(design.Y.shape[1])]


@pytest.mark.parametrize("kernel", gwr.KERNELS)
def test_aicc_search_selects_what_the_full_kernel_search_selects(rng, kernel):
    # the searches end at different bandwidths and one on the upper boundary
    design = _drifting_design(rng, kernel)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fits = gwr.fit(design)
    want = _full_kernel_search(design)

    assert len({fit.bandwidth for fit in fits}) > 1
    assert len(caught) == sum(boundary is not None for _, boundary, _ in want)
    for fit, (bandwidth, boundary, evals) in zip(fits, want):
        assert (fit.bandwidth, fit.bandwidth_boundary, fit.aicc_evals) == (
            bandwidth, boundary, evals)


def _fit_before(design, bandwidth="aicc"):
    """`gwr.fit` as it was before it alone decided what its bandwidth needs:
    the kernel call parsed the bandwidth and built adaptive bandwidths from a
    distance matrix of its own, every full fit measured its distances per row
    block, and each fit was built with placeholder diagnostics that were then
    filled in, the search outcome last. Each fit comes back as a dict of its
    fields."""
    n = design.n

    def kernel(Y, operands, bandwidth):
        if isinstance(bandwidth, tuple):
            m = int(bandwidth[1])
            bw_arr = np.partition(kernels.pairwise_distances(design.coords), m, axis=1)[:, m]
            bw_scalar, adaptive_m = None, m
        else:
            bw_scalar, adaptive_m = float(bandwidth), None
            bw_arr = np.full(n, bw_scalar)
        out = kernels.gwr_fit_all(design.coords, design.X, Y, bw_arr, design.kernel, operands,
                                  None, True)
        assert not np.any(out[-1] == kernels.FLAG_SINGULAR)
        return (bw_scalar, adaptive_m, *out)

    def fit_columns(operands, columns, bandwidth):
        Y = design.Y[:, columns]
        bw_scalar, adaptive_m, beta, fitted, s_ii, s_norm2, flags = kernel(
            Y, operands.columns(columns), bandwidth)
        trace_s, trace_sts = float(s_ii.sum()), float(s_norm2.sum())
        fits = []
        for k in range(len(columns)):
            y = Y[:, k]
            residuals = y - fitted[:, k]
            rss = float(residuals @ residuals)
            tss = float(((y - y.mean()) ** 2).sum())
            column_fit = dict(beta=np.ascontiguousarray(beta[:, :, k]), fitted=fitted[:, k],
                              residuals=residuals, trace_s=trace_s, trace_sts=trace_sts,
                              rss=rss, tss=tss, adjusted_r2=math.nan, aicc=math.nan,
                              bandwidth=bw_scalar, adaptive_neighbors=adaptive_m,
                              kernel=design.kernel, flags=flags,
                              predictor_names=list(design.predictor_names),
                              location_ids=list(design.location_ids), aicc_evals=0,
                              bandwidth_boundary=None)
            p_eff = 2.0 * trace_s - trace_sts
            column_fit["adjusted_r2"] = 1.0 - (rss / (n - p_eff)) / (tss / (n - 1))
            column_fit["aicc"] = gwr._aicc(rss, trace_s, n)
            fits.append(column_fit)
        return fits

    columns = list(range(design.Y.shape[1]))
    operands = kernels.gwr_operands(design.X, design.Y)
    if bandwidth != "aicc":
        return fit_columns(operands, columns, bandwidth)
    searches = gwr._search(design, operands, kernels.pairwise_distances(design.coords))
    by_bandwidth = {}
    for k, (bw, _, _) in enumerate(searches):
        by_bandwidth.setdefault(bw, []).append(k)
    fits = {}
    for bw, members in by_bandwidth.items():
        fits.update(zip(members, fit_columns(operands, members, bw)))
    for k, (_, boundary, evals) in enumerate(searches):
        fits[k]["aicc_evals"] = evals
        fits[k]["bandwidth_boundary"] = boundary
    return [fits[k] for k in columns]


# the refits and the adaptive fit read the rows of one distance matrix, which
# are bit-equal to the per-block distances (test_kernels), so every field of
# every fit is bit-equal to the fit before
@pytest.mark.parametrize("kernel", gwr.KERNELS)
@pytest.mark.parametrize("bandwidth", ["aicc", ("adaptive", 12), 900.0])
def test_fit_matches_the_fit_before(rng, kernel, bandwidth):
    design = _drifting_design(rng, kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the boundary warning of a search
        fits = gwr.fit(design, bandwidth)
        want = _fit_before(design, bandwidth)

    if bandwidth == "aicc":
        assert len({fit.bandwidth for fit in fits}) > 1
    names = [f.name for f in dataclasses.fields(gwr.GwrFit)]
    assert len(fits) == len(want) == 8
    for fit, fields in zip(fits, want):
        assert sorted(fields) == sorted(names)
        for name in names:
            got = getattr(fit, name)
            if isinstance(got, np.ndarray):
                assert got.dtype == fields[name].dtype and np.array_equal(got, fields[name]), name
            else:
                assert type(got) is type(fields[name]) and got == fields[name], name


@pytest.mark.parametrize("bandwidth, matrices", [("aicc", 1), (("adaptive", 12), 1),
                                                  (900.0, 0)])
def test_one_distance_matrix_per_fit(rng, monkeypatch, bandwidth, matrices):
    # an AICc or adaptive fit builds one matrix and measures no row block
    # apart from it; a fixed bandwidth builds none, and each of its row blocks
    # measures its own distances. The AICc search calls the AICc-only kernel
    # once per distinct bandwidth that the full-kernel search fitted, and the
    # full kernel once per chosen bandwidth
    design = _drifting_design(rng, "gaussian")
    calls = {"matrix": 0, "rows": 0}
    fitted = {True: [], False: []}  # the bandwidth of each kernel call, by `full`
    pairwise_distances, distances = kernels.pairwise_distances, kernels._distances
    gwr_fit_all = kernels.gwr_fit_all

    def count_fits(coords, X, Y, bandwidths, kernel, operands, dist=None, full=True):
        fitted[full].append(bandwidths[0])
        return gwr_fit_all(coords, X, Y, bandwidths, kernel, operands, dist, full)

    monkeypatch.setattr(kernels, "gwr_fit_all", count_fits)
    if bandwidth == "aicc":
        _full_kernel_search(design)  # full calls only, one per distinct bandwidth
        searched, fitted[True] = fitted[True], []

    def count_matrix(coords):
        calls["matrix"] += 1
        return pairwise_distances(coords)

    def count_rows(px, py, sx, sy):
        calls["rows"] += 1
        return distances(px, py, sx, sy)

    monkeypatch.setattr(kernels, "pairwise_distances", count_matrix)
    monkeypatch.setattr(kernels, "_distances", count_rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fits = gwr.fit(design, bandwidth)

    if bandwidth == "aicc":
        assert len({fit.bandwidth for fit in fits}) > 1  # several refits
        assert len(fitted[False]) == len(set(fitted[False])) == len(set(searched))
        assert len(fitted[True]) == len({fit.bandwidth for fit in fits})
    assert calls["matrix"] == matrices
    blocks = -(-design.n // kernels._block_rows(design.n, design.n_params, 8))
    # the matrix is itself one `_distances` call over all rows
    assert calls["rows"] == (1 if matrices else blocks)


# ---------------------------------------------------------------------------
# time slicing
# ---------------------------------------------------------------------------

def _period_design(rng, strengths, n=160):
    coords = rng.uniform(0, 3000, (n, 2))
    predictors = rng.normal(size=(n, 2))
    base_signal = predictors @ np.array([2.0, -1.0])
    Y = np.column_stack([10.0 + strengths[p] * base_signal + rng.normal(0, 1.0, n)
                         for p in PERIODS])
    return GwrDesign.build(coords, predictors, Y)


def test_fit_identical_responses_give_identical_fits(rng):
    coords = rng.uniform(0, 3000, (100, 2))
    predictors = rng.normal(size=(100, 2))
    y = predictors @ np.array([1.0, 2.0]) + rng.normal(0, 0.3, 100)
    design = GwrDesign.build(coords, predictors, np.column_stack([y] * len(PERIODS)))
    fits = gwr.fit(design, bandwidth=1500.0)
    r2 = [fit.adjusted_r2 for fit in fits]
    assert len(fits) == len(PERIODS)
    assert np.allclose(r2, r2[0], atol=1e-12)


def test_fit_matches_per_column_search(rng):
    # a jittered grid keeps the smallest distance, the search's lower bound,
    # well posed; wd_am carries no signal, so its search runs into the upper
    # boundary, while the others share a slope that drifts across the grid
    grid = 300.0 * np.stack(np.meshgrid(np.arange(9), np.arange(9)), -1).reshape(-1, 2)
    coords = grid + rng.uniform(-30, 30, grid.shape)
    n = len(coords)
    predictors = rng.normal(size=(n, 2))
    slope = 1.0 + coords[:, 0] / 2400.0
    Y = np.column_stack([(0.0 if period == "wd_am" else slope * predictors[:, 0])
                         + rng.normal(0, 0.5, n) for period in PERIODS])
    design = GwrDesign.build(coords, predictors, Y)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fits = dict(zip(PERIODS, gwr.fit(design)))
    with warnings.catch_warnings(record=True) as caught_ref:
        warnings.simplefilter("always")
        refs = {p: _fit1(GwrDesign.build(coords, predictors, Y[:, k]), "aicc")
                for k, p in enumerate(PERIODS)}

    assert len(caught) == len(caught_ref) >= 1
    assert len({fit.bandwidth for fit in fits.values()}) > 1
    for p in PERIODS:
        ref = refs[p]
        assert fits[p].bandwidth == ref.bandwidth
        np.testing.assert_allclose(fits[p].beta, ref.beta, rtol=1e-10, atol=1e-12)
        assert fits[p].aicc == pytest.approx(ref.aicc, rel=1e-12)
        assert fits[p].aicc_evals == ref.aicc_evals > 0
        assert fits[p].bandwidth_boundary == ref.bandwidth_boundary
    assert fits["wd_am"].bandwidth_boundary == "upper"


def test_time_sliced_tidal_pattern(rng):
    strengths = {"wd_am": 0.2, "wd_md": 3.0, "wd_pm": 2.5, "wd_nt": 1.5,
                 "we_am": 0.3, "we_md": 2.8, "we_pm": 2.4, "we_nt": 1.8}
    fits = dict(zip(PERIODS, gwr.fit(_period_design(rng, strengths), bandwidth=2000.0)))
    assert fits["wd_md"].adjusted_r2 > fits["wd_am"].adjusted_r2
    trajectory = [fits[p].adjusted_r2 for p in PERIODS]
    assert all(math.isfinite(r2) for r2 in trajectory)
    # the two morning periods carry the weakest signal: the trajectory dips there
    assert {PERIODS[i] for i in np.argsort(trajectory)[:2]} == {"wd_am", "we_am"}


# ---------------------------------------------------------------------------
# coefficient summaries
# ---------------------------------------------------------------------------

def test_coef_summary_constant_coefficients(rng):
    design, beta = _linear_design(rng, n=100, k=2, noise=0.0)
    fit = _fit1(design, 1000.0)
    summaries = coef_summary({p: fit for p in PERIODS}, "x1")
    for cs in summaries:
        assert cs.q1 == pytest.approx(cs.q3, abs=1e-6)
        assert cs.outliers == []
        assert cs.q1 <= cs.median <= cs.q3


def test_coef_summary_symmetric_distribution(rng):
    design, _ = _linear_design(rng, n=200, k=2, noise=1.0)
    fit = _fit1(design, 300.0)
    fits = {p: fit for p in PERIODS}
    cs = coef_summary(fits, "x1")[0]
    values = fit.beta[:, 1]
    assert cs.median == pytest.approx(np.median(values), abs=1e-12)
    assert cs.whisker_lo >= values.min() - 1e-12
    assert cs.whisker_hi <= values.max() + 1e-12


def test_coef_summary_planted_night_outliers(rng):
    coords = rng.uniform(0, 3000, (150, 2))
    predictors = rng.normal(size=(150, 2))
    y_quiet = predictors @ np.array([1.0, 0.5]) + rng.normal(0, 0.05, 150)
    # night response flips sign in a far-away pocket of the city
    pocket = coords[:, 0] > np.quantile(coords[:, 0], 0.9)
    y_night = predictors @ np.array([1.0, 0.5]) + rng.normal(0, 0.05, 150)
    y_night[pocket] -= 6.0 * predictors[pocket, 0]
    Y = np.column_stack([y_night if p.endswith("_nt") else y_quiet for p in PERIODS])
    fits = dict(zip(PERIODS, gwr.fit(GwrDesign.build(coords, predictors, Y), bandwidth=400.0)))
    summaries = {cs.period: cs for cs in coef_summary(fits, "x1")}
    assert len(summaries["wd_nt"].outliers) > len(summaries["wd_am"].outliers)


def test_aicc_guard_small_denominator(rng):
    design, _ = _linear_design(rng, n=60, k=2, noise=0.2)
    fit = _fit1(design, 300.0)
    assert math.isfinite(fit.aicc)
    assert gwr._aicc(fit.rss, fit.trace_s, design.n) == fit.aicc
    # a trace of n - 2 or more is the degenerate branch
    assert gwr._aicc(fit.rss, design.n - 2.0, design.n) == math.inf


def test_adjusted_r2_rejects_overparameterized(rng):
    design, _ = _linear_design(rng, n=60, k=2, noise=0.2)
    fit = _fit1(design, 300.0)
    with pytest.raises(ComputationError):
        adjusted_r2(fit.rss, fit.tss, design.n, 0.0, design.n)  # p_eff >= n
