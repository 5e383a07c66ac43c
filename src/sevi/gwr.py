"""Time-lagged, time-sliced geographically weighted regression.

Every location gets its own weighted least squares fit against spatially
kernel-weighted neighbors; hat-matrix traces are accumulated exactly while
streaming (S itself is never materialized), giving effective degrees of
freedom for adjusted R-squared and AICc. Bandwidths are either fixed
meters, adaptive neighbor counts, or AICc-selected by golden section.

A `GwrDesign` holds one set of coordinates and predictors and its responses
as columns: the time-sliced analysis pairs the lagged streetscape
predictors with one crowd response per period. At a given bandwidth the
columns share their local systems, hat diagonals and hat-row norms, so
`fit` fits them in one kernel call. `fit` builds the kernel's product
operands (`kernels.gwr_operands`) once per design, and every kernel call
of the search and the refits reads them.

With AICc selection the work splits in two, as in FastGWR (Li,
Fotheringham, Li & Oshan, IJGIS 2019): one driver steps all columns'
golden-section searches round by round, and fits each bandwidth a round
asks for in one AICc-only kernel call that forms only the fitted values and
tr(S); then the full kernel refits once per chosen bandwidth, for the
columns that chose it. AICc and adaptive fits build the n x n distance
matrix once, in `fit`, and every kernel call of the fit reads it; a fixed
bandwidth holds none, and each row block measures its own distances.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .exceptions import ComputationError, ValidationError
from .geodata import PERIODS
from .stats import FLAT_RTOL, is_flat, sorted_quantiles

GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0
REL_TOL = 1e-3  # the AICc search stops once its bracket is this share of the range,
MAX_ITER = 60   # or after this many golden-section steps
KERNELS = ("gaussian", "bisquare")


@dataclass
class GwrDesign:
    """Coordinates, lagged predictors (intercept prepended), and responses."""

    coords: np.ndarray              # (n, 2) meters
    X: np.ndarray                   # (n, k+1), first column all ones
    Y: np.ndarray                   # (n, m), one response per column
    kernel: str = "gaussian"        # gaussian | bisquare
    predictor_names: list[str] = field(default_factory=list)
    location_ids: list[str] = field(default_factory=list)

    @classmethod
    def build(cls, coords, predictors, y, kernel="gaussian",
              predictor_names=None, location_ids=None) -> "GwrDesign":
        """`y` is one response (n,) or m responses as columns (n, m). `kernel`
        is one of KERNELS, as the config checks it (`gwr.kernel`). The `gwr`
        stage passes n > k + 2 rows of finite values (the loaders and
        `indicators.indicator_table` check them) and one name per predictor.
        Every predictor must vary over the n locations (`stats.is_flat`): on a
        subset of the city, such as the segments with crowd data, a flat
        predictor is collinear with the intercept in every local fit
        (Wheeler & Tiefelsdorf, J. Geogr. Syst. 2005)."""
        coords = np.asarray(coords, dtype=float).reshape(-1, 2)
        predictors = np.atleast_2d(np.asarray(predictors, dtype=float))
        y = np.asarray(y, dtype=float)
        n, k = predictors.shape
        if predictor_names is None:
            predictor_names = [f"x{j + 1}" for j in range(k)]
        for j in range(k):
            if is_flat(predictors[:, j]):
                raise ValidationError(
                    f"predictor {predictor_names[j]!r} is constant over the {n} locations "
                    f"fitted (to a relative {FLAT_RTOL:g}); only the intercept may be constant"
                )
        X = np.column_stack([np.ones(n), predictors])
        if location_ids is None:
            location_ids = [str(i) for i in range(n)]
        return cls(coords=coords, X=np.ascontiguousarray(X),
                   Y=np.ascontiguousarray(y.reshape(n, -1)), kernel=kernel,
                   predictor_names=list(predictor_names), location_ids=list(location_ids))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def n_params(self) -> int:
        return self.X.shape[1]

    def pairwise_extent(self, dist: np.ndarray) -> tuple[float, float]:
        """(smallest nonzero pairwise distance, diameter) of the coordinates,
        read from their distance matrix `dist`."""
        diameter = float(dist.max())
        nonzero = dist[dist > 0]
        if len(nonzero) == 0 or diameter <= 0:
            raise ValidationError("all coordinates coincide; no usable bandwidth range")
        return float(nonzero.min()), diameter


@dataclass
class GwrFit:
    beta: np.ndarray           # (n, k+1) local coefficients
    fitted: np.ndarray
    residuals: np.ndarray
    trace_s: float
    trace_sts: float
    rss: float
    tss: float
    adjusted_r2: float
    aicc: float
    bandwidth: float | None     # meters (None for adaptive)
    adaptive_neighbors: int | None
    kernel: str
    flags: np.ndarray           # 0 clean, 1 ridged, 2 singular
    predictor_names: list[str]
    location_ids: list[str]
    aicc_evals: int                 # distinct bandwidths the AICc search fitted
    bandwidth_boundary: str | None  # "lower" | "upper" when the search hit one

    @property
    def n(self) -> int:
        return len(self.fitted)

    @property
    def n_ridged(self) -> int:
        return int((self.flags == kernels.FLAG_RIDGED).sum())


def adaptive_bandwidths(dist: np.ndarray, m: int) -> np.ndarray:
    """Per-location bandwidth: distance to the m-th nearest neighbor (self
    excluded), read from the locations' distance matrix `dist`."""
    n = dist.shape[0]
    if not (1 <= m <= n - 1):
        raise ValidationError(f"adaptive neighbor count must be in [1, {n - 1}], got {m}")
    bw = np.partition(dist, m, axis=1)[:, m]  # the m+1 smallest include the self distance
    if np.any(bw <= 0):
        i = int(np.argmax(bw <= 0))
        raise ComputationError(
            f"adaptive bandwidth is zero at location index {i} "
            "(coincident coordinates); increase the neighbor count"
        )
    return bw


def _kernel(design: GwrDesign, Y: np.ndarray, operands: kernels.GwrOperands,
            bandwidths: np.ndarray, dist: np.ndarray | None, full=True):
    """`kernels.gwr_fit_all` over the response columns `Y` of `design`, whose
    product operands are `operands`, at the per-location `bandwidths`; `dist`
    (the design's distance matrix or None) and `full` pass through. A local
    system that stays singular raises an error naming its location."""
    out = kernels.gwr_fit_all(design.coords, design.X, Y, bandwidths, design.kernel, operands,
                              dist, full)
    flags = out[-1]
    if np.any(flags == kernels.FLAG_SINGULAR):
        i = int(np.argmax(flags == kernels.FLAG_SINGULAR))
        raise ComputationError(
            f"local system singular even after ridge fallback at location "
            f"{design.location_ids[i]!r}"
        )
    return out


def _rss(y: np.ndarray, fitted: np.ndarray) -> tuple[np.ndarray, float]:
    residuals = y - fitted
    return residuals, float(residuals @ residuals)


def _fit_columns(design: GwrDesign, operands: kernels.GwrOperands, columns: list[int],
                 bandwidths: np.ndarray, dist: np.ndarray | None, bandwidth: float | None = None,
                 adaptive_neighbors: int | None = None, searches=None) -> list[GwrFit]:
    """Fits of the response `columns` at the per-location `bandwidths`, in one
    kernel call over those columns' `operands` and the design's distance
    matrix `dist` (or None). Each fit records the fixed `bandwidth` or the
    `adaptive_neighbors` count and, after an AICc search, its column's
    (bandwidth, boundary, evaluations) from `searches`. Near-singular local
    systems are ridged and flagged (see `_kernel`)."""
    Y = design.Y[:, columns]
    beta, fitted, s_ii, s_norm2, flags = _kernel(design, Y, operands, bandwidths, dist)
    trace_s, trace_sts = float(s_ii.sum()), float(s_norm2.sum())
    fits = []
    for k, (_, boundary, evals) in enumerate(searches or [(bandwidth, None, 0)] * len(columns)):
        y = Y[:, k]
        residuals, rss = _rss(y, fitted[:, k])
        tss = float(((y - y.mean()) ** 2).sum())
        fits.append(GwrFit(beta=np.ascontiguousarray(beta[:, :, k]), fitted=fitted[:, k],
                           residuals=residuals, trace_s=trace_s, trace_sts=trace_sts, rss=rss,
                           tss=tss, adjusted_r2=adjusted_r2(rss, tss, trace_s, trace_sts, design.n),
                           aicc=_aicc(rss, trace_s, design.n), bandwidth=bandwidth,
                           adaptive_neighbors=adaptive_neighbors, kernel=design.kernel,
                           flags=flags, predictor_names=list(design.predictor_names),
                           location_ids=list(design.location_ids), aicc_evals=evals,
                           bandwidth_boundary=boundary))
    return fits


def adjusted_r2(rss: float, tss: float, trace_s: float, trace_sts: float, n: int) -> float:
    """1 - [RSS/(n - p_eff)] / [TSS/(n - 1)] with p_eff = 2 tr(S) - tr(S'S)."""
    p_eff = 2.0 * trace_s - trace_sts
    if n <= p_eff:
        raise ComputationError(
            f"adjusted R^2 undefined: n={n} <= effective parameters {p_eff:.3f}"
        )
    if tss <= 0:
        raise ComputationError("adjusted R^2 undefined: response is constant")
    return 1.0 - (rss / (n - p_eff)) / (tss / (n - 1))


def _aicc(rss: float, trace_s: float, n: int) -> float:
    """Corrected AIC; +inf when the trace penalty denominator is not positive."""
    denom = n - 2.0 - trace_s
    if denom <= 0:
        return math.inf
    rss = max(rss, 1e-300)
    return (n * math.log(rss / n) + n * math.log(2.0 * math.pi)
            + n * (n + trace_s) / denom)


def _golden_section(lo0: float, hi0: float):
    """Steps a golden-section search over [lo0, hi0]: yields each bandwidth it
    visits, the ends first, and is sent back its AICc; a bandwidth may recur."""
    lo, hi = lo0, hi0
    yield lo
    yield hi
    x1 = hi - GOLDEN_INV * (hi - lo)
    x2 = lo + GOLDEN_INV * (hi - lo)
    f1 = yield x1
    f2 = yield x2
    for _ in range(MAX_ITER):
        if (hi - lo) <= REL_TOL * (hi0 - lo0):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN_INV * (hi - lo)
            f1 = yield x1
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN_INV * (hi - lo)
            f2 = yield x2


def _search(design: GwrDesign, operands: kernels.GwrOperands,
            dist: np.ndarray) -> list[tuple[float, str | None, int]]:
    """One golden-section AICc search per response column over [min nonzero
    distance, diameter], both read from the design's distance matrix `dist`.

    The searches step round by round; each bandwidth a round asks for that
    the memo lacks is fitted once for all columns by the AICc-only kernel
    over `dist` and `operands` (adjusted R^2 is undefined where effective
    parameters reach n). Each column's outcome is read from its trace, the
    AICc of each bandwidth it visited, in visit order. A search that ends on
    a boundary warns, once all of them have succeeded.
    """
    lo0, hi0 = design.pairwise_extent(dist)
    columns = range(design.Y.shape[1])
    memo: dict[float, list[float]] = {}
    steppers = [_golden_section(lo0, hi0) for _ in columns]
    asks = {k: next(stepper) for k, stepper in enumerate(steppers)}
    traces: list[dict[float, float]] = [{} for _ in columns]
    while asks:
        for b in dict.fromkeys(b for b in asks.values() if b not in memo):
            _, fitted, s_ii, _, _ = _kernel(design, design.Y, operands, np.full(design.n, b),
                                            dist, full=False)
            trace_s = float(s_ii.sum())
            memo[b] = [_aicc(_rss(design.Y[:, k], fitted[:, k])[1], trace_s, design.n)
                       for k in columns]
        for k, b in list(asks.items()):
            traces[k][b] = memo[b][k]
            try:
                asks[k] = steppers[k].send(memo[b][k])
            except StopIteration:
                del asks[k]
    pad = REL_TOL * (hi0 - lo0)
    searches = []
    for trace in traces:
        best = min(trace, key=lambda b: (trace[b], b))
        boundary = "lower" if best <= lo0 + pad else "upper" if best >= hi0 - pad else None
        best = {"lower": lo0, "upper": hi0}.get(boundary, best)
        searches.append((float(best), boundary, len(trace)))
    # the columns share tr(S), so AICc is +inf at a bandwidth for all or none
    if not any(math.isfinite(aiccs[0]) for aiccs in memo.values()):
        raise ComputationError(
            f"no searched bandwidth gives a finite AICc: n={design.n} locations are too "
            f"few for {design.n_params} parameters per local fit (n - 2 - tr(S) <= 0)")
    for best, boundary, _ in searches:
        if boundary is not None:
            warnings.warn(
                f"bandwidth search hit the {boundary} boundary "
                f"({best:.3f} m); the criterion appears monotone over the search range"
            )
    return searches


def fit(design: GwrDesign, bandwidth="aicc") -> list[GwrFit]:
    """One fit per response column of `design`, in column order.

    `bandwidth` is "aicc" (selected per column), a float (meters), or
    ("adaptive", m), as `pipeline` checks it. "aicc" and ("adaptive", m)
    build the distance matrix once, and the search, its refits and the
    adaptive bandwidths read it; a fixed bandwidth builds none. With "aicc"
    each fit records its search's evaluation count and the boundary it hit,
    if any; when the criterion is monotone over the interval the search lands
    on that boundary, with a warning. Deterministic for fixed inputs.
    """
    columns = list(range(design.Y.shape[1]))
    operands = kernels.gwr_operands(design.X, design.Y)
    if bandwidth != "aicc" and not isinstance(bandwidth, tuple):
        bw = float(bandwidth)
        return _fit_columns(design, operands, columns, np.full(design.n, bw), None, bandwidth=bw)
    dist = kernels.pairwise_distances(design.coords)
    if isinstance(bandwidth, tuple):
        _, m = bandwidth
        return _fit_columns(design, operands, columns, adaptive_bandwidths(dist, m), dist,
                            adaptive_neighbors=m)
    searches = _search(design, operands, dist)
    fits: dict[int, GwrFit] = {}
    for bw in dict.fromkeys(bw for bw, _, _ in searches):  # one refit per chosen bandwidth
        members = [k for k, (chosen, _, _) in enumerate(searches) if chosen == bw]
        fits.update(zip(members, _fit_columns(design, operands.columns(members), members,
                                              np.full(design.n, bw), dist, bandwidth=bw,
                                              searches=[searches[k] for k in members])))
    return [fits[k] for k in columns]


@dataclass
class CoefSummary:
    period: str
    variable: str
    q1: float
    median: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    outliers: list[float]


def coef_summary(fits: dict[str, GwrFit], variable: str) -> list[CoefSummary]:
    """Boxplot statistics of one coefficient's local values, per period.

    Whiskers sit at the most extreme data points within 1.5 IQR of the
    quartiles; values beyond are listed as outliers. `fits` holds every
    period, as the gwr stage returns them, and `variable` is "intercept" or
    a predictor, as the config checks it (`gwr.summary_variables`).
    """
    out = []
    for period in PERIODS:
        fit = fits[period]
        col = 0 if variable == "intercept" else 1 + fit.predictor_names.index(variable)
        values = fit.beta[:, col]
        q1, med, q3 = sorted_quantiles(np.sort(values), (0.25, 0.5, 0.75))
        iqr = q3 - q1
        lo_fence = q1 - 1.5 * iqr
        hi_fence = q3 + 1.5 * iqr
        inside = values[(values >= lo_fence) & (values <= hi_fence)]
        whisker_lo = float(inside.min()) if len(inside) else float(q1)
        whisker_hi = float(inside.max()) if len(inside) else float(q3)
        outliers = sorted(float(v) for v in values[(values < lo_fence) | (values > hi_fence)])
        out.append(CoefSummary(period=period, variable=variable, q1=float(q1),
                               median=float(med), q3=float(q3), whisker_lo=whisker_lo,
                               whisker_hi=whisker_hi, outliers=outliers))
    return out
