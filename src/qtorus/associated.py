"""Associated functions, growth witnesses and integral diagnostics.

The associated function tau(r) = inf_j M_j / r^j encodes the growth of a
derivative-norm profile.  From it this module derives, all in log-domain:

* the shifted variant  tau~(r) = inf_{s>=0} M_{s+3} / r^s,
* the sequence  ln t_m = min_{1<=r<=m} -ln(r^3 tau(r)) / (n r)  and its
  shifted companion ln theta(m) = min_{1<=r<=m} -ln(tau~(r)) / (n r),
* the divergence witness d_m = m^{1/(n+1)} ln t_m with a trend label,
* partial integrals of -ln(tau(r)) / r^2 with a trend verdict, and
* the decay-implies-integrability check for tabulated envelopes.

Every infimum over j is truncated at the profile's j_max.  A truncated scan
whose minimizer lands exactly on j_max is flagged "saturated": its value is
only an upper bound for tau (so a lower bound for the -ln quantities) and
verdicts discount it.  A min over r whose argmin scan is unsaturated is exact
despite truncation, because saturated entries can only pull the min down.

One kernel, ``_legendre``, answers every min over j.  ln tau(r) =
min_j (ln M_j - j x) with x = ln r is a discrete Legendre transform, and
only vertices of the lower convex hull of the points (j, ln M_j) can
minimize it: a point above the hull lies above a chord between two
vertices p < j < q, so its term exceeds one of theirs for every x
(Mandelbrojt's log-convex regularization; the linear-time Legendre
transform of Lucet, Numer. Algorithms 16, 1997).  Vertex v minimizes for
x between the slopes of the hull edges at v, so one ``searchsorted`` over
the edge slopes finds it.  The hull costs O(J) and a grid of R values of
ln r O(R log J) more, where a full scan costs O(R J).  The same holds for
tau~ and the fold weights, whose terms differ by 3 x and start at j = 3.

The results must equal the full scan bit for bit.  The float term
fl(ln M_j - fl((j - c) x)), with c = 0 for tau and c = 3 for tau~ and the
fold weights, is within u (|ln M_j| + 2 |(j - c) x|) of its exact value,
u = 2^-53, so near a tie rounding can let a neighbour of the hull
minimizer win.  So the kernel also evaluates every point whose exact
term can come within delta of the minimum, for delta = 2^-40 times the
largest |term|, far above any rounding: the hull vertices of every edge
whose slope is within delta of x, and the points less than delta above
those edges (collinear points included).  Every other point exceeds the
minimum by more than delta: moving from a candidate vertex away from x
crosses an edge whose slope differs from x by more than delta, and each
such step adds at least that much, while a point above an edge adds its
height.  Among the candidates the kernel keeps the smallest float term and
the smallest j on ties, exactly as the scan does.  Usually the candidate
set is the single vertex; on exact ties (factorial profiles at integer r,
say) it holds the two or more tied points.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .logspace import NEG_INF
from .norms import DerivativeNormProfile, shift_profile
from .series import Record

LN_HALF = math.log(0.5)

#: Relative margin used when rescaling into the normalization M_3 < 1/2.
CLASS_MARGIN = 1e-6

#: Fewest unsaturated grid points a growth-model fit is made from.
MIN_FIT_POINTS = 8

#: Largest |ln(r^3 tau(r)) - ln tau~(r)| at which :func:`find_r0` counts the
#: identity as holding.
R0_TOL = 1e-9

#: Candidate window of the tau kernel, relative to the largest |term| a query
#: can reach.  Rounding moves a float term by at most 2^-52 of that bound, so
#: the window is 2^12 times wider than any rounding it has to absorb.
_SLACK = 2.0**-40


class DegenerateProfileError(ValueError):
    """Some ln M_j = -inf: tau vanishes identically and t_m is meaningless."""


class TrendConfig(Record):
    """Thresholds for the asymptotic-trend classifiers.

    The statements being checked are asymptotic; these cutoffs make them
    decidable at desk scale and are deliberately configuration, not math.
    """

    slope_threshold: float = 0.05      # least-squares slope of d_m vs ln m
    residual_threshold: float = 0.1    # log-linear fit residual gate
    tail_threshold: float = 1e-3       # Cauchy increment per decade
    fit_margin: float = 0.9            # rmse ratio for a growth model to win
    saturation_fraction: float = 0.5   # grid fraction above which verdicts abstain


DEFAULT_TREND = TrendConfig()


def _require_nondegenerate(profile: DerivativeNormProfile) -> None:
    if profile.is_degenerate():
        raise DegenerateProfileError("degenerate profile: some ln M_j = -inf")


def _lower_hull(a: list) -> tuple[list, list]:
    """Vertices and edge slopes of the lower convex hull of the points (i, a[i]).

    Monotone chain in O(len(a)): a vertex stays only where the computed slope
    strictly increases across it, so collinear points are not vertices and
    the returned slopes are strictly increasing.
    """
    hull = [0]
    slopes: list = []
    for q in range(1, len(a)):
        while True:
            p = hull[-1]
            s = (a[q] - a[p]) / (q - p)
            if not slopes or s > slopes[-1]:
                break
            hull.pop()
            slopes.pop()
        hull.append(q)
        slopes.append(s)
    return hull, slopes


def _profile_hull(profile: DerivativeNormProfile, start: int):
    """(vertices, edge slopes) of the lower hull of the points (j - start, ln M_j), j >= start.

    Built once per profile and ``start`` and kept on the profile.
    """
    hull = profile._hulls.get(start)
    if hull is None:
        vertices, slopes = _lower_hull(list(profile.ln_m[start:]))
        hull = (np.asarray(vertices, dtype=np.int64), np.asarray(slopes, dtype=float))
        profile._hulls[start] = hull
    return hull


def _hull_argmin(a: np.ndarray, hull: np.ndarray, slopes: np.ndarray, x: np.ndarray, off: int):
    """First argmin over i of the float term a[i] - (i - off) * x, for each x.

    ``a`` is finite, with lower hull ``hull`` and edge slopes ``slopes``
    from :func:`_lower_hull`.  Candidates are the points within ``delta``
    of the hull on the edges whose slope lies within ``delta`` of x (see
    the module docstring); usually that is the one hull vertex of x.
    """
    if a.size == 1 or x.size == 0:
        return np.zeros(x.shape, dtype=np.int64)
    scale = float(np.max(np.abs(a))) + (a.size + abs(off)) * float(np.max(np.abs(x))) + 1.0
    delta = _SLACK * scale

    i = np.arange(a.size)
    edge = np.minimum(np.searchsorted(hull, i, side="right") - 1, hull.size - 2)
    p, q = hull[edge], hull[edge + 1]
    height = a - (a[p] + (i - p) / (q - p) * (a[q] - a[p]))
    near = height <= delta
    near[hull] = True
    cand = np.flatnonzero(near)

    lo = np.searchsorted(slopes, x - delta, side="left")
    hi = np.searchsorted(slopes, x + delta, side="right")
    first = np.searchsorted(cand, hull[lo], side="left")
    count = np.searchsorted(cand, hull[hi], side="right") - first

    seg = np.cumsum(count) - count
    flat = cand[np.arange(int(count.sum())) - np.repeat(seg - first, count)]
    xs = np.repeat(x, count)
    terms = a[flat] - (flat - off) * xs
    best = np.minimum.reduceat(terms, seg)
    tied = terms == np.repeat(best, count)
    return np.minimum.reduceat(np.where(tied, flat, a.size), seg)


def _legendre(profile: DerivativeNormProfile, ln_r, start: int = 0, offset: int = 0):
    """(values, argmin) of min_{start<=j<=j_max} (ln M_j - (j - offset) ln r).

    One entry per value of ``ln_r``: the float term
    ``ln_m[j] - (j - offset) * ln_r`` at the argmin j, where j is the
    smallest index among equal float terms, bit for bit what a full scan
    over j gives.  An ln M_j = -inf with j >= start
    makes every term at that j -inf, so its first index is the argmin for
    every r.
    """
    ln_m = profile.ln_m_array()
    ln_r = np.asarray(ln_r, dtype=float)
    tail = ln_m[start:]
    vanishing = np.flatnonzero(tail == NEG_INF)
    if vanishing.size:
        arg = np.full(ln_r.shape, vanishing[0], dtype=np.int64)
    else:
        arg = _hull_argmin(tail, *_profile_hull(profile, start), ln_r, offset - start)
    arg = arg + start
    return ln_m[arg] - (arg - offset) * ln_r, arg


def log_tau(profile: DerivativeNormProfile, r: float) -> float:
    """ln tau(r) = min_{0<=j<=j_max} (ln M_j - j ln r).

    An upper bound for the true inf over all j >= 0: truncation can only
    miss smaller terms.
    """
    if r < 1.0:
        raise ValueError("r must be >= 1")
    return float(_legendre(profile, [math.log(r)])[0][0])


def log_tau_shifted(profile: DerivativeNormProfile, r: float) -> float:
    """ln tau~(r) = min_{0<=s<=j_max-3} (ln M_{s+3} - s ln r)."""
    if profile.j_max < 3:
        raise ValueError("shifted associated function needs j_max >= 3")
    if r < 1.0:
        raise ValueError("r must be >= 1")
    return float(_legendre(profile, [math.log(r)], 3, 3)[0][0])


def _fold_weights(profile: DerivativeNormProfile, r_max: int):
    """Shared-term growth weights on the integer grid r = 1..r_max.

    Returns (w_full, w_shifted, sat_full, sat_shifted) where

        w_full(r)    = max_{0<=j<=J} ((j-3) ln r - ln M_j) = -ln(r^3 tau(r))
        w_shifted(r) = max_{3<=j<=J} ((j-3) ln r - ln M_j) = -ln(tau~(r))

    Each weight is the float term at the first argmax.  The full maximum
    runs over a superset of the shifted one's float terms, so
    w_full >= w_shifted; it is enforced all the same, because dividing by
    n*r and taking prefix minima preserves it, which keeps the chain
    ln t_m >= ln theta(m) exact.  On a tie w_full takes the shifted term:
    the two can differ only in the sign of a zero at r = 1, which only the
    negative weights j - 3 < 0 make negative.  sat_* flags an argmax
    landing on j_max.
    """
    j_max = profile.j_max
    ln_m = profile.ln_m_array()
    ln_r = np.log(np.arange(1, r_max + 1, dtype=float))
    _, arg_full = _legendre(profile, ln_r, 0, 3)
    w_full = (arg_full - 3) * ln_r - ln_m[arg_full]
    if j_max >= 3:
        _, arg_shift = _legendre(profile, ln_r, 3, 3)
        w_shift = (arg_shift - 3) * ln_r - ln_m[arg_shift]
        w_full = np.where(w_shift >= w_full, w_shift, w_full)
    else:
        # No shifted sequence to minimize over; callers needing it
        # (theta, witness) reject j_max < 3 before getting here.
        w_shift = np.full(r_max, -np.inf)
        arg_shift = np.zeros(r_max, dtype=np.int64)
    return w_full, w_shift, arg_full == j_max, arg_shift == j_max


def t_m_sequence(profile: DerivativeNormProfile, m_max: int, n: int) -> np.ndarray:
    """ln t_m for m = 1..m_max, from one pass over r = 1..m_max."""
    if m_max < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    _require_nondegenerate(profile)
    w_full, _, _, _ = _fold_weights(profile, m_max)
    r = np.arange(1, m_max + 1, dtype=float)
    return np.minimum.accumulate(w_full / (n * r))


def t_m(profile: DerivativeNormProfile, m: int, n: int) -> float:
    """ln t_m = min over integer r in [1, m] of -ln(r^3 tau(r)) / (n r)."""
    return float(t_m_sequence(profile, m, n)[-1])


def theta(profile: DerivativeNormProfile, m: int, n: int) -> float:
    """ln theta(m) = min over integer r in [1, m] of -ln(tau~(r)) / (n r)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if profile.j_max < 3:
        raise ValueError("theta needs j_max >= 3")
    _require_nondegenerate(profile)
    _, w_shift, _, _ = _fold_weights(profile, m)
    r = np.arange(1, m + 1, dtype=float)
    return float(np.min(w_shift / (n * r)))


# ---------------------------------------------------------------------------
# Associated-function table and the threshold where r^3 tau = tau~
# ---------------------------------------------------------------------------

class AssociatedTable(Record):
    """ln tau and ln tau~ tabulated on an increasing grid of r >= 1."""

    r_grid: tuple
    ln_tau: tuple
    ln_tau_shifted: tuple
    j_max: int
    r0_estimate: float


def build_table(profile: DerivativeNormProfile, r_grid) -> AssociatedTable:
    """Tabulate ln tau(r) and ln tau~(r) and estimate the identity threshold."""
    grid = tuple(float(r) for r in r_grid)
    if not grid or any(r < 1 for r in grid):
        raise ValueError("r grid must be nonempty with r >= 1")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("r grid must be strictly increasing")
    if profile.j_max < 3:
        raise ValueError("shifted associated function needs j_max >= 3")
    ln_r = [math.log(r) for r in grid]
    ln_tau = tuple(_legendre(profile, ln_r)[0].tolist())
    ln_shift = tuple(_legendre(profile, ln_r, 3, 3)[0].tolist())
    table = AssociatedTable(
        r_grid=grid,
        ln_tau=ln_tau,
        ln_tau_shifted=ln_shift,
        j_max=profile.j_max,
        r0_estimate=math.inf,
    )
    object.__setattr__(table, "r0_estimate", find_r0(table))
    return table


def find_r0(table: AssociatedTable) -> float:
    """Smallest grid r from which ln(r^3 tau(r)) = ln tau~(r) holds onward.

    Returns +inf when the identity never holds through the end of the grid.
    """
    threshold = math.inf
    for r, lt, ls in zip(
        reversed(table.r_grid), reversed(table.ln_tau), reversed(table.ln_tau_shifted)
    ):
        diff = 3.0 * math.log(r) + lt - ls
        if math.isnan(diff) or abs(diff) > R0_TOL:
            break
        threshold = r
    return threshold


# ---------------------------------------------------------------------------
# Growth-model fitting shared by the witness and integral diagnostics
# ---------------------------------------------------------------------------

class TrendFit(Record):
    slope: float
    intercept: float
    rmse: float


def _fit_line(x: np.ndarray, y: np.ndarray) -> TrendFit:
    design = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rmse = float(np.sqrt(np.mean(resid * resid)))
    return TrendFit(slope=float(coef[0]), intercept=float(coef[1]), rmse=rmse)


def _pick_growth_model(r: np.ndarray, w: np.ndarray, margin: float):
    """Compare w ~ a*r + b against w ~ a*sqrt(r) + b.

    Returns (fit_linear, fit_sqrt, winner) with winner in
    {"linear", "sqrt", None}; None when neither model beats the other by the
    rmse margin or a winning slope is not positive.
    """
    fit_lin = _fit_line(r, w)
    fit_sqrt = _fit_line(np.sqrt(r), w)
    winner = None
    if fit_lin.rmse < margin * fit_sqrt.rmse and fit_lin.slope > 0:
        winner = "linear"
    elif fit_sqrt.rmse < margin * fit_lin.rmse and fit_sqrt.slope > 0:
        winner = "sqrt"
    return fit_lin, fit_sqrt, winner


# ---------------------------------------------------------------------------
# Divergence witness
# ---------------------------------------------------------------------------

class WitnessSeries(Record):
    """The sequences t_m, theta(m) and the divergence witness d_m.

    ``witness`` holds d_m = m^{1/(n+1)} ln t_m.  ``argmin_r`` records which r
    realized each min and ``argmin_saturated`` whether that scan hit j_max
    (in which case the value is only a lower bound).  ``theta_positive``
    records ln theta(m) > 0 per m; the strict positivity is meaningful only
    under the normalization M_3 < 1/2, so it is recorded, never asserted.
    ``normalization_shift`` is the ln-scale applied before computing
    (0.0 when ``normalize=False`` was requested or nothing had to move).
    """

    dim: int
    m_grid: tuple
    ln_t: tuple
    ln_theta: tuple
    witness: tuple
    theta_positive: tuple
    argmin_r: tuple
    argmin_saturated: tuple
    chain_violations: int
    normalization_shift: float
    classification: str
    slope: float
    fit_linear: TrendFit | None
    fit_sqrt: TrendFit | None


def _running_min_with_argmin(values: np.ndarray):
    best = np.minimum.accumulate(values)
    prev = np.concatenate(([math.inf], best[:-1]))
    fresh = values < prev  # strict: ties keep the earlier index
    arg = np.where(fresh, np.arange(values.size), -1)
    arg = np.maximum.accumulate(arg)
    arg[0] = 0
    return best, arg


def witness(
    profile: DerivativeNormProfile,
    n: int,
    m_grid,
    normalize: bool = True,
    config: TrendConfig = DEFAULT_TREND,
) -> WitnessSeries:
    """Compute ln t_m, ln theta(m) and classify the divergence of d_m.

    With ``normalize=True`` (default) the profile is first shifted so that
    M_3 = (1/2)(1 - 1e-6): the inequality chain t_m >= theta(m) > 1 and the
    divergence hypothesis presume that normalization, and applying it here
    makes the classification invariant under rescaling the input function.

    The label is structural: a min that froze at an interior r stays frozen
    (d_m grows like m^{1/(n+1)}), while a min still riding the boundary
    r = m is classified by whether -ln(r^3 tau(r)) grows linearly (t_m
    bounded away from 1) or like sqrt(r) (t_m -> 1).  Saturated argmin scans
    in the top half of the grid make the label "inconclusive".
    """
    m_vals = [int(m) for m in m_grid]
    if not m_vals or any(m < 1 for m in m_vals):
        raise ValueError("m grid must be nonempty with m >= 1")
    if any(b <= a for a, b in zip(m_vals, m_vals[1:])):
        raise ValueError("m grid must be strictly increasing")
    if profile.j_max < 3:
        raise ValueError("witness needs j_max >= 3")
    _require_nondegenerate(profile)

    shift = 0.0
    if normalize:
        shift = LN_HALF + math.log1p(-CLASS_MARGIN) - profile.ln_m[3]
    work = shift_profile(profile, shift) if shift != 0.0 else profile

    r_max = m_vals[-1]
    w_full, w_shift, sat_full, _ = _fold_weights(work, r_max)
    r = np.arange(1, r_max + 1, dtype=float)
    g_full = w_full / (n * r)
    g_shift = w_shift / (n * r)
    run_t, arg_t = _running_min_with_argmin(g_full)
    run_theta, _ = _running_min_with_argmin(g_shift)

    idx = np.asarray(m_vals, dtype=np.int64) - 1
    ln_t = run_t[idx]
    ln_theta = run_theta[idx]
    argmin_r = arg_t[idx] + 1
    arg_sat = sat_full[arg_t[idx]]
    m_arr = np.asarray(m_vals, dtype=float)
    d = m_arr ** (1.0 / (n + 1)) * ln_t
    chain_violations = int(np.sum(ln_t < ln_theta))

    label, slope_d, fit_lin, fit_sqrt = _classify_structural(
        m_arr, ln_t, argmin_r, arg_sat, r, w_full, sat_full, n, config
    )

    return WitnessSeries(
        dim=n,
        m_grid=tuple(m_vals),
        ln_t=tuple(ln_t.tolist()),
        ln_theta=tuple(ln_theta.tolist()),
        witness=tuple(d.tolist()),
        theta_positive=tuple((ln_theta > 0).tolist()),
        argmin_r=tuple(argmin_r.tolist()),
        argmin_saturated=tuple(arg_sat.tolist()),
        chain_violations=chain_violations,
        normalization_shift=shift,
        classification=label,
        slope=slope_d,
        fit_linear=fit_lin,
        fit_sqrt=fit_sqrt,
    )


def _classify_structural(
    m_arr, ln_t, argmin_r, arg_sat, r, w_full, sat_full, n, config
):
    top = slice(m_arr.size // 2, None)
    d = m_arr ** (1.0 / (n + 1)) * ln_t
    if m_arr[top].size < 3:
        return "inconclusive", math.nan, None, None
    slope_d = _fit_line(np.log(m_arr[top]), d[top]).slope
    if np.any(arg_sat[top]):
        return "inconclusive", slope_d, None, None

    # Primary rule: the growth model of -ln tau(r) over the unsaturated grid.
    # Linear growth keeps w(r)/r bounded away from zero (t_m stays away from
    # 1, the witness grows like m^{1/(n+1)}); sqrt-type growth sends t_m -> 1
    # fast enough to pin the witness.  On this scale the r^3 weight and the
    # normalization shift land in the intercept, so transients cannot flip
    # the fit the way they bend ln t_m itself at desk scale.
    keep = ~sat_full
    if int(np.sum(keep)) >= MIN_FIT_POINTS:
        neg_ln_tau = w_full[keep] + 3.0 * np.log(r[keep])
        fit_lin, fit_sqrt, best = _pick_growth_model(
            r[keep], neg_ln_tau, config.fit_margin
        )
        if best == "linear":
            return "divergent-trend", slope_d, fit_lin, fit_sqrt
        if best == "sqrt":
            return "bounded-trend", slope_d, fit_lin, fit_sqrt
    else:
        fit_lin = fit_sqrt = None

    # No clear growth model: a min frozen at an interior r with a positive
    # frozen value leaves d_m growing like m^{1/(n+1)} from here on.
    interior = np.all(argmin_r[top] <= m_arr[top] // 2)
    if interior and np.all(ln_t[top] > 0):
        return "divergent-trend", slope_d, fit_lin, fit_sqrt

    label = "divergent-trend" if slope_d > config.slope_threshold else "bounded-trend"
    return label, slope_d, fit_lin, fit_sqrt


# ---------------------------------------------------------------------------
# Integral criterion diagnostic
# ---------------------------------------------------------------------------

class CarlemanReport(Record):
    """Partial integrals of -ln tau(r) / r^2 plus growth-model fits.

    ``verdict`` is one of {"quasianalytic-trend", "non-quasianalytic-trend",
    "inconclusive"}.  Saturated grid points (tau minimizer at j_max) carry a
    truncation artifact -ln tau ~ j_max ln r; they are excluded from the fits
    and a saturated fraction beyond the configured cutoff forces the verdict
    to "inconclusive".  Trend verdicts therefore require j_max comfortably
    above the tau minimizer at r_max.  Fewer than ``MIN_FIT_POINTS``
    unsaturated points leave both fits None.
    """

    r_grid: tuple
    neg_ln_tau: tuple
    saturated: tuple
    partial_integral: tuple
    fit_linear: TrendFit | None
    fit_sqrt: TrendFit | None
    saturated_fraction: float
    last_decade_increment: float
    verdict: str
    j_max: int


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    steps = 0.5 * (y[1:] + y[:-1]) * np.diff(x)
    return np.concatenate(([0.0], np.cumsum(steps)))


def carleman_diagnostic(
    profile: DerivativeNormProfile,
    r_max: float,
    points_per_decade: int = 64,
    config: TrendConfig = DEFAULT_TREND,
) -> CarlemanReport:
    """Integrate -ln tau(r) / r^2 on [1, r_max] and classify the trend.

    Quasianalytic-type profiles show -ln tau growing linearly in r (the
    partial integrals grow like ln R); profiles with stretched-exponential
    coefficient decay show sqrt-type growth (the integrals Cauchy-converge).
    """
    if r_max < 2:
        raise ValueError("r_max must be >= 2")
    if r_max > sys.float_info.max:
        raise ValueError(f"r_max must be at most {sys.float_info.max!r}, the largest float")
    _require_nondegenerate(profile)
    n_points = max(2, int(math.ceil(points_per_decade * math.log10(r_max))) + 1)
    with np.errstate(over="ignore"):
        # Within rounding of the largest float, 10^log10(r_max) can overflow;
        # that grid point is the largest float instead.
        grid = np.minimum(np.logspace(0.0, math.log10(r_max), n_points), sys.float_info.max)
    grid[0] = 1.0
    ln_tau, arg = _legendre(profile, np.log(grid))
    saturated = arg == profile.j_max
    neg = -ln_tau
    with np.errstate(over="ignore"):
        # r^2 past the float range is inf, and neg / inf = 0 is the
        # integrand's limit there.
        integrand = neg / grid**2
    partial = _cumulative_trapezoid(integrand, grid)
    sat_fraction = float(np.mean(saturated))

    cut = np.searchsorted(grid, grid[-1] / 10.0)
    last_decade = float(partial[-1] - partial[min(cut, len(partial) - 1)])

    keep = ~saturated
    fit_lin = fit_sqrt = best = None
    if int(np.sum(keep)) >= MIN_FIT_POINTS:
        fit_lin, fit_sqrt, best = _pick_growth_model(
            grid[keep], neg[keep], config.fit_margin
        )

    if sat_fraction > config.saturation_fraction:
        verdict = "inconclusive"
    elif best == "linear":
        verdict = "quasianalytic-trend"
    elif best == "sqrt":
        verdict = "non-quasianalytic-trend"
    else:
        verdict = "inconclusive"

    return CarlemanReport(
        r_grid=tuple(grid.tolist()),
        neg_ln_tau=tuple(neg.tolist()),
        saturated=tuple(saturated.tolist()),
        partial_integral=tuple(partial.tolist()),
        fit_linear=fit_lin,
        fit_sqrt=fit_sqrt,
        saturated_fraction=sat_fraction,
        last_decade_increment=last_decade,
        verdict=verdict,
        j_max=profile.j_max,
    )


# ---------------------------------------------------------------------------
# Decay-implies-integrability check for a tabulated envelope h
# ---------------------------------------------------------------------------

class LemmaReport(Record):
    """Numerical check that exponential decay of the envelope minimum forces
    integrability of h(t) / t^2.

    With s = ln t the quantity min_{0<=s<=x} h(e^s) e^{-s} is fitted to
    C e^{-alpha x}; when the fit succeeds with 0 < alpha < 1 the partial
    integrals must be Cauchy.  Both sides are reported so the implication can
    be asserted by callers.
    """

    alpha_fit: float
    c_fit: float
    residual: float
    fit_ok: bool
    hypothesis_ok: bool
    partial_integrals: tuple
    last_decade_increment: float
    previous_decade_increment: float
    verdict: str
    implication_holds: bool


def lemma_check(t_grid, h_values, config: TrendConfig = DEFAULT_TREND) -> LemmaReport:
    """Run the decay/integrability check on a tabulated function h(t).

    ``t_grid`` must be increasing with t >= 1; ``h_values`` must be positive.
    """
    t = np.asarray(t_grid, dtype=float)
    h = np.asarray(h_values, dtype=float)
    if t.ndim != 1 or t.shape != h.shape or t.size < 4:
        raise ValueError("need matching 1-d grids with at least 4 points")
    if np.any(h <= 0):
        raise ValueError("h must be positive on the grid")
    if np.any(np.diff(t) <= 0) or t[0] < 1.0:
        raise ValueError("t grid must be increasing with t >= 1")

    s = np.log(t)
    envelope = h / t                      # h~(s) e^{-s} evaluated on the grid
    h_min = np.minimum.accumulate(envelope)

    fit = _fit_line(s, np.log(h_min))
    alpha = -fit.slope
    c_fit = math.exp(fit.intercept)
    fit_ok = (fit.rmse < config.residual_threshold) and (0.0 < alpha < 1.0)

    # Hypothesis: h~(s) = h(e^s) positive, increasing, convex.
    scale = np.maximum(1.0, np.abs(h))
    increasing = bool(np.all(np.diff(h) >= -1e-12 * scale[1:]))
    second = h[2:] - 2.0 * h[1:-1] + h[:-2]
    convex = bool(np.all(second >= -1e-9 * scale[1:-1]))
    hypothesis_ok = increasing and convex

    partial = _cumulative_trapezoid(envelope, s)  # = integral of h/t^2 dt
    ln10 = math.log(10.0)
    last_cut = np.searchsorted(s, s[-1] - ln10)
    prev_cut = np.searchsorted(s, s[-1] - 2.0 * ln10)
    last_inc = float(partial[-1] - partial[min(last_cut, len(partial) - 1)])
    prev_inc = float(
        partial[min(last_cut, len(partial) - 1)] - partial[min(prev_cut, len(partial) - 1)]
    )

    if s[-1] - s[0] < 2.0 * ln10:
        verdict = "inconclusive"
    elif last_inc < config.tail_threshold:
        verdict = "convergent"
    elif prev_inc > 0 and last_inc >= 0.9 * prev_inc:
        verdict = "divergent"
    else:
        verdict = "inconclusive"

    implication = (not fit_ok) or (last_inc < config.tail_threshold)

    return LemmaReport(
        alpha_fit=float(alpha),
        c_fit=float(c_fit),
        residual=fit.rmse,
        fit_ok=fit_ok,
        hypothesis_ok=hypothesis_ok,
        partial_integrals=tuple(float(v) for v in partial),
        last_decade_increment=last_inc,
        previous_decade_increment=prev_inc,
        verdict=verdict,
        implication_holds=implication,
    )
