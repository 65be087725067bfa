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
tau~, whose hull starts at j = 3.  The fold weights need no pass of their
own: -ln(r^3 tau(r)) = max(-ln tau~(r), max_{j<3} ((j - 3) x - ln M_j)),
since the two sets of terms differ only in j = 0, 1, 2.

The results must equal the full scan bit for bit.  The float term
fl(ln M_j - fl((j - s) x)), with s = 0 for tau and s = 3 for tau~, is
within u (|ln M_j| + 2 |(j - s) x|) of its exact value,
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

import numpy as np

from .logspace import NEG_INF
from .norms import DerivativeNormProfile, shift_profile
from .series import Record, _count, _grid, _read_only, _real, _reals, check_size

LN_HALF = math.log(0.5)

#: Relative margin used when rescaling into the normalization M_3 < 1/2.
CLASS_MARGIN = 1e-6

#: Fewest unsaturated grid points a growth-model fit is made from.
MIN_FIT_POINTS = 8

#: Largest |ln(r^3 tau(r)) - ln tau~(r)| at which :func:`build_table` counts
#: the identity as holding for ``r0_estimate``.
R0_TOL = 1e-9

#: Largest rmse of :func:`lemma_check`'s log-linear decay fit that counts as a fit.
RESIDUAL_THRESHOLD = 0.1

#: Last-decade increment of the partial integrals below which :func:`lemma_check` sees convergence.
TAIL_THRESHOLD = 1e-3

#: Saturated grid fraction above which :func:`carleman_diagnostic` abstains.
SATURATION_FRACTION = 0.5

#: Least-squares slope of d_m against ln m above which the witness's fallback rule
#: reads "divergent-trend".
SLOPE_THRESHOLD = 0.05

#: rmse ratio by which one growth model of -ln tau must beat the other to win.
FIT_MARGIN = 0.9

#: Candidate window of the tau kernel, relative to the largest |term| a query
#: can reach.  Rounding moves a float term by at most 2^-52 of that bound, so
#: the window is 2^12 times wider than any rounding it has to absorb.
_SLACK = 2.0**-40

#: Values of x per block of the tau kernel's candidate terms (~0.4 MB of work arrays).
_X_BLOCK = 2**12


class DegenerateProfileError(ValueError):
    """Some ln M_j = -inf: tau vanishes identically and t_m is meaningless."""


def _require_nondegenerate(profile: DerivativeNormProfile) -> None:
    if profile.is_degenerate():
        raise DegenerateProfileError("degenerate profile: some ln M_j = -inf")


def _ln(grid) -> np.ndarray:
    """math.log of each entry: numpy's vector log may differ from it by an ulp, by SIMD level."""
    return np.fromiter(map(math.log, grid), dtype=float, count=len(grid))


def _exp10(e: float) -> float:
    """libm's 10^e, as :func:`_ln` is libm's log, or the largest float where that overflows."""
    try:
        return math.pow(10.0, e)
    except OverflowError:
        return float(np.finfo(float).max)


def _lower_hull(a: list) -> tuple[np.ndarray, np.ndarray]:
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
    return np.asarray(hull, dtype=np.int64), np.asarray(slopes, dtype=float)


def _hull_argmin(a: np.ndarray, hull: np.ndarray, slopes: np.ndarray, x: np.ndarray):
    """First argmin over i of the float term a[i] - i * x, for each x.

    ``a`` is finite, with lower hull ``hull`` and edge slopes ``slopes``
    from :func:`_lower_hull`.  Candidates are the points within ``delta``
    of the hull on the edges whose slope lies within ``delta`` of x (see
    the module docstring); usually that is the one hull vertex of x.  Both
    come from all of ``x``, and the terms from :data:`_X_BLOCK` x at a time.
    """
    if a.size == 1 or x.size == 0:
        return np.zeros(x.shape, dtype=np.int64)
    scale = float(np.max(np.abs(a))) + a.size * float(np.max(np.abs(x))) + 1.0
    delta = _SLACK * scale

    i = np.arange(a.size)
    edge = np.minimum(np.searchsorted(hull, i, side="right") - 1, hull.size - 2)
    p, q = hull[edge], hull[edge + 1]
    height = a - (a[p] + (i - p) / (q - p) * (a[q] - a[p]))
    near = height <= delta
    near[hull] = True
    cand = np.flatnonzero(near)

    out = np.empty(x.size, dtype=np.int64)
    for start in range(0, x.size, _X_BLOCK):
        xb = x[start : start + _X_BLOCK]
        lo = np.searchsorted(slopes, xb - delta, side="left")
        hi = np.searchsorted(slopes, xb + delta, side="right")
        first = np.searchsorted(cand, hull[lo], side="left")
        count = np.searchsorted(cand, hull[hi], side="right") - first
        seg = np.cumsum(count) - count
        flat = cand[np.arange(int(count.sum())) - np.repeat(seg - first, count)]
        terms = a[flat] - flat * np.repeat(xb, count)
        tied = terms == np.repeat(np.minimum.reduceat(terms, seg), count)
        out[start : start + xb.size] = np.minimum.reduceat(np.where(tied, flat, a.size), seg)
    return out


def _legendre(profile: DerivativeNormProfile, ln_r, start: int = 0):
    """(values, argmin) of min_{start<=j<=j_max} (ln M_j - (j - start) ln r).

    One entry per value of ``ln_r``: the argmin is the smallest j among
    equal float terms and the value is the term there, bit for bit what a
    full scan over j gives.  An ln M_j = -inf with j >= start makes every
    term at that j -inf, so its first index is the argmin for every r.  The
    lower hull of the points (j - start, ln M_j) is built at every call: at
    O(J), 0.41 ms for J = 2000, it is not worth state kept on the profile.
    """
    ln_r = np.asarray(ln_r, dtype=float)
    tail = profile.ln_m_array()[start:]
    vanishing = np.flatnonzero(tail == NEG_INF)
    if vanishing.size:
        arg = np.full(ln_r.shape, vanishing[0], dtype=np.int64)
    else:
        arg = _hull_argmin(tail, *_lower_hull(list(profile.ln_m[start:])), ln_r)
    values = tail[arg]
    values -= arg * ln_r
    arg += start
    return values, arg


def log_tau(profile: DerivativeNormProfile, r: float) -> float:
    """ln tau(r) = min_{0<=j<=j_max} (ln M_j - j ln r).

    An upper bound for the true inf over all j >= 0: truncation can only
    miss smaller terms.
    """
    return float(_legendre(profile, [math.log(_real("r", r, 1))])[0][0])


def log_tau_shifted(profile: DerivativeNormProfile, r: float) -> float:
    """ln tau~(r) = min_{0<=s<=j_max-3} (ln M_{s+3} - s ln r)."""
    if profile.j_max < 3:
        raise ValueError("shifted associated function needs j_max >= 3")
    return float(_legendre(profile, [math.log(_real("r", r, 1))], 3)[0][0])


def _fold_weights(profile: DerivativeNormProfile, r_max: int):
    """Shared-term growth weights on the integer grid r = 1..r_max.

    Returns (w_full, w_shifted, sat_full, ln_r) where ln_r is ln r on the grid and

        w_full(r)    = max_{0<=j<=J} ((j-3) ln r - ln M_j) = -ln(r^3 tau(r))
        w_shifted(r) = max_{3<=j<=J} ((j-3) ln r - ln M_j) = -ln(tau~(r))

    each the float term at the first argmax (w_shifted = -inf if J < 3).
    w_shifted is the tau~ kernel's values v as 0 - v, exactly the term
    (j-3) ln r - ln M_j, as (j-3) ln r is never -0 for j >= 3.  w_full is
    the larger of it and the head, the first max of the terms j < 3; on a
    tie it takes the shifted term (they can differ only in the sign of a
    zero at r = 1).  So sat_full, an argmax of w_full at j_max, is a strict
    shifted win with argmax j_max, or, if J < 3, a head argmax at j_max.
    w_full >= w_shifted exactly, which prefix minima keep: ln t_m >= ln theta(m).
    An r_max past the cap is a :class:`GridCapError` before any column is made.
    """
    check_size(r_max, "radii r = 1..r_max")
    j_max = profile.j_max
    ln_m = profile.ln_m_array()
    ln_r = _ln(range(1, r_max + 1))
    w_full = np.full(r_max, -np.inf)
    sat_full = np.empty(r_max, dtype=bool)
    for j in range(min(j_max, 2) + 1):  # no head term is -inf
        term = np.multiply(j - 3, ln_r)
        term -= ln_m[j]
        np.greater(term, w_full, out=sat_full)
        np.copyto(w_full, term, where=sat_full)
    del term
    if j_max < 3:  # theta and witness reject this before getting here
        return w_full, np.full(r_max, -np.inf), sat_full, ln_r
    w_shift, arg = _legendre(profile, ln_r, 3)
    np.subtract(0.0, w_shift, out=w_shift)
    np.greater(w_shift, w_full, out=sat_full)
    sat_full &= arg == j_max
    np.copyto(w_full, w_shift, where=w_shift >= w_full)
    return w_full, w_shift, sat_full, ln_r


def t_m_sequence(profile: DerivativeNormProfile, m_max: int, n: int) -> np.ndarray:
    """ln t_m for m = 1..m_max, from one pass over r = 1..m_max.

    An m_max past the cap is a :class:`GridCapError` (:func:`_fold_weights`).
    """
    m_max, n = _count("m_max", m_max), _count("n", n)
    _require_nondegenerate(profile)
    w_full = _fold_weights(profile, m_max)[0]
    r = np.arange(1, m_max + 1, dtype=float)
    return np.minimum.accumulate(w_full / (n * r))


def t_m(profile: DerivativeNormProfile, m: int, n: int) -> float:
    """ln t_m = min over integer r in [1, m] of -ln(r^3 tau(r)) / (n r)."""
    return float(t_m_sequence(profile, _count("m", m), n)[-1])


def theta(profile: DerivativeNormProfile, m: int, n: int) -> float:
    """ln theta(m) = min over integer r in [1, m] of -ln(tau~(r)) / (n r).

    An m past the cap is a :class:`GridCapError` (:func:`_fold_weights`).
    """
    m, n = _count("m", m), _count("n", n)
    if profile.j_max < 3:
        raise ValueError("theta needs j_max >= 3")
    _require_nondegenerate(profile)
    w_shift = _fold_weights(profile, m)[1]
    r = np.arange(1, m + 1, dtype=float)
    return float(np.min(w_shift / (n * r)))


# ---------------------------------------------------------------------------
# Associated-function table and the threshold where r^3 tau = tau~
# ---------------------------------------------------------------------------

class AssociatedTable(Record):
    """ln tau and ln tau~ tabulated on an increasing grid of r >= 1, as read-only float64 arrays."""

    r_grid: np.ndarray
    ln_tau: np.ndarray
    ln_tau_shifted: np.ndarray
    r0_estimate: float


def build_table(profile: DerivativeNormProfile, r_grid) -> AssociatedTable:
    """Tabulate ln tau(r) and ln tau~(r) and estimate the identity threshold (:func:`_r0`)."""
    grid = _grid("r_grid", r_grid)
    if profile.j_max < 3:
        raise ValueError("shifted associated function needs j_max >= 3")
    ln_r = _ln(grid)
    columns = _read_only(grid, _legendre(profile, ln_r)[0], _legendre(profile, ln_r, 3)[0])
    return AssociatedTable(*columns, r0_estimate=_r0(ln_r, *columns))


def _r0(ln_r, r_grid, ln_tau, ln_tau_shifted) -> float:
    """Smallest grid r from which ln(r^3 tau(r)) = ln tau~(r) holds onward, +inf if none."""
    with np.errstate(invalid="ignore"):  # -inf - -inf is a NaN, which fails
        diff = 3.0 * ln_r + ln_tau - ln_tau_shifted
    fails = np.flatnonzero(~(np.abs(diff) <= R0_TOL))
    start = fails[-1] + 1 if fails.size else 0
    return float(r_grid[start]) if start < len(r_grid) else math.inf


# ---------------------------------------------------------------------------
# Growth-model fitting shared by the witness and integral diagnostics
# ---------------------------------------------------------------------------

class TrendFit(Record):
    slope: float
    intercept: float
    rmse: float


def _fit_line(x: np.ndarray, y: np.ndarray) -> TrendFit:
    """Least-squares line y ~ slope * x + intercept, from centred sums.

    slope = sum((x - mean x)(y - mean y)) / sum((x - mean x)^2), the stable
    two-pass form (Chan, Golub & LeVeque, Amer. Statist. 37, 1983); every
    sum is numpy's pairwise sum, so no BLAS or LAPACK call is made.  x must
    hold at least two distinct values.
    """
    x_bar, y_bar = np.mean(x), np.mean(y)
    dx = np.subtract(x, x_bar)
    dy = np.subtract(y, y_bar)
    sxy = np.sum(np.multiply(dx, dy, out=dy))
    slope = float(sxy / np.sum(np.square(dx, out=dx)))
    intercept = float(y_bar - slope * x_bar)
    resid = np.multiply(x, slope, out=dx)  # then + intercept, y - it and its square, in place
    resid += intercept
    rmse = float(np.sqrt(np.mean(np.square(np.subtract(y, resid, out=resid), out=resid))))
    return TrendFit(slope=slope, intercept=intercept, rmse=rmse)


def _pick_growth_model(r: np.ndarray, w: np.ndarray):
    """Compare w ~ a*r + b against w ~ a*sqrt(r) + b.

    Returns (fit_linear, fit_sqrt, winner) with winner in
    {"linear", "sqrt", None}; None when neither model beats the other by
    :data:`FIT_MARGIN` or a winning slope is not positive.
    """
    fit_lin = _fit_line(r, w)
    fit_sqrt = _fit_line(np.sqrt(r), w)
    winner = None
    if fit_lin.rmse < FIT_MARGIN * fit_sqrt.rmse and fit_lin.slope > 0:
        winner = "linear"
    elif fit_sqrt.rmse < FIT_MARGIN * fit_lin.rmse and fit_sqrt.slope > 0:
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
    The per-m columns are read-only arrays (int64 ``m_grid`` and
    ``argmin_r``, bool flags, float64 values).
    ``normalization_shift`` is the ln-scale applied before computing
    (0.0 when ``normalize=False`` was requested or nothing had to move).
    """

    dim: int
    m_grid: np.ndarray
    ln_t: np.ndarray
    ln_theta: np.ndarray
    witness: np.ndarray
    theta_positive: np.ndarray
    argmin_r: np.ndarray
    argmin_saturated: np.ndarray
    chain_violations: int
    normalization_shift: float
    classification: str
    slope: float
    fit_linear: TrendFit | None
    fit_sqrt: TrendFit | None


def _running_min_with_argmin(values: np.ndarray):
    """Prefix minima of ``values``, computed in place, and the first index realizing each."""
    best = np.minimum.accumulate(values, out=values)
    fresh = np.concatenate(([best[0] < math.inf], best[1:] < best[:-1]))  # ties keep the first
    arg = np.arange(best.size)
    arg[~fresh] = -1
    np.maximum.accumulate(arg, out=arg)
    arg[0] = 0
    return best, arg


def witness(profile: DerivativeNormProfile, n: int, m_grid, normalize: bool = True) -> WitnessSeries:
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
    m_vals = _grid("m_grid", m_grid, integers=True)
    n = _count("n", n)
    if profile.j_max < 3:
        raise ValueError("witness needs j_max >= 3")
    _require_nondegenerate(profile)

    shift = 0.0
    if normalize:
        shift = LN_HALF + math.log1p(-CLASS_MARGIN) - profile.ln_m[3]
    work = shift_profile(profile, shift) if shift != 0.0 else profile

    r_max = int(m_vals[-1])
    w_full, w_shift, sat_full, ln_r = _fold_weights(work, r_max)
    nr = n * np.arange(1, r_max + 1, dtype=float)
    idx = m_vals - 1
    # Each r-length array goes once its m entries or fit points are taken, one by one.
    ln_theta = np.minimum.accumulate(np.divide(w_shift, nr, out=w_shift), out=w_shift)[idx]
    del w_shift
    ln_t, arg = _running_min_with_argmin(np.divide(w_full, nr, out=nr))  # at m = 1..r_max
    del nr
    ln_t = ln_t[idx]
    arg = arg[idx]
    top = slice(m_vals.size // 2, None)  # the trend is read from the upper half of the m grid
    ln_m_top = ln_r[idx[top]]
    del idx
    arg_sat = sat_full[arg]
    argmin_r = np.add(arg, 1, out=arg)
    neg_ln_tau = np.multiply(3.0, ln_r, out=ln_r)[~sat_full]  # at the unsaturated r
    del ln_r
    neg_ln_tau += w_full[~sat_full]
    del w_full
    r_fit = np.flatnonzero(~sat_full) + 1.0
    del sat_full
    trend = _classify_structural(
        m_vals[top], ln_m_top, ln_t[top], argmin_r[top], arg_sat[top], r_fit, neg_ln_tau, n
    )
    d = m_vals.astype(float) ** (1.0 / (n + 1)) * ln_t
    columns = _read_only(m_vals, ln_t, ln_theta, d, ln_theta > 0, argmin_r, arg_sat)
    # The fields in order: trend is (classification, slope, fit_linear, fit_sqrt).
    return WitnessSeries(n, *columns, int(np.count_nonzero(ln_t < ln_theta)), shift, *trend)


def _classify_structural(m_top, ln_m_top, ln_t_top, argmin_top, sat_top, r_fit, neg_ln_tau, n):
    if m_top.size < 3:
        return "inconclusive", math.nan, None, None
    slope_d = _fit_line(ln_m_top, m_top.astype(float) ** (1.0 / (n + 1)) * ln_t_top).slope
    if np.any(sat_top):
        return "inconclusive", slope_d, None, None

    # Primary rule: the growth model of -ln tau(r) over the unsaturated grid.
    # Linear growth keeps w(r)/r bounded away from zero (t_m stays away from
    # 1, the witness grows like m^{1/(n+1)}); sqrt-type growth sends t_m -> 1
    # fast enough to pin the witness.  On this scale the r^3 weight and the
    # normalization shift land in the intercept, so transients cannot flip
    # the fit the way they bend ln t_m itself at desk scale.
    if r_fit.size >= MIN_FIT_POINTS:
        fit_lin, fit_sqrt, best = _pick_growth_model(r_fit, neg_ln_tau)
        if best == "linear":
            return "divergent-trend", slope_d, fit_lin, fit_sqrt
        if best == "sqrt":
            return "bounded-trend", slope_d, fit_lin, fit_sqrt
    else:
        fit_lin = fit_sqrt = None

    # No clear growth model: a min frozen at an interior r with a positive
    # frozen value leaves d_m growing like m^{1/(n+1)} from here on.
    interior = np.all(argmin_top <= m_top // 2)
    if interior and np.all(ln_t_top > 0):
        return "divergent-trend", slope_d, fit_lin, fit_sqrt

    label = "divergent-trend" if slope_d > SLOPE_THRESHOLD else "bounded-trend"
    return label, slope_d, fit_lin, fit_sqrt


# ---------------------------------------------------------------------------
# Integral criterion diagnostic
# ---------------------------------------------------------------------------

class CarlemanReport(Record):
    """Partial integrals of -ln tau(r) / r^2 plus growth-model fits.

    ``verdict`` is one of {"quasianalytic-trend", "non-quasianalytic-trend",
    "inconclusive"}.  Saturated grid points (tau minimizer at j_max) carry a
    truncation artifact -ln tau ~ j_max ln r; they are excluded from the fits
    and a saturated fraction beyond :data:`SATURATION_FRACTION` forces the
    verdict to "inconclusive".  Trend verdicts therefore require j_max comfortably
    above the tau minimizer at r_max.  Fewer than ``MIN_FIT_POINTS``
    unsaturated points leave both fits None.
    """

    r_grid: np.ndarray
    neg_ln_tau: np.ndarray
    saturated: np.ndarray
    partial_integral: np.ndarray
    fit_linear: TrendFit | None
    fit_sqrt: TrendFit | None
    saturated_fraction: float
    last_decade_increment: float
    verdict: str


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    steps = 0.5 * (y[1:] + y[:-1]) * np.diff(x)
    return np.concatenate(([0.0], np.cumsum(steps)))


def carleman_diagnostic(
    profile: DerivativeNormProfile, r_max: float, points_per_decade: int = 64
) -> CarlemanReport:
    """Integrate -ln tau(r) / r^2 on [1, r_max] and classify the trend.

    Quasianalytic-type profiles show -ln tau growing linearly in r (the
    partial integrals grow like ln R); profiles with stretched-exponential
    coefficient decay show sqrt-type growth (the integrals Cauchy-converge).
    A grid of more points than the cap is a :class:`GridCapError`.
    """
    r_max = _real("r_max", r_max, 2)
    points_per_decade = _count("points_per_decade", points_per_decade)
    _require_nondegenerate(profile)
    n_points = max(2, int(math.ceil(points_per_decade * math.log10(r_max))) + 1)
    check_size(n_points, "points of the Carleman grid")
    exponents = np.linspace(0.0, math.log10(r_max), n_points)  # r = 10^e, log-spaced from 1
    grid = np.fromiter(map(_exp10, exponents), dtype=float, count=n_points)
    ln_tau, arg = _legendre(profile, _ln(grid))
    saturated = arg == profile.j_max
    neg = -ln_tau
    with np.errstate(over="ignore"):
        # r^2 past the float range is inf, and neg / inf = 0 is the
        # integrand's limit there.
        integrand = neg / grid**2
    partial = _cumulative_trapezoid(integrand, grid)
    sat_fraction = float(np.mean(saturated))

    cut = np.searchsorted(grid, grid[-1] / 10.0)
    last_decade = float(partial[-1] - partial[cut])  # cut is at most len(grid) - 1

    keep = ~saturated
    fit_lin = fit_sqrt = best = None
    if int(np.sum(keep)) >= MIN_FIT_POINTS:
        fit_lin, fit_sqrt, best = _pick_growth_model(grid[keep], neg[keep])

    if sat_fraction > SATURATION_FRACTION:
        verdict = "inconclusive"
    elif best == "linear":
        verdict = "quasianalytic-trend"
    elif best == "sqrt":
        verdict = "non-quasianalytic-trend"
    else:
        verdict = "inconclusive"

    return CarlemanReport(
        *_read_only(grid, neg, saturated, partial),
        fit_linear=fit_lin,
        fit_sqrt=fit_sqrt,
        saturated_fraction=sat_fraction,
        last_decade_increment=last_decade,
        verdict=verdict,
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
    partial_integrals: np.ndarray
    last_decade_increment: float
    previous_decade_increment: float
    verdict: str
    implication_holds: bool


def lemma_check(t_grid, h_values) -> LemmaReport:
    """Run the decay/integrability check on a tabulated function h(t).

    ``t_grid`` is a grid (``series._grid``); ``h_values`` are real numbers by the
    grids' element-type rule (``series._reals``), finite, with h / t > 0.
    """
    t = _grid("t_grid", t_grid)
    h = _reals(h_values)
    if h is None:
        raise ValueError("h_values must be real numbers")
    h = np.asarray(h, dtype=float)
    if t.shape != h.shape or t.size < 4:
        raise ValueError("need matching 1-d grids with at least 4 points")
    if not np.all(np.isfinite(h)):
        raise ValueError("h_values entries must be finite")
    if np.any(h <= 0):
        raise ValueError("h must be positive on the grid")

    s = _ln(t)
    envelope = h / t                      # h~(s) e^{-s} evaluated on the grid
    h_min = np.minimum.accumulate(envelope)
    if h_min[-1] == 0.0:  # the least of h / t; ln has no value there
        raise ValueError("h / t underflows to 0 on the grid")

    fit = _fit_line(s, _ln(h_min))
    alpha = -fit.slope
    c_fit = math.exp(fit.intercept)
    fit_ok = (fit.rmse < RESIDUAL_THRESHOLD) and (0.0 < alpha < 1.0)

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
    last_inc = float(partial[-1] - partial[last_cut])  # both cuts are at most len(s) - 1
    prev_inc = float(partial[last_cut] - partial[prev_cut])

    if s[-1] - s[0] < 2.0 * ln10:
        verdict = "inconclusive"
    elif last_inc < TAIL_THRESHOLD:
        verdict = "convergent"
    elif prev_inc > 0 and last_inc >= 0.9 * prev_inc:
        verdict = "divergent"
    else:
        verdict = "inconclusive"

    implication = (not fit_ok) or (last_inc < TAIL_THRESHOLD)

    return LemmaReport(
        alpha_fit=float(alpha),
        c_fit=float(c_fit),
        residual=fit.rmse,
        fit_ok=fit_ok,
        hypothesis_ok=hypothesis_ok,
        partial_integrals=_read_only(partial)[0],
        last_decade_increment=last_inc,
        previous_decade_increment=prev_inc,
        verdict=verdict,
        implication_holds=implication,
    )
