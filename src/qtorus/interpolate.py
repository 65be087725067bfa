"""Folded interpolation at roots-of-unity grids, with growth-bound audits.

Two folding engines build a polynomial agreeing with a series on the m^n
grid of m-th roots of unity:

* ``diagonal`` collapses the spectrum onto exponent vectors
  (b_1 r, ..., b_n r) with r in 0..m-1 and signs b in {+-1}^n, absorbing
  c_k at the slot whose target index b(r + m l) matches k.  Slots are
  enumerated r ascending, b with +1 before -1, l ascending, and each target
  index is absorbed exactly once (first visit wins), which for n = 1 makes
  the construction classical aliasing.  For n >= 2 only modes whose nonzero
  components share |k_p| mod m (and have no zero component unless r = 0) are
  reachable; ``covered_modes`` records the gap.
* ``alias`` collapses onto residue exponents rho in {0..m-1}^n with
  A_rho = sum_{k = rho mod m} c_k, which interpolates exactly for every n.

The augmented interpolant adds a correction proportional to
(z_1^m + ... + z_n^m - n): zero at every grid node, and scaled so the value
at one extra torus point z0 is matched exactly.  When the denominator
(z0_1^m + ... + z0_n^m - n) vanishes the correction is dropped and the
augmented interpolant equals the plain fold.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .logspace import log_sum_exp
from .norms import DerivativeNormProfile
from .associated import _legendre
from .series import (
    FourierSeries,
    PolyPoint,
    Record,
    _summed,
    eval_batch,
    eval_grid,
    eval_laurent,
    grid_array,
)

#: Scale-aware near-zero threshold for the correction denominator.
DEGENERATE_Z0_TOL = 1e-12


class FoldResult(Record):
    """Per-slot coefficients of the diagonal fold.

    ``terms`` maps (r, beta) to the absorbed coefficient sum; every slot is
    present, zero-initialized.  ``covered_modes`` lists the input indices
    that were absorbed somewhere; ``skipped_collisions`` records (r, beta, l)
    triples whose target index had already been absorbed by an earlier slot.
    """

    m: int
    dim: int
    terms: dict
    covered_modes: frozenset
    skipped_collisions: tuple

    def series(self) -> FourierSeries:
        """The fold as a Laurent series, one monomial per distinct exponent.

        Slots sharing an exponent b r (r = 0, say) add in slot order.
        """
        r = np.array([r for r, _ in self.terms])
        beta = np.array([beta for _, beta in self.terms]).reshape(-1, self.dim)
        values = np.fromiter(self.terms.values(), dtype=complex, count=len(self.terms))
        return _summed(self.dim, beta * r[:, None], values)


def _sign_vectors(n: int):
    # +1 enumerated before -1 so the slot absorbing a sign-ambiguous target
    # (some k_p = 0, forcing r = 0) is the all-plus one.
    return list(itertools.product((1, -1), repeat=n))


def diagonal_fold(series: FourierSeries, m: int) -> FoldResult:
    """Fold a series onto the (r, beta) slots with global deduplication.

    Each slot (r, beta) sums c over target indices (b_p (r + m l_p))_p for
    l >= 0 componentwise; a target produced by several (r, beta, l) is
    counted once, at its first visit in (r, beta, l) order.

    Each mode k is assigned directly, in O(K log K): it is reachable only
    from r = |k_p| mod m (which must agree across p, so a zero component
    forces r = 0), l_p = |k_p| // m and beta_p = sign(k_p).  A zero component
    admits either sign; the first visit takes +1, and the 2^z - 1 other sign
    choices on its z zero components are the skipped collisions.  Slot sums
    and collisions follow the visit order: r, then beta in enumeration
    order, then l lexicographic.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = series.dim
    betas = _sign_vectors(n)
    rank = {beta: i for i, beta in enumerate(betas)}
    covered = _diagonal_reach(series._exponents, m)
    k = series._exponents[covered]
    mag = np.abs(k)
    r, l = mag[:, 0] % m, mag // m
    # Index of beta = sign(k) (+1 on zeros) in _sign_vectors order.
    slot_beta = (k < 0) @ (1 << np.arange(n - 1, -1, -1))
    order = np.lexsort((*l.T[::-1], slot_beta, r))
    sums = np.zeros(m * len(betas), dtype=complex)
    np.add.at(sums, (r * len(betas) + slot_beta)[order], series._values[covered][order])
    slots = [(rr, beta) for rr in range(m) for beta in betas]
    collisions = []
    with_zero = np.any(k == 0, axis=1)
    for kk, ll in zip(k[with_zero].tolist(), l[with_zero].tolist()):
        zeros = [p for p, x in enumerate(kk) if x == 0]
        beta = [-1 if x < 0 else 1 for x in kk]
        for signs in itertools.islice(itertools.product((1, -1), repeat=len(zeros)), 1, None):
            for p, b in zip(zeros, signs):
                beta[p] = b
            collisions.append((0, tuple(beta), tuple(ll)))
    collisions.sort(key=lambda c: (rank[c[1]], c[2]))
    return FoldResult(
        m=m,
        dim=n,
        terms=dict(zip(slots, sums.tolist())),
        covered_modes=frozenset(map(tuple, k.tolist())),
        skipped_collisions=tuple(collisions),
    )


def _diagonal_reach(k: np.ndarray, m: int) -> np.ndarray:
    """Which index rows the diagonal fold reaches: |k_p| mod m equal for all p."""
    mag = np.abs(k)
    return np.all(mag % m == mag[:, :1] % m, axis=1)


def alias_fold(series: FourierSeries, m: int) -> FourierSeries:
    """Residue fold: exponents rho in {0..m-1}^n, A_rho = sum_{k=rho mod m} c_k.

    The result agrees with the input series at every m-th roots-of-unity grid
    point, for every dimension.  Each residue sum adds its modes in index
    order.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _summed(series.dim, series._exponents % m, series._values)


class InterpolantPoly(Record):
    """A fold engine's output polynomial, tagged with its grid order m."""

    base: FourierSeries
    m: int
    engine: str

    def eval(self, p: PolyPoint) -> complex:
        return eval_laurent(self.base, p)

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        return eval_batch(self.base, points)


class AugmentedInterpolant(Record):
    """Fold polynomial plus the grid-vanishing correction pinned at z0.

    Evaluates as base(z) + (z_1^m + ... + z_n^m - n) * correction.  When
    ``degenerate_z0`` is set the correction is zero and the object equals the
    plain fold.
    """

    base: InterpolantPoly
    z0: PolyPoint
    correction: complex
    degenerate_z0: bool

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def dim(self) -> int:
        return self.z0.dim

    def eval(self, p: PolyPoint) -> complex:
        return complex(self.eval_batch(np.array([p.z], dtype=complex))[0])

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        base_vals, corr_vals = self._parts(points)
        return base_vals + corr_vals

    def _parts(self, points: np.ndarray):
        """(fold values, correction values) at each point."""
        z = np.asarray(points, dtype=complex)
        return self.base.eval_batch(z), _grid_factor(z, self.m) * self.correction


def _grid_factor(z: np.ndarray, m: int) -> np.ndarray:
    """z_1^m + ... + z_n^m - n per row of an (N, n) array: zero on the m-grid."""
    return (z**m).sum(axis=1) - z.shape[1]


def _build_base(series: FourierSeries, m: int, engine: str):
    if engine == "diagonal":
        fold = diagonal_fold(series, m)
        missed = series._exponents[~_diagonal_reach(series._exponents, m)]
        uncovered = tuple(map(tuple, missed.tolist()))
        return InterpolantPoly(base=fold.series(), m=m, engine=engine), uncovered
    if engine == "alias":
        return InterpolantPoly(base=alias_fold(series, m), m=m, engine=engine), ()
    raise ValueError(f"unknown engine {engine!r} (expected 'diagonal' or 'alias')")


def _augment(series: FourierSeries, base: InterpolantPoly, z0: PolyPoint):
    """(``base`` plus the grid-vanishing correction matching series(z0), its error at z0).

    series(z0) and base(z0) are evaluated once each.  The error
    |aug(z0) - series(z0)| adds the correction to base(z0) on the same
    one-row arrays as ``AugmentedInterpolant.eval``, so its bits are those
    of evaluating the interpolant again.
    """
    if z0.dim != series.dim:
        raise ValueError("z0 dimension mismatch")
    if not z0.on_torus():
        raise ValueError("z0 must lie on the torus (|z0_p| = 1)")
    z = np.array([z0.z], dtype=complex)
    factor = _grid_factor(z, base.m)
    denom = complex(factor[0])
    f_z0 = eval_laurent(series, z0)
    base_z0 = base.eval_batch(z)
    degenerate = abs(denom) < DEGENERATE_Z0_TOL * series.dim
    correction = 0j if degenerate else (f_z0 - complex(base_z0[0])) / denom
    aug = AugmentedInterpolant(base=base, z0=z0, correction=correction, degenerate_z0=degenerate)
    return aug, abs(complex((base_z0 + factor * correction)[0]) - f_z0)


def augmented_interpolant(
    series: FourierSeries,
    m: int,
    z0: PolyPoint,
    engine: str = "alias",
) -> AugmentedInterpolant:
    """Build the augmented interpolant pinned at the torus point z0.

    At every grid node the added term vanishes since z_p^m = 1 there; at z0
    the value equals series(z0) exactly unless z0 is degenerate (denominator
    below ``DEGENERATE_Z0_TOL * n``), in which case the plain fold is kept.
    """
    base, _ = _build_base(series, m, engine)
    return _augment(series, base, z0)[0]


class InterpolationAudit(Record):
    """Max deviation of the augmented interpolant from the series.

    ``interpolant`` is the augmented interpolant that was audited (its
    ``m``, ``base.engine`` and ``degenerate_z0`` describe it), ready for
    :func:`bound_audit`.  ``tolerance`` is the alias-engine acceptance level
    1e-9 * (1 + sum|c_k|); ``grid_ok`` reports both errors against it.
    ``uncovered_modes`` lists the diagonal engine's unreachable indices
    (empty for alias).
    """

    interpolant: AugmentedInterpolant
    max_grid_error: float
    z0_error: float
    tolerance: float
    uncovered_modes: tuple

    @property
    def grid_ok(self) -> bool:
        return self.max_grid_error <= self.tolerance and self.z0_error <= self.tolerance


def interpolation_audit(
    series: FourierSeries,
    m: int,
    z0: PolyPoint,
    engine: str = "alias",
) -> InterpolationAudit:
    """Compare the augmented interpolant against the series on the full grid.

    Series and fold are evaluated on the grid by :func:`eval_grid`; the
    correction's factor z_1^m + ... + z_n^m - n is taken at the
    :func:`grid_array` nodes, so its rounding there is part of the error.
    """
    base, uncovered = _build_base(series, m, engine)
    aug, z0_err = _augment(series, base, z0)
    nodes = grid_array(series.dim, m)
    f_vals = eval_grid(series, m)
    l_vals = eval_grid(base.base, m) + _grid_factor(nodes, m) * aug.correction
    return InterpolationAudit(
        interpolant=aug,
        max_grid_error=float(np.max(np.abs(l_vals - f_vals))),
        z0_error=float(z0_err),
        tolerance=1e-9 * (1.0 + series.abs_sum()),
        uncovered_modes=uncovered,
    )


class BoundAuditReport(Record):
    """Sampled sup of the interpolant against the tau-driven growth envelopes.

    ``ln_rhs_growth`` is ln(1 + sum_{r=1}^m r tau(r) t^{nr}) (full bound),
    ``ln_rhs_base`` is ln(1 + sum_{r=1}^{m-1} tau(r) t^{nr}) (fold bound) and
    ``ln_rhs_correction`` is ln(1 + m tau(m) t^m) (correction bound); the
    empirical constants are the sampled sups divided by those envelopes.
    """

    m: int
    dim: int
    t: float
    engine: str
    seed: int
    n_samples: int
    lhs_max: float
    base_max: float
    correction_max: float
    ln_rhs_growth: float
    ln_rhs_base: float
    ln_rhs_correction: float
    empirical_cf: float
    empirical_c1: float
    empirical_c2: float
    degenerate_z0: bool


def bound_audit(
    interpolant: AugmentedInterpolant,
    profile: DerivativeNormProfile,
    t: float,
    n_samples: int = 256,
    seed: int = 7,
) -> BoundAuditReport:
    """Sample the polyannulus 1/t <= |z_p| <= t and audit the growth bounds.

    ``interpolant`` is an augmented interpolant of the series whose profile
    is given, from :func:`augmented_interpolant` or an
    :class:`InterpolationAudit`.  The right-hand sides are evaluated by
    log-domain summation so large t^{nr} factors cannot overflow; the
    sampling generator is seeded for byte-reproducible reports.
    """
    if not t > 1.0:
        raise ValueError("t must be > 1")
    n, m = interpolant.dim, interpolant.m
    # Moduli in [1/t, t], then phases: the seeded reports depend on this draw order.
    rng = np.random.default_rng(seed)
    moduli = rng.uniform(1.0 / t, t, size=(n_samples, n))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(n_samples, n))
    points = moduli * np.exp(1j * phases)

    base_vals, corr_vals = interpolant._parts(points)
    lhs = base_vals + corr_vals

    lhs_max = float(np.max(np.abs(lhs)))
    base_max = float(np.max(np.abs(base_vals)))
    corr_max = float(np.max(np.abs(corr_vals)))

    ln_t = math.log(t)
    ln_tau_r = _legendre(profile, [math.log(r) for r in range(1, m + 1)])[0].tolist()
    ln_rhs_growth = log_sum_exp(
        [0.0]
        + [math.log(r) + ln_tau_r[r - 1] + n * r * ln_t for r in range(1, m + 1)]
    )
    ln_rhs_base = log_sum_exp(
        [0.0] + [ln_tau_r[r - 1] + n * r * ln_t for r in range(1, m)]
    )
    ln_rhs_correction = log_sum_exp([0.0, math.log(m) + ln_tau_r[m - 1] + m * ln_t])

    def ratio(sup: float, ln_rhs: float) -> float:
        if sup <= 0.0:
            return 0.0
        return math.exp(math.log(sup) - ln_rhs)

    return BoundAuditReport(
        m=m,
        dim=n,
        t=float(t),
        engine=interpolant.base.engine,
        seed=seed,
        n_samples=n_samples,
        lhs_max=lhs_max,
        base_max=base_max,
        correction_max=corr_max,
        ln_rhs_growth=float(ln_rhs_growth),
        ln_rhs_base=float(ln_rhs_base),
        ln_rhs_correction=float(ln_rhs_correction),
        empirical_cf=ratio(lhs_max, ln_rhs_growth),
        empirical_c1=ratio(base_max, ln_rhs_base),
        empirical_c2=ratio(corr_max, ln_rhs_correction),
        degenerate_z0=interpolant.degenerate_z0,
    )
