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
from dataclasses import dataclass

import numpy as np

from .logspace import log_sum_exp
from .norms import DerivativeNormProfile
from .associated import _legendre
from .series import (
    FourierSeries,
    PolyPoint,
    SamplingAnnulus,
    eval_batch,
    eval_laurent,
    grid_array,
)

#: Scale-aware near-zero threshold for the correction denominator.
DEGENERATE_Z0_TOL = 1e-12


@dataclass(frozen=True)
class FoldResult:
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
        """The fold as a Laurent series, one monomial per distinct exponent."""
        grouped: dict = {}
        for (r, beta), a in self.terms.items():
            expo = tuple(b * r for b in beta)
            grouped[expo] = grouped.get(expo, 0j) + a
        return FourierSeries(self.dim, grouped)


def _sign_vectors(n: int):
    # +1 enumerated before -1 so the slot absorbing a sign-ambiguous target
    # (some k_p = 0, forcing r = 0) is the all-plus one.
    return list(itertools.product((1, -1), repeat=n))


def diagonal_fold(series: FourierSeries, m: int) -> FoldResult:
    """Fold a series onto the (r, beta) slots with global deduplication.

    Each slot (r, beta) sums c over target indices (b_p (r + m l_p))_p for
    l >= 0 componentwise; a target produced by several (r, beta, l) is
    counted once, at its first visit in (r, beta, l) order.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = series.dim
    radius = series.support_radius()
    betas = _sign_vectors(n)
    terms = {(r, beta): 0j for r in range(m) for beta in betas}
    seen: set = set()
    covered: set = set()
    collisions = []
    for r in range(m):
        max_l = (radius - r) // m if radius >= r else -1
        if max_l < 0:
            continue
        for beta in betas:
            for l in itertools.product(range(max_l + 1), repeat=n):
                target = tuple(b * (r + m * lp) for b, lp in zip(beta, l))
                c = series.coeffs.get(target)
                if c is None:
                    continue
                if target in seen:
                    collisions.append((r, beta, l))
                    continue
                seen.add(target)
                covered.add(target)
                terms[(r, beta)] += c
    return FoldResult(
        m=m,
        dim=n,
        terms=terms,
        covered_modes=frozenset(covered),
        skipped_collisions=tuple(collisions),
    )


def alias_fold(series: FourierSeries, m: int) -> FourierSeries:
    """Residue fold: exponents rho in {0..m-1}^n, A_rho = sum_{k=rho mod m} c_k.

    The result agrees with the input series at every m-th roots-of-unity grid
    point, for every dimension.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    folded: dict = {}
    for k, c in series.coeffs.items():
        rho = tuple(kp % m for kp in k)
        folded[rho] = folded.get(rho, 0j) + c
    return FourierSeries(series.dim, folded)


@dataclass(frozen=True)
class InterpolantPoly:
    """A fold engine's output polynomial, tagged with its grid order m."""

    base: FourierSeries
    m: int
    engine: str

    def eval(self, p: PolyPoint) -> complex:
        return eval_laurent(self.base, p)

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        return eval_batch(self.base, points)


@dataclass(frozen=True)
class AugmentedInterpolant:
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
        uncovered = tuple(sorted(set(series.coeffs) - set(fold.covered_modes)))
        return InterpolantPoly(base=fold.series(), m=m, engine=engine), uncovered
    if engine == "alias":
        return InterpolantPoly(base=alias_fold(series, m), m=m, engine=engine), ()
    raise ValueError(f"unknown engine {engine!r} (expected 'diagonal' or 'alias')")


def _augment(
    series: FourierSeries, base: InterpolantPoly, z0: PolyPoint
) -> AugmentedInterpolant:
    """Add the grid-vanishing correction to ``base`` so it matches series(z0)."""
    if z0.dim != series.dim:
        raise ValueError("z0 dimension mismatch")
    if not z0.on_torus():
        raise ValueError("z0 must lie on the torus (|z0_p| = 1)")
    denom = complex(_grid_factor(np.array([z0.z], dtype=complex), base.m)[0])
    if abs(denom) < DEGENERATE_Z0_TOL * series.dim:
        return AugmentedInterpolant(
            base=base, z0=z0, correction=0j, degenerate_z0=True
        )
    residual = eval_laurent(series, z0) - base.eval(z0)
    return AugmentedInterpolant(
        base=base, z0=z0, correction=residual / denom, degenerate_z0=False
    )


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
    return _augment(series, base, z0)


@dataclass(frozen=True)
class InterpolationAudit:
    """Max deviation of the augmented interpolant from the series.

    ``tolerance`` is the alias-engine acceptance level 1e-9 * (1 + sum|c_k|);
    ``grid_ok`` reports both errors against it.  ``uncovered_modes`` lists
    the diagonal engine's unreachable indices (empty for alias).
    """

    m: int
    engine: str
    max_grid_error: float
    z0_error: float
    tolerance: float
    degenerate_z0: bool
    uncovered_modes: tuple

    @property
    def grid_ok(self) -> bool:
        return self.max_grid_error <= self.tolerance and self.z0_error <= self.tolerance


def interpolation_audit(
    series: FourierSeries,
    m: int,
    z0: PolyPoint,
    engine: str = "alias",
    cap: int | None = None,
) -> InterpolationAudit:
    """Compare the augmented interpolant against the series on the full grid."""
    base, uncovered = _build_base(series, m, engine)
    aug = _augment(series, base, z0)
    nodes = grid_array(series.dim, m, cap=cap)
    f_vals = eval_batch(series, nodes)
    l_vals = aug.eval_batch(nodes)
    max_grid = float(np.max(np.abs(l_vals - f_vals))) if len(nodes) else 0.0
    z0_err = abs(aug.eval(z0) - eval_laurent(series, z0))
    tol = 1e-9 * (1.0 + series.abs_sum())
    return InterpolationAudit(
        m=m,
        engine=engine,
        max_grid_error=max_grid,
        z0_error=float(z0_err),
        tolerance=tol,
        degenerate_z0=aug.degenerate_z0,
        uncovered_modes=uncovered,
    )


def sample_annulus(
    annulus: SamplingAnnulus, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw points with moduli uniform in [1/t, t] and uniform phases."""
    moduli = rng.uniform(1.0 / annulus.t, annulus.t, size=(n_samples, annulus.dim))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(n_samples, annulus.dim))
    return moduli * np.exp(1j * phases)


@dataclass(frozen=True)
class BoundAuditReport:
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
    series: FourierSeries,
    profile: DerivativeNormProfile,
    m: int,
    t: float,
    z0: PolyPoint,
    n_samples: int = 256,
    seed: int = 7,
    engine: str = "alias",
) -> BoundAuditReport:
    """Sample the polyannulus 1/t <= |z_p| <= t and audit the growth bounds.

    The right-hand sides are evaluated by log-domain summation so large
    t^{nr} factors cannot overflow; the sampling generator is seeded for
    byte-reproducible reports.
    """
    if not t > 1.0:
        raise ValueError("t must be > 1")
    n = series.dim
    aug = augmented_interpolant(series, m, z0, engine=engine)
    rng = np.random.default_rng(seed)
    points = sample_annulus(SamplingAnnulus(dim=n, t=t), n_samples, rng)

    base_vals, corr_vals = aug._parts(points)
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
        engine=engine,
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
        degenerate_z0=aug.degenerate_z0,
    )
