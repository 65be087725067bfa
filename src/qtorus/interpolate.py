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
  reachable; :func:`interpolation_audit` reports the others as
  ``uncovered_modes``.
* ``alias`` collapses onto residue exponents rho in {0..m-1}^n with
  A_rho = sum_{k = rho mod m} c_k, which interpolates exactly for every n.

Both engines return the fold as a :class:`FourierSeries`.  The augmented
interpolant adds a correction proportional to (z_1^m + ... + z_n^m - n):
zero at every grid node, and scaled so the value at one extra torus point z0
is matched exactly.  When the denominator (z0_1^m + ... + z0_n^m - n)
vanishes the correction is dropped and the augmented interpolant equals the
plain fold.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .logspace import log_sum_exp
from .norms import DerivativeNormProfile
from .associated import _legendre, _ln
from .series import (
    FourierSeries,
    PolyPoint,
    Record,
    _count,
    _grid_indices,
    _modulus,
    _product,
    _read_only,
    _real,
    _roots,
    _summed,
    _terms,
    check_size,
    eval_batch,
    eval_grid,
)

#: Scale-aware near-zero threshold for the correction denominator.
DEGENERATE_Z0_TOL = 1e-12


def _unit_draws(seed: int, count: int) -> np.ndarray:
    """The first ``count`` values of ``random.Random(seed).random()``.

    CPython keeps this stream the same across versions for an integer seed.
    """
    return np.fromiter(iter(random.Random(seed).random, None), dtype=float, count=count)


def _annulus_points(seed: int, n_samples: int, n: int, t: float) -> np.ndarray:
    """The (n_samples, n) sample points of :func:`bound_audit` on 1/t <= |z_p| <= t.

    Moduli in [1/t, t], then phases, each as random.Random.uniform forms
    it, low + (high - low) * u: the seeded reports depend on this draw
    order.
    """
    u = _unit_draws(seed, 2 * n_samples * n).reshape(2, n_samples, n)
    moduli = 1.0 / t + (t - 1.0 / t) * u[0]
    phases = 2.0 * math.pi * u[1]
    return moduli * np.exp(1j * phases)


def _targets(exponents: np.ndarray, m: int, engine: str):
    """(each index row's exponent in the fold by ``engine``, the rows it reaches).

    ``alias`` sends k to k mod m and reaches every row.  ``diagonal`` sends
    k to b (|k| mod m), with b_p = sign(k_p) (+1 at a zero component), and
    reaches the rows whose |k_p| mod m agree for all p; the exponents it
    gives the other rows are not used.
    """
    if engine == "alias":
        return exponents % m, np.ones(len(exponents), dtype=bool)
    r = np.abs(exponents) % m
    return np.where(exponents < 0, -r, r), np.all(r == r[:, :1], axis=1)


def diagonal_fold(series: FourierSeries, m: int) -> FourierSeries:
    """Fold a series onto the (r, beta) slots with global deduplication.

    Each slot (r, beta) sums c over target indices (b_p (r + m l_p))_p for
    l >= 0 componentwise; a target produced by several (r, beta, l) is
    counted once, at its first visit in (r, beta, l) order.  The result has
    the monomial z^(beta r) with the slot's sum; the 2^n slots of r = 0
    share the constant monomial and add in slot order (beta in
    ``itertools.product((1, -1), repeat=n)`` order).

    Each mode k is assigned directly, in O(K log K): it is reachable only
    from r = |k_p| mod m (which must agree across p, so a zero component
    forces r = 0), l_p = |k_p| // m and beta_p = sign(k_p).  A zero
    component admits either sign; the first visit takes +1.  Slot sums
    follow the visit order: r, then beta, then l lexicographic.
    """
    m, n = _count("m", m), series.dim
    target, covered = _targets(series._exponents, m, "diagonal")
    k, target = series._exponents[covered], target[covered]
    r, l = np.abs(target[:, 0]), np.abs(k) // m
    # Slot number r 2^n + (rank of beta = sign(k) in the +1 before -1 order).
    slot = r * 2**n + (k < 0) @ (1 << np.arange(n - 1, -1, -1))
    order = np.lexsort((*l.T[::-1], slot))
    _, first, at = np.unique(slot, return_index=True, return_inverse=True)
    sums = np.zeros(len(first), dtype=complex)
    np.add.at(sums, at[order], series._values[covered][order])
    return _summed(n, target[first], sums)


def alias_fold(series: FourierSeries, m: int) -> FourierSeries:
    """Residue fold: exponents rho in {0..m-1}^n, A_rho = sum_{k=rho mod m} c_k.

    The result agrees with the input series at every m-th roots-of-unity grid
    point, for every dimension.  Each residue sum adds its modes in index
    order.
    """
    m = _count("m", m)
    return _summed(series.dim, _targets(series._exponents, m, "alias")[0], series._values)


class AugmentedInterpolant(Record):
    """Fold polynomial plus the grid-vanishing correction pinned at z0.

    ``base`` is the fold of the series at grid order ``m`` by ``engine``.
    Evaluates as base(z) + (z_1^m + ... + z_n^m - n) * correction.  When
    ``degenerate_z0`` is set the correction is zero and the object equals the
    plain fold.
    """

    base: FourierSeries
    m: int
    engine: str
    z0: PolyPoint
    correction: complex
    degenerate_z0: bool

    def eval(self, p: PolyPoint) -> complex:
        return complex(self.eval_batch(np.array([p.z], dtype=complex))[0])

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        base_vals, corr_vals = self._parts(points)
        return base_vals + corr_vals

    def _parts(self, points: np.ndarray):
        """(fold values, correction values) at each point."""
        z = np.asarray(points, dtype=complex)
        return eval_batch(self.base, z), _product(_grid_factor(z, self.m), self.correction)


def _grid_factor(z: np.ndarray, m: int) -> np.ndarray:
    """z_1^m + ... + z_n^m - n per row of an (N, n) array: zero on the m-grid."""
    return (z**m).sum(axis=1) - z.shape[1]


def _node_factor(n: int, m: int) -> np.ndarray:
    """:func:`_grid_factor` at the ``grid_array(n, m)`` nodes, one complex power per root.

    Every node component is a root ``_roots(m)[l]``, 1 <= l <= m, so its
    m-th power is gathered from the table of the m roots' m-th powers.  A
    power is elementwise, so each gathered power, and so each row sum, has
    the bits of the power taken at the node.
    """
    nodes = _grid_indices(n, m)
    return (_roots(m)[1:] ** m)[nodes].sum(axis=1) - n


def _augment(series: FourierSeries, m: int, z0: PolyPoint, engine: str):
    """(augmented interpolant pinned at z0, its error at z0, the rows the fold reaches).

    The residual f(z0) - fold(z0) is summed mode by mode:
    sum_covered c_k (z0^k - z0^target) + sum_uncovered c_k z0^k, with
    target the mode's exponent in the fold.
    The terms c_k z0^k are computed once per series and z0 (they are kept
    on the series); the terms c_k z0^target gather their factors from a
    table of z0_p raised to the fold's distinct exponents, in the same way.
    Each power is elementwise, so its bits do not depend on the table it is
    in, and a mode the fold leaves in place (target = k) adds exactly 0.
    The residual therefore carries no rounding from the modes the fold does
    not move, which are most of the sum when the fold nearly interpolates
    at z0.  The correction is the residual over the denominator, and the
    error at z0 is |denominator * correction - residual|.
    """
    if engine not in ("diagonal", "alias"):
        raise ValueError(f"unknown engine {engine!r} (expected 'diagonal' or 'alias')")
    base = (diagonal_fold if engine == "diagonal" else alias_fold)(series, m)
    if z0.dim != series.dim:
        raise ValueError("z0 dimension mismatch")
    if not z0.on_torus():
        raise ValueError("z0 must lie on the torus (|z0_p| = 1)")
    target, covered = _targets(series._exponents, m, engine)
    z = np.array(z0.z)
    tables = [np.unique(target[:, p], return_inverse=True) for p in range(series.dim)]
    terms = series._terms_at(z0)
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf or nan
        moved = np.where(covered, terms - _terms(z, tables, series._values), terms)
        residual = complex(moved.sum())
    denom = complex(_grid_factor(z[None, :], m)[0])
    degenerate = bool(_modulus(np.array(denom)) < DEGENERATE_Z0_TOL * series.dim)
    correction = 0j if degenerate else residual / denom
    aug = AugmentedInterpolant(base, m, engine, z0, correction, degenerate)
    return aug, float(_modulus(np.array(denom * correction - residual))), covered


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
    return _augment(series, m, z0, engine)[0]


class InterpolationAudit(Record):
    """Max deviation of the augmented interpolant from the series.

    ``interpolant`` is the augmented interpolant that was audited (its
    ``m``, ``engine`` and ``degenerate_z0`` describe it), ready for
    :func:`bound_audit`.  ``tolerance`` is the alias-engine acceptance level
    1e-9 * (1 + sum|c_k|), finite as every series' sum is; ``grid_ok``
    reports both errors against it, so a NaN or inf error is not ok.
    ``uncovered_modes`` is the read-only (U, n) int64 array of the diagonal
    engine's unreachable indices, in index order (no rows for alias).
    """

    interpolant: AugmentedInterpolant
    max_grid_error: float
    z0_error: float
    tolerance: float
    uncovered_modes: np.ndarray

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

    At a node z of the m-grid, z_p^m = 1, so z^k = z^(k mod m) for every
    mode, and a mode's fold exponent (k mod m for alias, b (|k| mod m) for
    a mode the diagonal engine reaches) has the residues of k.  So the
    series minus its fold is, at every node, the series of the modes the
    fold does not reach (none for alias), uncovered(z), and

        aug(z) - series(z) = factor(z) * correction - uncovered(z),

    with factor(z) = z_1^m + ... + z_n^m - n.  :func:`eval_grid` reads
    exponents mod m in integer arithmetic, so the identity holds for its
    values too.  The grid error is computed from it: the factor is taken
    at the ``grid_array`` nodes (its rounding there is part of the
    error; :func:`_node_factor`), and :func:`eval_grid` runs on the
    uncovered modes only.
    """
    aug, z0_err, covered = _augment(series, m, z0, engine)
    missed = series._exponents[~covered]
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf or nan, not grid_ok
        error = _product(_node_factor(series.dim, m), aug.correction)
        if len(missed):
            uncovered = FourierSeries.from_arrays(series.dim, missed, series._values[~covered])
            error -= eval_grid(uncovered, m)
    return InterpolationAudit(
        interpolant=aug,
        max_grid_error=float(np.max(_modulus(error))),
        z0_error=z0_err,
        tolerance=1e-9 * (1.0 + series.abs_sum()),
        uncovered_modes=_read_only(missed)[0],
    )


class BoundAuditReport(Record):
    """Sampled sup of the interpolant against the tau-driven growth envelopes.

    ``ln_rhs_growth`` is ln(1 + sum_{r=1}^m r tau(r) t^{nr}) (full bound),
    ``ln_rhs_base`` is ln(1 + sum_{r=1}^{m-1} tau(r) t^{nr}) (fold bound) and
    ``ln_rhs_correction`` is ln(1 + m tau(m) t^m) (correction bound); the
    empirical constants are the sampled sups divided by those envelopes.
    """

    t: float
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
    log-domain summation so large t^{nr} factors cannot overflow.

    The samples are the first 2 * n_samples * n values of
    ``random.Random(seed).random()``, moduli then phases, mapped as
    ``random.Random.uniform`` maps them (:func:`_annulus_points`), so
    reports are byte-reproducible: CPython keeps this stream the same
    across versions.  An m, or n_samples x n sample components, past the
    cap is a :class:`GridCapError` before anything is drawn.
    """
    t = _real("t", t, 1, strict=True)
    n_samples, seed = _count("n_samples", n_samples), _count("seed", seed, least=0)
    n, m = interpolant.base.dim, check_size(interpolant.m, "radii r = 1..m")
    check_size(n_samples * n, "sample components (n_samples x n)")
    points = _annulus_points(seed, n_samples, n, t)

    # For large t^m a sampled value leaves the float range.  It is kept as
    # inf or nan, without a warning, and the sup reads null in JSON.
    with np.errstate(over="ignore", invalid="ignore"):
        base_vals, corr_vals = interpolant._parts(points)
        lhs = base_vals + corr_vals

    lhs_max, base_max, corr_max = (float(np.max(_modulus(v))) for v in (lhs, base_vals, corr_vals))

    ln_t = math.log(t)
    r = np.arange(1, m + 1)
    ln_r = _ln(r)
    ln_tau = _legendre(profile, ln_r)[0]
    growth = (n * r) * ln_t
    ln_rhs_growth = log_sum_exp(np.concatenate(([0.0], ln_r + ln_tau + growth)))
    ln_rhs_base = log_sum_exp(np.concatenate(([0.0], ln_tau[:-1] + growth[:-1])))
    ln_rhs_correction = log_sum_exp([0.0, ln_r[-1] + ln_tau[-1] + m * ln_t])

    def ratio(sup: float, ln_rhs: float) -> float:
        if sup <= 0.0:
            return 0.0
        return math.exp(math.log(sup) - ln_rhs)

    return BoundAuditReport(
        t=t,
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
    )
