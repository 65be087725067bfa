"""L2 norms of partial derivatives and coefficient-decay audits.

For a multi-index alpha the squared L2 norm of the alpha-derivative is
sum_k k^{2 alpha} |c_k|^2, where the sum skips modes with k_p = 0 at a
differentiated position (alpha_p != 0) and uses the convention
k_p^{2 alpha_p} = 1 when k_p = alpha_p = 0.  The order-j constant M_j is the
max of these norms over |alpha| = j: the tightest constant that bounds every
order-j derivative, which makes every downstream inequality as strong as
possible.  Everything is kept as ln M_j; -inf marks a vanishing norm.

The max is always reached at a pure direction alpha = j e_p, so

    M_j = max_p ||d_p^j f||,   ||d_p^j f||^2 = sum_{k_p != 0} |k_p|^{2j} |c_k|^2.

Proof: for j >= 1 and a mode that survives alpha (k_p != 0 wherever
alpha_p > 0), weighted AM-GM with weights alpha_p / j gives

    prod_p |k_p|^{2 alpha_p} <= sum_{p: alpha_p > 0} (alpha_p / j) |k_p|^{2j}

(Hardy, Littlewood and Polya, *Inequalities*, section 2.5).  Multiply by
|c_k|^2 and sum over the surviving modes.  Every p with alpha_p > 0 has
k_p != 0 on those modes, so each inner sum only grows when it runs over all
modes with k_p != 0.  Hence ||d^alpha f||^2 <= sum_p (alpha_p / j)
||d_p^j f||^2 <= max_p ||d_p^j f||^2, since the weights sum to 1.  For
j = 0 the only alpha is 0 and the norm is ||f||.

So one profile costs n log-sum-exps over at most K modes per order, O(n J K)
for j = 0..J, instead of one norm per composition of j into n parts,
O(sum_j C(j+n-1, n-1) K).
"""

from __future__ import annotations

import math

import numpy as np

from .logspace import NEG_INF, _log_sum_exp_in_place
from .series import FourierSeries, Record, _count, _modulus, _real, check_size

#: How far (in ln) a coefficient may pass its bound before :func:`coefficient_bound_audit` flags it.
BOUND_TOL = 1e-9


class DerivativeNormProfile(Record):
    """Cached sequence ln M_j, j = 0..j_max, for one series; j_max is len(ln_m) - 1."""

    dim: int
    ln_m: tuple

    def __post_init__(self):
        object.__setattr__(self, "dim", _count("dim", self.dim))
        vals = tuple(float(v) for v in self.ln_m)
        if not vals:
            raise ValueError("ln_m must hold at least ln M_0, got no entries")
        if any(math.isnan(v) or v == math.inf for v in vals):
            raise ValueError("ln_m entries must be finite or -inf")
        object.__setattr__(self, "ln_m", vals)

    @property
    def j_max(self) -> int:
        return len(self.ln_m) - 1

    def ln_m_array(self) -> np.ndarray:
        return np.asarray(self.ln_m, dtype=float)

    def is_degenerate(self) -> bool:
        """True when some ln M_j = -inf (the inf calculus collapses)."""
        return any(v == NEG_INF for v in self.ln_m)


def _pure_direction_ln_m(series: FourierSeries, orders) -> list[float]:
    """ln M_j for each j in ``orders``, as the max over p of ln||d_p^j f||.

    Keeps 2 ln|c| and, per direction p, ln|k_p| over the modes with
    k_p != 0 (with 2 ln|c| itself, not a masked copy, when no k_p is 0).
    Each order's terms (2j) ln|k_p| + 2 ln|c|, one product and one sum, are
    made in one buffer of K values, reused, and the log-sum-exp reduces
    that buffer in place (for j = 0 a copy of 2 ln|c| in it), so the
    working memory is n + 2 arrays of at most K values, whatever the
    orders.  Every |c| is finite, since a series refuses a coefficient
    whose modulus is past the float range.
    """
    two_ln_c = _modulus(series._values)
    np.log(two_ln_c, out=two_ln_c)
    two_ln_c *= 2.0
    directions = []
    for p in range(series.dim):
        k_p = series._exponents[:, p]
        mask = slice(None) if k_p.all() else k_p != 0
        ln_k = k_p[mask].astype(float)
        ln_k = np.log(np.abs(ln_k, out=ln_k), out=ln_k)
        directions.append((ln_k, two_ln_c[mask]))
    buf = np.empty(series.n_modes)
    out = []
    for j in orders:
        if j == 0:
            buf[:] = two_ln_c
            out.append(0.5 * _log_sum_exp_in_place(buf))
            continue
        best = NEG_INF
        for ln_k, two_ln_c_p in directions:
            terms = np.multiply(ln_k, 2.0 * j, out=buf[: len(ln_k)])
            terms += two_ln_c_p
            best = max(best, 0.5 * _log_sum_exp_in_place(terms))
        out.append(best)
    return out


def m_j(series: FourierSeries, j: int) -> float:
    """ln M_j: max over all alpha with |alpha| = j of the derivative L2 norm."""
    return _pure_direction_ln_m(series, (_count("j", j, least=0),))[0]


def build_profile(series: FourierSeries, j_max: int) -> DerivativeNormProfile:
    """Cache ln M_j for j = 0..j_max; j_max + 1 past the cap is a :class:`GridCapError`."""
    j_max = _count("j_max", j_max, least=0)
    check_size(j_max + 1, "profile orders (j_max + 1)")
    vals = tuple(_pure_direction_ln_m(series, range(j_max + 1)))
    return DerivativeNormProfile(dim=series.dim, ln_m=vals)


def shift_profile(profile: DerivativeNormProfile, delta: float) -> DerivativeNormProfile:
    """The profile of the rescaled function e^delta * f: every ln M_j shifts by delta."""
    delta = _real("delta", delta)
    shifted = tuple(v + delta if v != NEG_INF else NEG_INF for v in profile.ln_m)
    return DerivativeNormProfile(dim=profile.dim, ln_m=shifted)


class BoundViolation(Record):
    index: tuple
    alpha: tuple
    ln_coeff: float
    ln_bound: float

    @property
    def excess(self) -> float:
        return self.ln_coeff - self.ln_bound


class CoefficientBoundReport(Record):
    """Result of checking |c_k| <= M_j / prod |k_p|^{alpha_p} over the support."""

    j: int
    n_checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def _audit_alpha(k: tuple, j: int) -> tuple:
    # Distribute j over the nonzero components as evenly as possible,
    # floor 2 per component (guaranteed by j >= 2n >= 2 * #nonzero).
    nonzero = [p for p, kp in enumerate(k) if kp != 0]
    base, rem = divmod(j, len(nonzero))
    alpha = [0] * len(k)
    for i, p in enumerate(nonzero):
        alpha[p] = base + (1 if i < rem else 0)
    return tuple(alpha)


def coefficient_bound_audit(
    series: FourierSeries, profile: DerivativeNormProfile, j: int
) -> CoefficientBoundReport:
    """Check the decay bound ln|c_k| <= ln M_j - sum_p alpha_p ln|k_p|, up to :data:`BOUND_TOL`.

    Requires j >= 2 * dim so the chosen alpha can put weight >= 2 on every
    nonzero component (alpha_p = 0 exactly where k_p = 0).  The zero mode is
    outside the bound's scope and is skipped.
    """
    n, j = series.dim, _count("j", j, least=0)
    if j < 2 * n:
        raise ValueError(f"j must be >= 2n = {2 * n}")
    if j > profile.j_max:
        raise ValueError("profile too shallow: need j_max >= j")
    ln_mj = profile.ln_m[j]
    violations = []
    checked = 0
    for k, modulus in zip(map(tuple, series._exponents.tolist()), _modulus(series._values).tolist()):
        if all(x == 0 for x in k):
            continue
        checked += 1
        alpha = _audit_alpha(k, j)
        denom = sum(a * math.log(abs(kp)) for a, kp in zip(alpha, k) if a > 0)
        ln_bound = ln_mj - denom
        ln_coeff = math.log(modulus)
        if ln_coeff > ln_bound + BOUND_TOL:
            violations.append(
                BoundViolation(index=k, alpha=alpha, ln_coeff=ln_coeff, ln_bound=ln_bound)
            )
    return CoefficientBoundReport(j=j, n_checked=checked, violations=tuple(violations))

