import functools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qtorus import (
    DegenerateProfileError,
    DerivativeNormProfile,
    FamilySpec,
    FourierSeries,
    build_profile,
    build_table,
    carleman_diagnostic,
    gen_profile,
    gen_series,
    lemma_check,
    log_tau,
    log_tau_shifted,
    parse_family_spec,
    shift_profile,
    t_m,
    t_m_sequence,
    theta,
    witness,
)
import qtorus.associated as associated_module
from qtorus.associated import (
    _fit_line,
    _fold_weights,
    _legendre,
    _ln,
    _r0,
    _running_min_with_argmin,
)
from qtorus.logspace import NEG_INF
from helpers import (
    NOT_COUNTS,
    dense_fold_weights,
    dense_log_tau,
    dense_prefix_minima,
    exact_carleman_integral,
    fields,
    refused_count,
    supporting_line_profile,
)


@pytest.fixture
def no_kernel(monkeypatch):
    """Make any call into the tau kernel fail: input checks must come first."""

    def fail(*args):
        raise AssertionError("the tau kernel ran")

    monkeypatch.setattr(associated_module, "_legendre", fail)


def constant_profile(j_max, value=0.0, dim=1):
    return DerivativeNormProfile(dim=dim, ln_m=(value,) * (j_max + 1))


def factorial_profile(j_max, s=1.0, dim=1):
    return DerivativeNormProfile(
        dim=dim, ln_m=tuple(s * math.lgamma(j + 1) for j in range(j_max + 1))
    )


class TestLogTau:
    def test_constant_profile_minimizer_at_j_max(self):
        prof = constant_profile(10)
        assert log_tau(prof, 2.0) == pytest.approx(-10 * math.log(2))

    def test_factorial_at_r_one(self):
        assert log_tau(factorial_profile(30), 1.0) == pytest.approx(0.0)

    def test_factorial_at_e_against_scan_oracle(self):
        prof = factorial_profile(50)
        brute = min(math.lgamma(j + 1) - j for j in range(51))
        assert brute == pytest.approx(math.log(2) - 2)
        assert log_tau(prof, math.e) == pytest.approx(brute)

    def test_r_below_one_rejected(self):
        with pytest.raises(ValueError):
            log_tau(constant_profile(4), 0.5)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_r_rejected_before_the_kernel(self, no_kernel, r):
        with pytest.raises(ValueError, match=f"^r must be finite and >= 1, got {r}$"):
            log_tau(constant_profile(30), r)

    def test_neg_inf_propagates(self):
        prof = DerivativeNormProfile(dim=1, ln_m=(0.0, NEG_INF, 0.0))
        assert log_tau(prof, 2.0) == NEG_INF

    def test_monotone_nonincreasing_exact(self):
        prof = factorial_profile(40, s=2.0)
        values = [log_tau(prof, float(r)) for r in range(1, 200)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_concave_in_log_r(self):
        # Pointwise min of affine functions of ln r: second differences on a
        # uniform ln-grid must be <= 0 up to float rounding.
        for prof in (factorial_profile(60), factorial_profile(60, s=2.0)):
            x = np.linspace(0.0, math.log(500.0), 120)
            y = np.array([log_tau(prof, math.exp(v)) for v in x])
            second = y[2:] - 2 * y[1:-1] + y[:-2]
            assert np.all(second <= 1e-9)


class TestLogTauShifted:
    def test_constant_profile(self):
        prof = constant_profile(13)
        assert log_tau_shifted(prof, 2.0) == pytest.approx(-10 * math.log(2))

    def test_r_one_is_min_of_tail(self):
        prof = factorial_profile(12)
        assert log_tau_shifted(prof, 1.0) == pytest.approx(math.lgamma(4))

    def test_factorial_scan_oracle(self):
        prof = factorial_profile(53)
        brute = min(math.lgamma(s + 4) - s for s in range(51))
        assert log_tau_shifted(prof, math.e) == pytest.approx(brute)

    def test_requires_depth(self):
        with pytest.raises(ValueError):
            log_tau_shifted(constant_profile(2), 2.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_r_rejected_before_the_kernel(self, no_kernel, r):
        with pytest.raises(ValueError, match=f"^r must be finite and >= 1, got {r}$"):
            log_tau_shifted(constant_profile(30), r)


class TestTm:
    def test_closed_form_weight(self):
        # ln(r^3 tau(r)) = -r on the grid => ln t_m = 1/n for every m.
        prof = supporting_line_profile(lambda r: r, r_max=60, j_max=70)
        for r in range(1, 61):
            assert 3 * math.log(r) + log_tau(prof, r) == pytest.approx(-r, abs=1e-11)
        for m in (1, 2, 7, 40, 60):
            assert t_m(prof, m, 1) == pytest.approx(1.0, abs=1e-12)
            assert t_m(prof, m, 2) == pytest.approx(0.5, abs=1e-12)

    def test_m_one_single_term(self):
        prof = factorial_profile(10, s=2.0)
        assert t_m(prof, 1, 1) == pytest.approx(-log_tau(prof, 1.0))

    def test_shallow_profile_supported(self):
        # t_m has no depth requirement (unlike theta).
        prof = DerivativeNormProfile(dim=1, ln_m=(0.0, 0.1, 0.3))
        got = t_m(prof, 5, 1)
        brute = min(
            -(3 * math.log(r) + log_tau(prof, float(r))) / r for r in range(1, 6)
        )
        assert got == pytest.approx(brute, abs=1e-12)
        with pytest.raises(ValueError):
            theta(prof, 5, 1)

    def test_degenerate_profile_rejected(self):
        prof = build_profile(FourierSeries(1, {(0,): 1.0}), 6)
        with pytest.raises(DegenerateProfileError):
            t_m(prof, 4, 1)

    def test_sequence_is_t_m_for_every_m(self):
        prof = factorial_profile(60, s=1.5)
        seq = t_m_sequence(prof, 80, 2)
        assert seq.shape == (80,)
        for m in (1, 2, 17, 80):
            assert seq[m - 1] == t_m(prof, m, 2)

    def test_nonincreasing_in_m_exact(self):
        for prof in (
            factorial_profile(80),
            factorial_profile(80, s=2.0),
            supporting_line_profile(lambda r: math.sqrt(r), r_max=150, j_max=60),
        ):
            values = [t_m(prof, m, 1) for m in range(1, 150)]
            assert all(b <= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_m_and_n_refused_unless_integers_of_at_least_one(self, no_kernel, value):
        prof = factorial_profile(30)
        for name, call in [
            ("m", lambda: t_m(prof, value, 1)),
            ("n", lambda: t_m(prof, 5, value)),
            ("m_max", lambda: t_m_sequence(prof, value, 1)),
            ("n", lambda: t_m_sequence(prof, 5, value)),
        ]:
            with pytest.raises(ValueError, match=refused_count(name, value)):
                call()


class TestTheta:
    def test_closed_form_weight(self):
        # ln tau~(r) = -r on the grid => ln theta(m) = 1/n.
        rs = np.arange(1.0, 61.0)
        huge = 1e6
        ln_m = [huge, huge, huge] + [
            float(np.max(s * np.log(rs) - rs)) for s in range(0, 68)
        ]
        prof = DerivativeNormProfile(dim=1, ln_m=tuple(ln_m))
        for m in (1, 5, 33, 60):
            assert theta(prof, m, 1) == pytest.approx(1.0, abs=1e-12)
            assert theta(prof, m, 3) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_m_one(self):
        prof = factorial_profile(9)
        assert theta(prof, 1, 2) == pytest.approx(-log_tau_shifted(prof, 1.0) / 2.0)

    def test_chain_inequality_exact(self):
        # ln t_m >= ln theta(m): the full fold weight maximizes over a
        # superset of the shifted one, term for term.
        profiles = [
            factorial_profile(60),
            factorial_profile(60, s=2.0),
            build_profile(
                gen_series(FamilySpec(kind="analytic", dim=1, radius=40, decay=1.0)), 30
            ),
        ]
        for prof in profiles:
            for m in (1, 2, 5, 11, 23, 47):
                assert t_m(prof, m, 1) >= theta(prof, m, 1)

    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_m_and_n_refused_unless_integers_of_at_least_one(self, no_kernel, value):
        prof = factorial_profile(30)
        with pytest.raises(ValueError, match=refused_count("m", value)):
            theta(prof, value, 1)
        with pytest.raises(ValueError, match=refused_count("n", value)):
            theta(prof, 5, value)


class TestAssociatedTable:
    def test_r0_immediate_when_low_orders_dominate(self):
        prof = DerivativeNormProfile(dim=1, ln_m=(40.0, 40.0, 40.0, 0.0, 0.5, 1.0, 2.0))
        table = build_table(prof, range(1, 30))
        assert table.r0_estimate == 1.0

    def test_r0_finite_for_constant_profile(self):
        table = build_table(constant_profile(12), range(1, 50))
        assert table.r0_estimate == 1.0

    def test_r0_inf_when_identity_never_holds(self):
        table = build_table(factorial_profile(30), [1.0, 2.0])
        assert table.r0_estimate == math.inf

    def test_identity_beyond_threshold(self):
        prof = factorial_profile(60)
        table = build_table(prof, range(1, 41))
        r0 = table.r0_estimate
        assert math.isfinite(r0)
        for r, lt, ls in zip(table.r_grid, table.ln_tau, table.ln_tau_shifted):
            if r >= r0:
                assert 3 * math.log(r) + lt == pytest.approx(ls, abs=1e-9)

    def test_ln_tau_nonincreasing_along_grid(self):
        table = build_table(factorial_profile(50, s=2.0), range(1, 100))
        diffs = np.diff(table.ln_tau)
        assert np.all(diffs <= 0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            build_table(factorial_profile(10), [2.0, 2.0])
        with pytest.raises(ValueError):
            build_table(factorial_profile(10), [0.5, 2.0])


class TestColumns:
    """Witness and table records hold read-only ndarray columns."""

    def test_witness_columns(self):
        wit = witness(factorial_profile(120), 1, range(2, 300))
        dtypes = {
            "m_grid": np.int64, "argmin_r": np.int64, "ln_t": np.float64,
            "ln_theta": np.float64, "witness": np.float64,
            "theta_positive": np.bool_, "argmin_saturated": np.bool_,
        }
        for name, dtype in dtypes.items():
            column = getattr(wit, name)
            assert isinstance(column, np.ndarray) and column.dtype == dtype, name
            assert column.shape == (298,) and not column.flags.writeable, name
            with pytest.raises(ValueError):
                column[0] = column[1]
        assert np.array_equal(wit.m_grid, np.arange(2, 300))
        assert type(wit.chain_violations) is int

    def test_grid_types_give_the_same_bits(self):
        prof = factorial_profile(80, s=1.5)
        grids = [range(3, 200, 4), list(range(3, 200, 4)), np.arange(3, 200, 4),
                 np.arange(3.0, 200.0, 4.0), tuple(float(m) for m in range(3, 200, 4))]
        first = witness(prof, 2, grids[0])
        for grid in grids[1:]:
            other = witness(prof, 2, grid)
            for name in ("m_grid", "ln_t", "ln_theta", "witness", "argmin_r"):
                assert getattr(other, name).tobytes() == getattr(first, name).tobytes(), name
            assert other.classification == first.classification

    def test_the_callers_grid_is_left_writable(self):
        grid = np.arange(2, 50)
        witness(factorial_profile(40), 1, grid)
        grid[0] = 2
        table_grid = np.arange(1.0, 20.0)
        build_table(factorial_profile(40), table_grid)
        table_grid[0] = 1.0

    def test_table_columns(self):
        table = build_table(factorial_profile(60), range(1, 41))
        for column in (table.r_grid, table.ln_tau, table.ln_tau_shifted):
            assert isinstance(column, np.ndarray) and column.dtype == np.float64
            assert column.shape == (40,) and not column.flags.writeable
        assert table.r_grid.tolist() == [float(r) for r in range(1, 41)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, -1.0, 1e-12, 2.0]), min_size=1, max_size=30))
    def test_r0_matches_the_backward_scan(self, diffs):
        # r0 is the smallest grid r of the trailing run where the identity holds.
        r_grid = np.arange(1.0, len(diffs) + 1)
        ln_tau = np.zeros(len(diffs))
        ln_shift = 3.0 * np.log(r_grid) - np.array(diffs)
        want = math.inf
        for r, lt, ls in zip(r_grid[::-1], ln_tau[::-1], ln_shift[::-1]):
            diff = 3.0 * math.log(r) + lt - ls
            if math.isnan(diff) or abs(diff) > associated_module.R0_TOL:
                break
            want = float(r)
        assert _r0(_ln(r_grid), r_grid, ln_tau, ln_shift) == want


class TestRunningMin:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan]),
                      st.floats(-5, 5)),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_the_scalar_scan(self, values):
        # best[i] = min(values[:i+1]) as np.minimum gives it (a NaN sticks);
        # arg[i] is the first index where a strictly smaller value arrived.
        given_values = np.array(values)
        best, arg = _running_min_with_argmin(given_values.copy())
        want_best = np.minimum.accumulate(given_values)
        assert best.tobytes() == want_best.tobytes()
        current, want_arg, last = math.inf, [], -1
        for i, v in enumerate(values):
            if v < current:
                last = i
            current = want_best[i]
            want_arg.append(last)
        want_arg[0] = 0
        assert arg.tolist() == want_arg

    def test_works_in_place(self):
        values = np.array([3.0, 1.0, 2.0, 0.5])
        best, _ = _running_min_with_argmin(values)
        assert best is values and values.tolist() == [3.0, 1.0, 1.0, 0.5]


class TestWitness:
    def test_gevrey_series_family_bounded(self):
        spec = FamilySpec(kind="gevrey", dim=1, radius=10_000, exponent=2.0)
        prof = build_profile(gen_series(spec), 40)
        wit = witness(prof, 1, range(2, 1001))
        assert wit.classification == "bounded-trend"

    def test_factorial_profile_divergent(self):
        wit = witness(factorial_profile(200), 1, range(2, 1001))
        assert wit.classification == "divergent-trend"

    def test_values_match_scalar_ops(self):
        prof = factorial_profile(40, s=2.0)
        wit = witness(prof, 2, [3, 8, 17], normalize=False)
        for m, lt, lth in zip(wit.m_grid, wit.ln_t, wit.ln_theta):
            assert lt == pytest.approx(t_m(prof, m, 2), abs=1e-12)
            assert lth == pytest.approx(theta(prof, m, 2), abs=1e-12)

    def test_chain_holds_on_every_m(self):
        for prof in (factorial_profile(120), factorial_profile(120, s=2.0)):
            wit = witness(prof, 1, range(1, 400))
            assert wit.chain_violations == 0
            for lt, lth in zip(wit.ln_t, wit.ln_theta):
                assert lt >= lth

    def test_normalization_makes_theta_positive(self):
        wit = witness(factorial_profile(100, s=2.0), 1, range(2, 300))
        assert all(wit.theta_positive)

    def test_scaling_leaves_classification_unchanged(self):
        prof = factorial_profile(150)
        for delta in (-7.0, 3.5):
            shifted = shift_profile(prof, delta)
            a = witness(prof, 1, range(2, 600))
            b = witness(shifted, 1, range(2, 600))
            assert a.classification == b.classification
            assert a.ln_t == pytest.approx(b.ln_t, abs=1e-9)

    def test_ln_t_nonincreasing(self):
        wit = witness(factorial_profile(80, s=2.0), 1, range(2, 300))
        diffs = np.diff(wit.ln_t)
        assert np.all(diffs <= 0)

    def test_degenerate_rejected(self):
        prof = build_profile(FourierSeries(1, {(0,): 2.0}), 8)
        with pytest.raises(DegenerateProfileError):
            witness(prof, 1, [2, 3, 4])

    def test_grid_validation(self):
        prof = factorial_profile(10)
        with pytest.raises(ValueError):
            witness(prof, 1, [5, 5])
        with pytest.raises(ValueError):
            witness(prof, 1, [])

    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_n_refused_unless_an_integer_of_at_least_one(self, no_kernel, value):
        # n = 0 used to divide every fold weight by n r = 0.
        with pytest.raises(ValueError, match=refused_count("n", value)):
            witness(factorial_profile(30), value, [2, 3, 4])


#: (family spec, Jmax, relative tolerance of the final partial integral).
#: The trapezoid rule in ln r lands within 1.8e-4 of the exact integral on
#: the factorial and gevrey rows and within 8.7e-3 on the analytic one, whose
#: -ln tau bends sharply at the support radius K = 300.
CARLEMAN_PROFILES = [
    *((f"profile:rule=factorial:s={s}:Jmax=2000", 2000, 2e-4) for s in (0.8, 1, 1.5, 2, 2.5)),
    ("profile:rule=factorial:s=1:Jmax=200", 200, 2e-4),
    ("gevrey:s=1.5:K=2000", 60, 2e-4),
    ("analytic:a=0.05:K=300", 400, 1e-2),
]
CARLEMAN_R_MAX = [10.0, 1e3, 1e5, 1e8]


@functools.lru_cache(maxsize=None)
def carleman_profile(spec, j_max):
    family = parse_family_spec(spec)
    if family.kind == "profile":
        return gen_profile(family)
    return build_profile(gen_series(family), j_max)


class TestCarleman:
    def test_factorial_quasianalytic(self):
        report = carleman_diagnostic(factorial_profile(200), 100)
        assert report.verdict == "quasianalytic-trend"
        assert report.saturated_fraction == 0.0

    def test_gevrey_two_non_quasianalytic(self):
        report = carleman_diagnostic(factorial_profile(200, s=2.0), 10_000)
        assert report.verdict == "non-quasianalytic-trend"
        # Partial integrals Cauchy-converge for sqrt-type growth.
        assert report.last_decade_increment < 0.5

    def test_constant_profile_saturates(self):
        report = carleman_diagnostic(constant_profile(200), 1000)
        assert report.verdict == "inconclusive"
        assert report.saturated_fraction > 0.5

    def test_partial_integral_eventually_monotone(self):
        report = carleman_diagnostic(factorial_profile(200), 100)
        tail = np.diff(report.partial_integral[8:])
        assert np.all(tail >= 0)

    def test_scale_shift_does_not_flip_verdict(self):
        base = factorial_profile(200, s=2.0)
        for delta in (-4.0, 4.0):
            report = carleman_diagnostic(shift_profile(base, delta), 1000)
            assert report.verdict == "non-quasianalytic-trend"

    def test_r_max_validated(self):
        with pytest.raises(ValueError):
            carleman_diagnostic(factorial_profile(10), 1.5)
        past = int(sys.float_info.max) + 1
        with pytest.raises(ValueError, match=f"^r_max must be finite and >= 2, got {past}$"):
            carleman_diagnostic(factorial_profile(10), past)

    def test_nan_r_max_rejected_before_the_kernel(self, no_kernel):
        with pytest.raises(ValueError, match="^r_max must be finite and >= 2, got nan$"):
            carleman_diagnostic(factorial_profile(10), math.nan)

    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_points_per_decade_refused_unless_an_integer_of_at_least_one(self, no_kernel, value):
        # 0 and -5 used to give a two-point grid without a word.
        with pytest.raises(ValueError, match=refused_count("points_per_decade", value)):
            carleman_diagnostic(factorial_profile(10), 100, value)

    def test_r_max_at_the_largest_float(self):
        # In x = ln r the integrand -ln tau / r stays finite up to the
        # largest float: no r^2 is formed, so nothing overflows.
        r_max = int(sys.float_info.max)
        report = carleman_diagnostic(factorial_profile(10), r_max)
        assert report.r_grid[-1] == sys.float_info.max
        assert all(map(math.isfinite, report.partial_integral))

    @pytest.mark.parametrize("r_max", [2.0, 10.0, 2e5, 1e8, 1e308, sys.float_info.max])
    def test_grid_ends_at_r_max(self, r_max):
        # libm's exp(ln 2e5) is 200000.00000000006; the last point is r_max itself.
        report = carleman_diagnostic(factorial_profile(10), r_max)
        assert report.r_grid[-1] == r_max
        assert np.all(np.diff(report.r_grid) > 0)

    def test_exact_hull_sum_against_quadrature(self):
        # ln M_j = j (j - 1) / 8 puts every point on the hull, with edge slopes
        # j / 4; lifting ln M_6 by 1/2 drops it, and its two edges merge into
        # one of slope 11/8.  So -ln tau is smooth between multiples of 1/8
        # in x, where mpmath.quad is exact to its working precision.
        mpmath = pytest.importorskip("mpmath")
        ln_m = [j * (j - 1) / 8 + (0.5 if j == 6 else 0.0) for j in range(13)]
        prof = DerivativeNormProfile(dim=1, ln_m=tuple(ln_m))
        with mpmath.workdps(30):
            def integrand(x):
                return max(j * x - v for j, v in enumerate(ln_m)) * mpmath.exp(-x)

            want = mpmath.quad(integrand, mpmath.linspace(0, 4, 33))
            got = exact_carleman_integral(prof, 0.0, 4.0, dps=30)
            assert abs(got / want - 1) < 1e-25

    @pytest.mark.parametrize("r_max", CARLEMAN_R_MAX)
    @pytest.mark.parametrize("spec, j_max, final_tol", CARLEMAN_PROFILES,
                             ids=[f"{spec}-J{j}" for spec, j, _ in CARLEMAN_PROFILES])
    def test_integrals_against_the_exact_hull_sum(self, spec, j_max, final_tol, r_max):
        # The exact integral is a sum over the hull pieces in x = ln r
        # (helpers.exact_carleman_integral).  The last decade is compared on
        # the interval the report integrates: from the first grid x at or
        # past ln r_max - ln 10 to ln r_max.
        prof = carleman_profile(spec, j_max)
        report = carleman_diagnostic(prof, r_max)
        x = np.linspace(0.0, math.log(r_max), report.r_grid.size)
        cut = np.searchsorted(x, x[-1] - math.log(10.0))
        final = float(exact_carleman_integral(prof, 0.0, x[-1]))
        decade = float(exact_carleman_integral(prof, x[cut], x[-1]))
        assert report.partial_integral[-1] == pytest.approx(final, rel=final_tol)
        assert report.last_decade_increment == pytest.approx(decade, rel=2e-4)

    def test_fully_saturated_grid_fits_nothing(self):
        # ln M_j - j ln r is smallest at j = j_max for every r >= 1, so no
        # grid point is left to fit; the fits are None, not NaN-rmse zeros.
        prof = DerivativeNormProfile(dim=1, ln_m=(2.0, 1.0, 0.0))
        report = carleman_diagnostic(prof, 50)
        assert all(report.saturated)
        assert report.fit_linear is None and report.fit_sqrt is None
        assert report.verdict == "inconclusive"


def bits(values):
    """IEEE bit patterns, so -0.0 != 0.0 and equality is exact."""
    return np.asarray(values, dtype=float).view(np.int64)


@st.composite
def kernel_cases(draw):
    """(profile, r_max): non-convex, collinear-tie and factorial-like ln M_j, J <= 300."""
    j_max = draw(st.integers(0, 300))
    kind = draw(st.sampled_from(("random", "collinear", "lattice", "factorial")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    j = np.arange(j_max + 1, dtype=float)
    if kind == "random":
        ln_m = rng.normal(size=j_max + 1) * draw(st.sampled_from((1.0, 50.0, 1e4)))
    elif kind == "collinear":
        # c + j ln k: every term ties exactly at r = k, and k = 1 is a constant profile.
        ln_m = draw(st.integers(-3, 3)) + j * math.log(draw(st.integers(1, 40)))
    elif kind == "lattice":
        # Partial sums of ln of integers: exact slope ties at integer r.
        ln_m = np.cumsum(np.log(rng.integers(1, 30, size=j_max + 1).astype(float)))
    else:
        s = draw(st.sampled_from((1.0, 1.5, 2.0)))
        ln_m = np.array([s * math.lgamma(k + 1) for k in range(j_max + 1)])
    for k in draw(st.lists(st.integers(0, j_max), max_size=2)):
        ln_m[k] = NEG_INF
    profile = DerivativeNormProfile(dim=1, ln_m=tuple(ln_m.tolist()))
    return profile, draw(st.integers(2, 400))


class TestPrefixMinima:
    """ln t_m, ln theta(m) and their argmin from one fold pass, against the dense scan."""

    @settings(max_examples=100, deadline=None)
    @given(kernel_cases(), st.integers(1, 3))
    @example((constant_profile(2), 50), 1)  # w_full(1) = -0.0 from the head terms
    @example((constant_profile(40), 60), 2)
    @example((factorial_profile(300, s=1.5), 400), 1)
    def test_bit_identical_to_the_dense_prefix_minima(self, case, n):
        prof, m_max = case
        assume(not prof.is_degenerate())
        want_t, want_arg, want_theta = dense_prefix_minima(prof, m_max, n)
        assert np.array_equal(bits(t_m_sequence(prof, m_max, n)), bits(want_t))
        for m in sorted({1, 2, m_max}):
            assert bits(t_m(prof, m, n)) == bits(want_t[m - 1])
        if prof.j_max < 3:
            with pytest.raises(ValueError):
                theta(prof, m_max, n)
            return
        for m in sorted({1, 2, m_max}):
            assert bits(theta(prof, m, n)) == bits(want_theta[m - 1])
        wit = witness(prof, n, range(1, m_max + 1), normalize=False)
        assert np.array_equal(bits(wit.ln_t), bits(want_t))
        assert np.array_equal(bits(wit.ln_theta), bits(want_theta))
        assert np.array_equal(wit.argmin_r, want_arg)


class TestLegendreKernel:
    """The hull kernel against the dense O(R J) scan, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases())
    def test_blocks_do_not_change_bits(self, case):
        # Candidates and delta come from all of x; only the terms are blocked.
        prof, r_max = case
        ln_r = np.log(np.arange(1.0, r_max + 1))
        starts = (0, 3) if prof.j_max >= 3 else (0,)
        with mock.patch.object(associated_module, "_X_BLOCK", r_max + 1):
            want = [_legendre(prof, ln_r, s) for s in starts]
        for block in (1, 7, associated_module._X_BLOCK):
            with mock.patch.object(associated_module, "_X_BLOCK", block):
                for s, (values, arg) in zip(starts, want):
                    got_values, got_arg = _legendre(prof, ln_r, s)
                    assert got_values.tobytes() == values.tobytes()
                    assert np.array_equal(got_arg, arg)

    def test_folds_build_only_the_shifted_hull(self, monkeypatch):
        built = []
        lower_hull = associated_module._lower_hull

        def counted(a):
            built.append(len(a))
            return lower_hull(a)

        monkeypatch.setattr(associated_module, "_lower_hull", counted)
        # The fold weights are the tau~ kernel's plus the three head terms
        # j < 3, so t_m, theta and the witness build only the hull from j = 3.
        for fold in (lambda p: t_m(p, 40, 1), lambda p: theta(p, 40, 1),
                     lambda p: witness(p, 1, range(2, 41))):
            built.clear()
            fold(factorial_profile(60))
            assert built == [58]
        built.clear()
        for j_max in (0, 1, 2):
            t_m_sequence(factorial_profile(j_max), 40, 1)
        assert built == []

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: log_tau(p, 7.5),
            lambda p: log_tau_shifted(p, 7.5),
            lambda p: t_m(p, 40, 1),
            lambda p: theta(p, 40, 1),
            lambda p: build_table(p, range(1, 50)),
            lambda p: witness(p, 1, range(2, 41)),
            lambda p: carleman_diagnostic(p, 300),
        ],
        ids=["log_tau", "log_tau_shifted", "t_m", "theta", "build_table", "witness",
             "carleman_diagnostic"],
    )
    def test_calls_leave_no_state_on_the_profile(self, monkeypatch, call):
        # A profile holds its fields and nothing a call computed: a second
        # call builds the same hulls again and gives the same bits.
        built = []
        lower_hull = associated_module._lower_hull

        def counted(a):
            built.append(len(a))
            return lower_hull(a)

        monkeypatch.setattr(associated_module, "_lower_hull", counted)
        prof = factorial_profile(60, s=1.5)
        first = fields(call(prof))
        assert vars(prof) == {"dim": 1, "ln_m": factorial_profile(60, s=1.5).ln_m}
        once = list(built)
        assert once
        second = fields(call(prof))
        assert built == once + once
        np.testing.assert_equal(second, first)
        assert vars(prof) == {"dim": 1, "ln_m": factorial_profile(60, s=1.5).ln_m}

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    @example((constant_profile(200), 400))
    @example((factorial_profile(300), 400))
    @example((constant_profile(2), 50))
    def test_matches_dense_scan(self, case):
        prof, r_max = case
        j_max = prof.j_max
        grid = range(1, r_max + 1)
        math_ln_r = [math.log(r) for r in grid]
        np_ln_r = np.log(np.arange(1.0, r_max + 1))
        for start in (0, 3) if j_max >= 3 else (0,):
            for ln_r in (math_ln_r, np_ln_r):
                got, got_arg = _legendre(prof, ln_r, start)
                want, want_arg = dense_log_tau(prof, ln_r, start)
                assert np.array_equal(bits(got), bits(want))
                assert np.array_equal(got_arg, want_arg)

        want_tau, _ = dense_log_tau(prof, math_ln_r)
        for r in (1, 2, r_max):
            assert bits(log_tau(prof, r)) == bits(want_tau[r - 1])
        if j_max >= 3:
            want_shift, _ = dense_log_tau(prof, math_ln_r, 3)
            for r in (1, 2, r_max):
                assert bits(log_tau_shifted(prof, r)) == bits(want_shift[r - 1])
            table = build_table(prof, grid)
            assert np.array_equal(bits(table.ln_tau), bits(want_tau))
            assert np.array_equal(bits(table.ln_tau_shifted), bits(want_shift))
        else:
            with pytest.raises(ValueError):
                log_tau_shifted(prof, 2.0)
            with pytest.raises(ValueError):
                build_table(prof, grid)

        weights = _fold_weights(prof, r_max)[:3]  # the fourth is ln r
        for got, want in zip(weights, dense_fold_weights(prof, r_max), strict=True):
            assert np.array_equal(bits(got), bits(want))

        if prof.is_degenerate():
            assert log_tau(prof, 2.0) == NEG_INF
            with pytest.raises(DegenerateProfileError):
                t_m(prof, 3, 1)
            return
        # The Carleman kernel runs at x = ln r, evenly spaced; r is libm's exp of x but at r_max.
        report = carleman_diagnostic(prof, r_max)
        x = np.linspace(0.0, math.log(r_max), report.r_grid.size)
        assert np.array_equal(bits(report.r_grid), bits([*map(math.exp, x[:-1]), r_max]))
        want_grid, want_arg = dense_log_tau(prof, x)
        assert np.array_equal(bits(report.neg_ln_tau), bits(-want_grid))
        assert np.array_equal(report.saturated, want_arg == j_max)


def scaled_ints(values: np.ndarray):
    """(ints, e) with values[i] == ints[i] * 2**e exactly, for finite floats."""
    mant, exp = np.frexp(values)
    mant = (mant * 2.0**53).astype(np.int64).tolist()
    exp = (exp - 53).tolist()
    e = min(exp)
    return [m << (k - e) for m, k in zip(mant, exp)], e


def centred_fit_reference(mp, x, y):
    """(slope, intercept, rmse) of the least-squares line through the float data, to 50 digits.

    With X = x / 2^ex and Y = y / 2^ey integers, N Sxy = N sum(XY) - sum(X) sum(Y)
    is N sum((X - mean X)(Y - mean Y)) exactly, and likewise N Sxx and N Syy;
    the minimal residual sum of squares is Syy - Sxy^2 / Sxx.  Only the final
    quotients and the square root are rounded, at 50 digits.
    """
    X, ex = scaled_ints(x)
    Y, ey = scaled_ints(y)
    n = len(X)
    sx, sy = sum(X), sum(Y)
    nsxx = n * sum(v * v for v in X) - sx * sx
    nsxy = n * sum(a * b for a, b in zip(X, Y)) - sx * sy
    nsyy = n * sum(v * v for v in Y) - sy * sy
    with mp.workdps(50):
        slope = mp.mpf(nsxy) / nsxx * mp.mpf(2) ** (ey - ex)
        intercept = mp.mpf(sy * nsxx - nsxy * sx) / (n * nsxx) * mp.mpf(2) ** ey
        rmse = mp.sqrt(mp.mpf(nsyy * nsxx - nsxy * nsxy) / nsxx) / n * mp.mpf(2) ** ey
    return slope, intercept, rmse


def lstsq_fit(x, y):
    """(slope, intercept, rmse) from LAPACK's least squares on the N x 2 design matrix."""
    design = np.column_stack([x, np.ones_like(x)])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ coef
    return float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(np.square(resid))))


class TestFitLine:
    @staticmethod
    def caller_fits():
        """(x, y) pairs on the grids the callers fit: integer r, sqrt(r), the
        log-spaced Carleman grid and ln m of the witness's top half, with y
        from factorial profiles' -ln tau(r) at unsaturated r and d_m."""
        r = np.arange(1, 200_001, dtype=float)
        carleman = np.logspace(0.0, math.log10(2e5), math.ceil(64 * math.log10(2e5)) + 1)
        carleman[0] = 1.0
        for s, j_max in ((1.5, 4000), (2.5, 600)):
            prof = factorial_profile(j_max, s)
            for grid in (r, carleman):
                ln_tau, arg = _legendre(prof, np.log(grid))
                keep = arg < j_max
                yield grid[keep], -ln_tau[keep]
                yield np.sqrt(grid[keep]), -ln_tau[keep]
            wit = witness(prof, 1, range(2, 20_001))
            top = slice(wit.m_grid.size // 2, None)
            yield np.log(wit.m_grid[top].astype(float)), wit.witness[top]

    def test_no_less_accurate_than_lstsq(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp

        def rel_errors(got, want):
            with mp.workdps(50):
                return [float(abs(mp.mpf(g) - w) / abs(w)) for g, w in zip(got, want)]

        worst = worst_lstsq = 0.0
        for x, y in self.caller_fits():
            want = centred_fit_reference(mp, x, y)
            fit = _fit_line(x, y)
            worst = max(worst, *rel_errors((fit.slope, fit.intercept, fit.rmse), want))
            worst_lstsq = max(worst_lstsq, *rel_errors(lstsq_fit(x, y), want))
        # Measured: 1.8e-15 for the centred sums, 1.1e-14 for lstsq.
        assert worst <= worst_lstsq
        assert worst < 1e-14

    def test_exact_on_linear_integer_data(self):
        x = np.arange(-5.0, 12.0)
        fit = _fit_line(x, 3.0 * x - 7.0)
        assert (fit.slope, fit.intercept, fit.rmse) == (3.0, -7.0, 0.0)
        fit = _fit_line(np.array([1.0, 2.0, 4.0, 8.0]), np.array([2.0, 4.0, 8.0, 16.0]))
        assert (fit.slope, fit.intercept, fit.rmse) == (2.0, 0.0, 0.0)


class TestLemma:
    def test_sqrt_envelope(self):
        t = np.logspace(0, 8, 8 * 64 + 1)
        report = lemma_check(t, np.sqrt(t))
        assert report.alpha_fit == pytest.approx(0.5, abs=1e-6)
        assert report.c_fit == pytest.approx(1.0, rel=1e-6)
        assert report.fit_ok and report.hypothesis_ok
        assert report.verdict == "convergent"
        assert report.implication_holds

    def test_linear_envelope_fit_fails_and_diverges(self):
        t = np.logspace(0, 8, 8 * 64 + 1)
        report = lemma_check(t, t)
        assert not report.fit_ok
        assert report.alpha_fit == pytest.approx(0.0, abs=1e-9)
        assert report.verdict == "divergent"
        assert report.implication_holds  # vacuously

    def test_constant_envelope_boundary_alpha(self):
        t = np.logspace(0, 4, 4 * 64 + 1)
        report = lemma_check(t, np.ones_like(t))
        assert report.alpha_fit == pytest.approx(1.0, abs=1e-9)
        assert report.verdict == "convergent"
        assert report.implication_holds

    def test_partial_integrals_nondecreasing(self):
        t = np.logspace(0, 6, 6 * 64 + 1)
        report = lemma_check(t, np.sqrt(t) + 1.0)
        assert np.all(np.diff(report.partial_integrals) >= 0)

    def test_nonpositive_h_rejected(self):
        t = np.logspace(0, 3, 100)
        h = np.ones_like(t)
        h[5] = 0.0
        with pytest.raises(ValueError):
            lemma_check(t, h)

    def test_range_shorter_than_two_decades_is_inconclusive(self):
        # The sqrt envelope reads "convergent" over eight decades.
        t = np.logspace(0, 1.9, 128)
        report = lemma_check(t, np.sqrt(t))
        assert report.verdict == "inconclusive"
        assert report.alpha_fit == pytest.approx(0.5, abs=1e-6)

    def test_envelope_underflow_refused(self):
        # h / t is 0 past t = 1 for the least positive h, and has no ln.
        with pytest.raises(ValueError, match="^h / t underflows to 0 on the grid$"):
            lemma_check([1.0, 10.0, 100.0, 1000.0], [5e-324] * 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_refused_naming_its_array(self, bad):
        # A non-finite t is a grid error (tests/test_grids.py).
        h = [1.0, 2.0, bad, 4.0, 5.0]
        with pytest.raises(ValueError, match="^h_values entries must be finite$"):
            lemma_check([1.0, 2.0, 3.0, 4.0, 5.0], h)

    def test_implication_across_power_family(self):
        # Whenever the decay fit succeeds with alpha in (0,1), the partial
        # integrals must be Cauchy; no counterexample tolerated.
        for p, decades in [(0.0, 8), (0.3, 10), (0.5, 10), (0.7, 16), (0.9, 35)]:
            t = np.logspace(0, decades, decades * 64 + 1)
            report = lemma_check(t, t**p)
            if report.fit_ok:
                assert report.alpha_fit == pytest.approx(1.0 - p, abs=1e-6)
                assert report.last_decade_increment < 1e-3, f"p={p}"
