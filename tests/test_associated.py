import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtorus import (
    DegenerateProfileError,
    DerivativeNormProfile,
    FamilySpec,
    FourierSeries,
    build_profile,
    build_table,
    carleman_diagnostic,
    gen_series,
    lemma_check,
    log_tau,
    log_tau_shifted,
    shift_profile,
    t_m,
    t_m_sequence,
    theta,
    witness,
)
import qtorus.associated as associated_module
from qtorus.associated import _fold_weights, _legendre
from qtorus.logspace import NEG_INF
from helpers import dense_fold_weights, dense_log_tau, supporting_line_profile


def constant_profile(j_max, value=0.0, dim=1):
    return DerivativeNormProfile(dim=dim, ln_m=(value,) * (j_max + 1), j_max=j_max)


def factorial_profile(j_max, s=1.0, dim=1):
    return DerivativeNormProfile(
        dim=dim,
        ln_m=tuple(s * math.lgamma(j + 1) for j in range(j_max + 1)),
        j_max=j_max,
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

    def test_neg_inf_propagates(self):
        prof = DerivativeNormProfile(dim=1, ln_m=(0.0, NEG_INF, 0.0), j_max=2)
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
        prof = DerivativeNormProfile(dim=1, ln_m=(0.0, 0.1, 0.3), j_max=2)
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


class TestTheta:
    def test_closed_form_weight(self):
        # ln tau~(r) = -r on the grid => ln theta(m) = 1/n.
        rs = np.arange(1.0, 61.0)
        huge = 1e6
        ln_m = [huge, huge, huge] + [
            float(np.max(s * np.log(rs) - rs)) for s in range(0, 68)
        ]
        prof = DerivativeNormProfile(dim=1, ln_m=tuple(ln_m), j_max=70)
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


class TestAssociatedTable:
    def test_r0_immediate_when_low_orders_dominate(self):
        prof = DerivativeNormProfile(
            dim=1, ln_m=(40.0, 40.0, 40.0, 0.0, 0.5, 1.0, 2.0), j_max=6
        )
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
        with pytest.raises(ValueError, match="largest float"):
            carleman_diagnostic(factorial_profile(10), int(sys.float_info.max) + 1)

    def test_r_max_at_the_largest_float(self):
        # 10^log10(r_max) rounds past the float range here; the grid ends at
        # the largest float and the integrand there is 0.
        r_max = int(sys.float_info.max)
        report = carleman_diagnostic(factorial_profile(10), r_max)
        assert report.r_grid[-1] == sys.float_info.max
        assert all(map(math.isfinite, report.partial_integral))

    def test_fully_saturated_grid_fits_nothing(self):
        # ln M_j - j ln r is smallest at j = j_max for every r >= 1, so no
        # grid point is left to fit; the fits are None, not NaN-rmse zeros.
        prof = DerivativeNormProfile(dim=1, ln_m=(2.0, 1.0, 0.0), j_max=2)
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
    profile = DerivativeNormProfile(dim=1, ln_m=tuple(ln_m.tolist()), j_max=j_max)
    return profile, draw(st.integers(2, 400))


class TestLegendreKernel:
    """The hull kernel against the dense O(R J) scan, bit for bit."""

    def test_hull_built_once_per_profile_and_start(self, monkeypatch):
        built = []
        lower_hull = associated_module._lower_hull

        def counted(a):
            built.append(len(a))
            return lower_hull(a)

        monkeypatch.setattr(associated_module, "_lower_hull", counted)
        prof = factorial_profile(60)
        for r in range(1, 50):
            log_tau(prof, float(r))
            log_tau_shifted(prof, float(r))
            t_m(prof, r, 1)
        assert built == [61, 58]
        log_tau(factorial_profile(60), 2.0)
        assert built == [61, 58, 61]

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
                got, got_arg = _legendre(prof, ln_r, start, start)
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

        for got, want in zip(_fold_weights(prof, r_max), dense_fold_weights(prof, r_max)):
            assert np.array_equal(bits(got), bits(want))

        if prof.is_degenerate():
            assert log_tau(prof, 2.0) == NEG_INF
            with pytest.raises(DegenerateProfileError):
                t_m(prof, 3, 1)
            return
        report = carleman_diagnostic(prof, r_max)
        want_grid, want_arg = dense_log_tau(prof, np.log(np.array(report.r_grid)))
        assert np.array_equal(bits(report.neg_ln_tau), bits(-want_grid))
        assert report.saturated == tuple(want_arg == j_max)


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

    def test_implication_across_power_family(self):
        # Whenever the decay fit succeeds with alpha in (0,1), the partial
        # integrals must be Cauchy; no counterexample tolerated.
        for p, decades in [(0.0, 8), (0.3, 10), (0.5, 10), (0.7, 16), (0.9, 35)]:
            t = np.logspace(0, decades, decades * 64 + 1)
            report = lemma_check(t, t**p)
            if report.fit_ok:
                assert report.alpha_fit == pytest.approx(1.0 - p, abs=1e-6)
                assert report.last_decade_increment < 1e-3, f"p={p}"
