import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtorus import (
    FourierSeries,
    build_profile,
    coefficient_bound_audit,
    m_j,
    shift_profile,
)
from helpers import compositions, derivative_l2_norm, random_series

NEG = float("-inf")


class TestDerivativeNorm:
    def test_unit_index_has_unit_norms(self):
        s = FourierSeries(1, {(1,): 1.0})
        assert derivative_l2_norm(s, (3,)) == pytest.approx(0.0)

    def test_single_mode_power(self):
        s = FourierSeries(1, {(2,): 1.0})
        assert derivative_l2_norm(s, (1,)) == pytest.approx(math.log(2))

    def test_zero_component_excluded(self):
        s = FourierSeries(2, {(1, 0): 1.0})
        assert derivative_l2_norm(s, (0, 1)) == NEG

    def test_zero_alpha_keeps_zero_modes(self):
        # k_p = alpha_p = 0 contributes factor 1, not an exclusion.
        s = FourierSeries(2, {(0, 0): 2.0, (1, 0) : 1.0})
        got = derivative_l2_norm(s, (0, 0))
        assert got == pytest.approx(0.5 * math.log(4.0 + 1.0))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            derivative_l2_norm(FourierSeries(1, {(1,): 1.0}), (-1,))


class TestMj:
    def test_single_unit_mode_all_orders(self):
        s = FourierSeries(1, {(1,): 1.0})
        for j in range(6):
            assert m_j(s, j) == pytest.approx(0.0)

    def test_two_mode_hand_enumeration(self):
        # alpha=(2,0) -> norm 1, alpha=(0,2) -> norm 4, alpha=(1,1) -> empty.
        s = FourierSeries(2, {(1, 0): 1.0, (0, 2): 1.0})
        assert m_j(s, 2) == pytest.approx(math.log(4))

    def test_constant_series_derivatives_vanish(self):
        s = FourierSeries(2, {(0, 0): 3.0})
        assert m_j(s, 0) == pytest.approx(math.log(3))
        for j in (1, 2, 5):
            assert m_j(s, j) == NEG

    def test_single_mode_closed_form_vs_bruteforce(self):
        # For one mode the max puts all derivative weight on the largest
        # nonzero |k_p|; check against brute enumeration of compositions.
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            k = tuple(int(x) for x in rng.integers(-4, 5, size=n))
            if all(x == 0 for x in k):
                continue
            c = complex(rng.normal(), rng.normal())
            s = FourierSeries(n, {k: c})
            for j in range(7):
                brute = NEG
                for alpha in compositions(j, n):
                    if any(a > 0 and kp == 0 for a, kp in zip(alpha, k)):
                        continue
                    brute = max(
                        brute,
                        math.log(abs(c))
                        + sum(a * math.log(abs(kp)) for a, kp in zip(alpha, k) if a),
                    )
                got = m_j(s, j)
                if j == 0:
                    expected = math.log(abs(c))
                elif max(abs(x) for x in k) == 0:
                    expected = NEG
                else:
                    expected = math.log(abs(c)) + j * math.log(
                        max(abs(x) for x in k if x != 0)
                    )
                assert got == pytest.approx(brute)
                assert got == pytest.approx(expected)


@st.composite
def sparse_series(draw):
    n = draw(st.integers(1, 3))
    component = st.one_of(st.just(0), st.integers(-6, 6))
    indices = draw(st.lists(st.tuples(*[component] * n), max_size=8, unique=True))
    part = st.floats(-100.0, 100.0)
    return FourierSeries(n, {k: complex(draw(part), draw(part)) for k in indices})


class TestPureDirectionIdentity:
    @settings(deadline=None)
    @given(sparse_series())
    @example(FourierSeries(1, {}))
    @example(FourierSeries(3, {}))
    @example(FourierSeries(3, {(0, 0, 0): 2.0}))
    @example(FourierSeries(2, {(1, 0): 1.0, (0, -3): 0.5j, (0, 0): 4.0}))
    @example(FourierSeries(3, {(2, 0, 1): 1.0, (0, -1, 5): -2.0, (3, 3, 0): 1j}))
    def test_profile_matches_bruteforce_max(self, s):
        # M_j to a relative 1e-12, i.e. ln M_j to an absolute 1e-12.
        j_max = 10
        prof = build_profile(s, j_max)
        for j in range(j_max + 1):
            brute = max(derivative_l2_norm(s, a) for a in compositions(j, s.dim))
            got = prof.ln_m[j]
            if brute == NEG:
                assert got == NEG
            else:
                assert abs(got - brute) <= 1e-12, (j, got, brute)
            assert m_j(s, j) == got


class TestBuildProfile:
    def test_unit_mode_profile(self):
        prof = build_profile(FourierSeries(1, {(1,): 1.0}), 3)
        assert prof.ln_m == pytest.approx((0.0, 0.0, 0.0, 0.0))

    def test_power_growth(self):
        prof = build_profile(FourierSeries(1, {(2,): 1.0}), 2)
        assert prof.ln_m == pytest.approx((0.0, math.log(2), math.log(4)))

    def test_empty_series_all_neg_inf(self):
        prof = build_profile(FourierSeries(1, {}), 4)
        assert all(v == NEG for v in prof.ln_m)

    def test_scaling_shifts_uniformly(self):
        rng = np.random.default_rng(3)
        s = random_series(rng, 2, max_modes=12, radius=4)
        c = 0.37
        base = build_profile(s, 5)
        scaled = build_profile(s * c, 5)
        for a, b in zip(base.ln_m, scaled.ln_m):
            if a == NEG:
                assert b == NEG
            else:
                assert b - a == pytest.approx(math.log(c), abs=1e-12)

    def test_shift_profile_matches_scaling(self):
        rng = np.random.default_rng(4)
        s = random_series(rng, 1, max_modes=10, radius=5)
        delta = -1.25
        shifted = shift_profile(build_profile(s, 4), delta)
        rebuilt = build_profile(s * math.exp(delta), 4)
        for a, b in zip(shifted.ln_m, rebuilt.ln_m):
            assert a == pytest.approx(b, abs=1e-12)


class TestCompositions:
    def test_counts(self):
        for total, parts in [(0, 1), (3, 1), (4, 2), (5, 3), (6, 4)]:
            got = list(compositions(total, parts))
            expected = math.comb(total + parts - 1, parts - 1)
            assert len(got) == expected
            assert len(set(got)) == expected
            assert all(sum(a) == total for a in got)


class TestCoefficientBoundAudit:
    def test_unit_mode_no_violation(self):
        s = FourierSeries(1, {(1,): 1.0})
        report = coefficient_bound_audit(s, build_profile(s, 2), 2)
        assert report.ok and report.n_checked == 1

    def test_single_mode_tight(self):
        s = FourierSeries(1, {(3,): 1.0})
        report = coefficient_bound_audit(s, build_profile(s, 2), 2)
        assert report.ok

    def test_two_dim_tight(self):
        s = FourierSeries(2, {(2, 2): 1.0})
        prof = build_profile(s, 4)
        assert prof.ln_m[4] == pytest.approx(math.log(16))
        assert coefficient_bound_audit(s, prof, 4).ok

    def test_low_order_rejected(self):
        s = FourierSeries(2, {(1, 1): 1.0})
        with pytest.raises(ValueError, match="2n"):
            coefficient_bound_audit(s, build_profile(s, 4), 3)

    def test_self_consistency_random(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            n = int(rng.integers(1, 4))
            s = random_series(rng, n, max_modes=20, radius=6)
            prof = build_profile(s, 2 * n + 4)
            for j in range(2 * n, 2 * n + 5):
                assert coefficient_bound_audit(s, prof, j).ok
