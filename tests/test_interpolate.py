import cmath
import math

import numpy as np
import pytest

from qtorus import (
    FourierSeries,
    PolyPoint,
    alias_fold,
    augmented_interpolant,
    bound_audit,
    build_profile,
    diagonal_fold,
    eval_batch,
    eval_laurent,
    grid_array,
    interpolation_audit,
)
from qtorus.interpolate import _grid_factor
from helpers import random_series, random_torus_point


class TestDiagonalFold:
    def test_low_modes_m2(self):
        s = FourierSeries(1, {(0,): 1.0, (1,): 2.0, (2,): 3.0})
        fold = diagonal_fold(s, 2)
        assert fold.terms[(0, (1,))] == pytest.approx(4.0 + 0j)
        assert fold.terms[(1, (1,))] == pytest.approx(2.0 + 0j)
        assert fold.terms[(1, (-1,))] == 0j
        assert fold.covered_modes == {(0,), (1,), (2,)}

    def test_signed_modes(self):
        s = FourierSeries(1, {(-1,): 5.0, (3,): 7.0})
        fold = diagonal_fold(s, 2)
        assert fold.terms[(1, (-1,))] == pytest.approx(5.0 + 0j)
        assert fold.terms[(1, (1,))] == pytest.approx(7.0 + 0j)

    def test_two_dim_coverage_gap(self):
        s = FourierSeries(2, {(1, 1): 1.0, (1, 0): 9.0})
        fold = diagonal_fold(s, 2)
        assert fold.terms[(1, (1, 1))] == pytest.approx(1.0 + 0j)
        assert (1, 0) not in fold.covered_modes
        assert (1, 1) in fold.covered_modes

    def test_n1_covers_everything(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            s = random_series(rng, 1, max_modes=25, radius=20)
            m = int(rng.integers(1, 9))
            fold = diagonal_fold(s, m)
            assert fold.covered_modes == set(s.coeffs)

    def test_global_dedup_counts_each_mode_once(self):
        # c_0 is reachable by every (0, beta, 0): absorbed once at the
        # all-plus slot, with the other three visits recorded as collisions.
        s = FourierSeries(2, {(0, 0): 5.0})
        fold = diagonal_fold(s, 3)
        total = sum(fold.terms.values())
        assert total == pytest.approx(5.0 + 0j)
        assert fold.terms[(0, (1, 1))] == pytest.approx(5.0 + 0j)
        assert len(fold.skipped_collisions) == 3
        assert all(r == 0 and l == (0, 0) for r, _, l in fold.skipped_collisions)

    def test_linearity(self):
        rng = np.random.default_rng(23)
        f = random_series(rng, 1, max_modes=15)
        g = random_series(rng, 1, max_modes=15)
        m = 5
        fa = diagonal_fold(f, m).series()
        ga = diagonal_fold(g, m).series()
        combo = diagonal_fold(2.0 * f + 3j * g, m).series()
        expect = 2.0 * fa + 3j * ga
        for k in set(combo.coeffs) | set(expect.coeffs):
            assert combo.coeffs.get(k, 0j) == pytest.approx(expect.coeffs.get(k, 0j))

    def test_exponents_have_signed_diagonal_form(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 7))
            s = random_series(rng, n, max_modes=25, radius=9)
            folded = diagonal_fold(s, m).series()
            for k in folded.coeffs:
                magnitudes = {abs(x) for x in k}
                r = max(magnitudes)
                assert magnitudes <= {0, r}
                assert 0 <= r <= m - 1


class TestEvalDiagonalPoly:
    """The diagonal fold evaluated as a series, each distinct monomial once."""

    def test_single_low_mode_passthrough(self):
        fold = diagonal_fold(FourierSeries(1, {(1,): 1.0}), 2)
        assert eval_laurent(fold.series(), PolyPoint((1j,))) == pytest.approx(1j)

    def test_alias_of_high_mode_at_plus_one(self):
        fold = diagonal_fold(FourierSeries(1, {(3,): 1.0}), 2)
        assert eval_laurent(fold.series(), PolyPoint((1.0,))) == pytest.approx(1.0)

    def test_alias_of_high_mode_at_minus_one(self):
        fold = diagonal_fold(FourierSeries(1, {(3,): 1.0}), 2)
        assert eval_laurent(fold.series(), PolyPoint((-1.0,))) == pytest.approx(-1.0)


class TestAliasFold:
    def test_residue_sums(self):
        s = FourierSeries(1, {(0,): 1.0, (1,): 2.0, (2,): 3.0})
        folded = alias_fold(s, 2)
        assert folded.coeffs == {(0,): 4.0 + 0j, (1,): 2.0 + 0j}
        assert eval_laurent(folded, PolyPoint((1.0,))) == pytest.approx(6.0)
        assert eval_laurent(folded, PolyPoint((-1.0,))) == pytest.approx(2.0)

    def test_two_dim_single_mode(self):
        s = FourierSeries(2, {(1, 0): 9.0})
        folded = alias_fold(s, 2)
        assert folded.coeffs == {(1, 0): 9.0 + 0j}
        nodes = grid_array(2, 2)
        assert eval_batch(folded, nodes) == pytest.approx(eval_batch(s, nodes))

    def test_empty_series(self):
        assert alias_fold(FourierSeries(2, {}), 3).coeffs == {}

    def test_exact_on_grid_random(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5 if n == 3 else 8))
            s = random_series(rng, n, max_modes=30)
            folded = alias_fold(s, m)
            nodes = grid_array(n, m)
            err = np.abs(eval_batch(folded, nodes) - eval_batch(s, nodes))
            assert err.max() <= 1e-9 * (1.0 + s.abs_sum())


class TestDiagonalAliasEquivalence:
    def test_coefficient_map_n1(self):
        # Exponent -r in the diagonal fold corresponds to residue m - r.
        rng = np.random.default_rng(37)
        for _ in range(10):
            s = random_series(rng, 1, max_modes=25, radius=15)
            m = int(rng.integers(2, 10))
            diag = diagonal_fold(s, m)
            alias = alias_fold(s, m)
            rebuilt = {}
            for (r, beta), a in diag.terms.items():
                rho = (beta[0] * r) % m
                rebuilt[(rho,)] = rebuilt.get((rho,), 0j) + a
            for rho in set(rebuilt) | set(alias.coeffs):
                assert rebuilt.get(rho, 0j) == pytest.approx(
                    alias.coeffs.get(rho, 0j), abs=1e-12
                )


class TestAugmentedInterpolant:
    def test_worked_example_cubic(self):
        z0 = PolyPoint((cmath.exp(1j * math.pi / 4),))
        s = FourierSeries(1, {(3,): 1.0})
        aug = augmented_interpolant(s, 2, z0)
        w = z0.z[0]
        assert aug.base.base.coeffs == {(1,): 1.0 + 0j}
        assert aug.correction == pytest.approx(w, abs=1e-12)
        assert aug.eval(z0) == pytest.approx(w**3, abs=1e-12)
        assert aug.eval(PolyPoint((1.0,))) == pytest.approx(1.0, abs=1e-12)
        assert aug.eval(PolyPoint((-1.0,))) == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_z0_falls_back_to_fold(self):
        s = FourierSeries(2, {(1, 1): 1.0, (3, 0): 2.0})
        z0 = PolyPoint((1.0, 1.0))
        aug = augmented_interpolant(s, 2, z0)
        assert aug.degenerate_z0
        assert aug.correction == 0j
        p = random_torus_point(np.random.default_rng(2), 2)
        assert aug.eval(p) == pytest.approx(aug.base.eval(p))

    def test_low_degree_is_its_own_interpolant(self):
        s = FourierSeries(1, {(1,): 1.0})
        z0 = PolyPoint((cmath.exp(0.3j),))
        for m in (2, 3, 5):
            aug = augmented_interpolant(s, m, z0, engine="alias")
            assert aug.base.base.coeffs == s.coeffs
            assert abs(aug.correction) < 1e-14

    def test_off_torus_z0_rejected(self):
        s = FourierSeries(1, {(1,): 1.0})
        with pytest.raises(ValueError):
            augmented_interpolant(s, 2, PolyPoint((1.2,)))

    def test_correction_vanishes_on_grid(self):
        for n, m in [(1, 9), (2, 6), (3, 4)]:
            assert np.max(np.abs(_grid_factor(grid_array(n, m), m))) < 1e-12

    def test_interpolates_at_z0_even_with_coverage_gap(self):
        s = FourierSeries(2, {(1, 0): 9.0})
        z0 = random_torus_point(np.random.default_rng(5), 2)
        aug = augmented_interpolant(s, 2, z0, engine="diagonal")
        assert aug.eval(z0) == pytest.approx(eval_laurent(s, z0), abs=1e-9)


class TestInterpolationAudit:
    def test_alias_exact_n2(self):
        rng = np.random.default_rng(53)
        s = random_series(rng, 2, max_modes=30)
        z0 = random_torus_point(rng, 2)
        audit = interpolation_audit(s, 3, z0, engine="alias")
        assert audit.grid_ok
        assert audit.max_grid_error < audit.tolerance

    def test_diagonal_matches_alias_n1(self):
        rng = np.random.default_rng(59)
        s = random_series(rng, 1, max_modes=30)
        z0 = random_torus_point(rng, 1)
        audit = interpolation_audit(s, 6, z0, engine="diagonal")
        assert audit.max_grid_error < 1e-9 * (1.0 + s.abs_sum())

    def test_diagonal_coverage_gap_reported(self):
        s = FourierSeries(2, {(1, 0): 9.0})
        z0 = random_torus_point(np.random.default_rng(3), 2)
        audit = interpolation_audit(s, 2, z0, engine="diagonal")
        assert audit.max_grid_error > 1.0
        assert audit.uncovered_modes == ((1, 0),)

    def test_unknown_engine_rejected(self):
        s = FourierSeries(1, {(1,): 1.0})
        z0 = PolyPoint((1j,))
        with pytest.raises(ValueError):
            interpolation_audit(s, 2, z0, engine="spline")


class TestInterpolantExport:
    def test_jsonl_roundtrip(self, tmp_path):
        from qtorus import read_coefficients, write_coefficients

        rng = np.random.default_rng(43)
        s = random_series(rng, 2, max_modes=20)
        z0 = random_torus_point(rng, 2)
        aug = augmented_interpolant(s, 3, z0, engine="alias")
        path = tmp_path / "interpolant.jsonl"
        write_coefficients(aug.base.base, path)
        back = read_coefficients(path)
        assert back.coeffs.keys() == aug.base.base.coeffs.keys()
        for k, c in aug.base.base.coeffs.items():
            assert back.coeffs[k] == pytest.approx(c)


class TestBoundAudit:
    def _profile(self, s):
        return build_profile(s, 12)

    def test_single_mode_constants_finite(self):
        s = FourierSeries(1, {(1,): 1.0})
        prof = self._profile(s)
        z0 = PolyPoint((cmath.exp(0.7j),))
        sup_cf = 0.0
        for m in range(2, 33):
            report = bound_audit(s, prof, m, 1.5, z0, n_samples=64, seed=11)
            assert math.isfinite(report.empirical_cf) and report.empirical_cf >= 0
            sup_cf = max(sup_cf, report.empirical_cf)
        assert 0 < sup_cf < 10.0

    def test_t_near_one_ratio_sane(self):
        rng = np.random.default_rng(61)
        s = random_series(rng, 1, max_modes=10, radius=5)
        prof = self._profile(s)
        z0 = random_torus_point(rng, 1)
        report = bound_audit(s, prof, 4, 1.0001, z0, n_samples=64, seed=3)
        # Near the torus the sup cannot exceed sum|c_k| by much.
        assert report.lhs_max <= 2.0 * (1.0 + s.abs_sum())
        assert math.isfinite(report.empirical_cf)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(67)
        s = random_series(rng, 2, max_modes=12, radius=4)
        prof = build_profile(s, 8)
        z0 = random_torus_point(rng, 2)
        a = bound_audit(s, prof, 3, 1.3, z0, n_samples=128, seed=5)
        b = bound_audit(s, prof, 3, 1.3, z0, n_samples=128, seed=5)
        assert a == b

    def test_t_must_exceed_one(self):
        s = FourierSeries(1, {(1,): 1.0})
        with pytest.raises(ValueError):
            bound_audit(s, self._profile(s), 2, 1.0, PolyPoint((1j,)))
