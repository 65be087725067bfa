import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtorus.interpolate as interpolate_module
from qtorus import (
    FourierSeries,
    InterpolationAudit,
    PolyPoint,
    alias_fold,
    augmented_interpolant,
    bound_audit,
    build_profile,
    diagonal_fold,
    eval_batch,
    eval_laurent,
    gen_series,
    grid_array,
    interpolation_audit,
    parse_family_spec,
)
from qtorus.interpolate import _annulus_points, _grid_factor, _node_factor, _unit_draws
from qtorus.series import GridCapError
from helpers import (
    loop_alias_fold,
    loop_diagonal_fold,
    random_series,
    random_torus_point,
    refused_count,
    rng_annulus_sups,
)


@st.composite
def fold_cases(draw):
    """(series, m): small exponents, so zero components, shared residues and
    sign-ambiguous targets are common; coefficients of very different sizes,
    so a different summation order changes the sums' bits."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radius = draw(st.sampled_from((1, 3, 12)))
    coeffs = {
        tuple(int(x) for x in rng.integers(-radius, radius + 1, size=n)): complex(
            *rng.normal(size=2)
        ) * 10.0 ** rng.uniform(-8, 8)
        for _ in range(draw(st.integers(0, 40)))
    }
    return FourierSeries(n, coeffs), draw(st.integers(1, 9))


@st.composite
def audit_cases(draw):
    """(series, m, engine, z0): a series from fold_cases or a family box,
    a grid order 2..8, either engine and a random torus point."""
    if draw(st.booleans()):
        series = draw(fold_cases())[0]
    else:
        n = draw(st.integers(1, 3))
        kind = draw(st.sampled_from(("analytic:a", "gevrey:s")))
        radius = draw(st.integers(0, (8, 6, 3)[n - 1]))
        spec = f"{kind}={draw(st.sampled_from((1, 2, 5)))}:K={radius}"
        series = gen_series(parse_family_spec(spec, dim=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 8))
    engine = draw(st.sampled_from(("alias", "diagonal")))
    return series, m, engine, random_torus_point(rng, series.dim)


def bits(mapping):
    """Each complex value as the hex of its parts: equal only if bit-identical."""
    return {k: (c.real.hex(), c.imag.hex()) for k, c in mapping.items()}


class TestDiagonalFold:
    def test_low_modes_m2(self):
        s = FourierSeries(1, {(0,): 1.0, (1,): 2.0, (2,): 3.0})
        fold = loop_diagonal_fold(s, 2)
        assert fold.terms[(0, (1,))] == pytest.approx(4.0 + 0j)
        assert fold.terms[(1, (1,))] == pytest.approx(2.0 + 0j)
        assert fold.terms[(1, (-1,))] == 0j
        assert fold.covered == {(0,), (1,), (2,)}
        assert diagonal_fold(s, 2).coeffs == {(0,): 4.0 + 0j, (1,): 2.0 + 0j}

    def test_signed_modes(self):
        s = FourierSeries(1, {(-1,): 5.0, (3,): 7.0})
        fold = loop_diagonal_fold(s, 2)
        assert fold.terms[(1, (-1,))] == pytest.approx(5.0 + 0j)
        assert fold.terms[(1, (1,))] == pytest.approx(7.0 + 0j)
        assert diagonal_fold(s, 2).coeffs == {(-1,): 5.0 + 0j, (1,): 7.0 + 0j}

    def test_two_dim_coverage_gap(self):
        s = FourierSeries(2, {(1, 1): 1.0, (1, 0): 9.0})
        fold = loop_diagonal_fold(s, 2)
        assert fold.terms[(1, (1, 1))] == pytest.approx(1.0 + 0j)
        assert (1, 0) not in fold.covered
        assert (1, 1) in fold.covered
        assert diagonal_fold(s, 2).coeffs == {(1, 1): 1.0 + 0j}

    def test_n1_covers_everything(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            s = random_series(rng, 1, max_modes=25, radius=20)
            m = int(rng.integers(1, 9))
            fold = loop_diagonal_fold(s, m)
            assert fold.covered == set(s.coeffs)

    def test_global_dedup_counts_each_mode_once(self):
        # c_0 is reachable by every (0, beta, 0): absorbed once at the
        # all-plus slot, with the other three visits recorded as collisions.
        s = FourierSeries(2, {(0, 0): 5.0})
        fold = loop_diagonal_fold(s, 3)
        total = sum(fold.terms.values())
        assert total == pytest.approx(5.0 + 0j)
        assert fold.terms[(0, (1, 1))] == pytest.approx(5.0 + 0j)
        assert len(fold.collisions) == 3
        assert all(r == 0 and l == (0, 0) for r, _, l in fold.collisions)
        assert diagonal_fold(s, 3).coeffs == {(0, 0): 5.0 + 0j}

    def test_linearity(self):
        rng = np.random.default_rng(23)
        f = random_series(rng, 1, max_modes=15)
        g = random_series(rng, 1, max_modes=15)
        m = 5
        fa = diagonal_fold(f, m)
        ga = diagonal_fold(g, m)
        combo = diagonal_fold(2.0 * f + 3j * g, m)
        expect = 2.0 * fa + 3j * ga
        for k in set(combo.coeffs) | set(expect.coeffs):
            assert combo.coeffs.get(k, 0j) == pytest.approx(expect.coeffs.get(k, 0j))

    def test_exponents_have_signed_diagonal_form(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 7))
            s = random_series(rng, n, max_modes=25, radius=9)
            folded = diagonal_fold(s, m)
            for k in folded.coeffs:
                magnitudes = {abs(x) for x in k}
                r = max(magnitudes)
                assert magnitudes <= {0, r}
                assert 0 <= r <= m - 1


class TestFoldOracles:
    @settings(max_examples=150, deadline=None)
    @given(fold_cases())
    @example((FourierSeries(3, {}), 2))
    @example((FourierSeries(3, {(0, 0, 0): 1.0, (0, -2, 0): 2.0, (4, 0, -2): 3.0}), 2))
    def test_diagonal_fold_matches_visit_loop(self, case):
        series, m = case
        got, want = diagonal_fold(series, m), loop_diagonal_fold(series, m)
        assert list(got.coeffs) == list(want.series().coeffs)
        assert bits(got.coeffs) == bits(want.series().coeffs)
        z0 = PolyPoint((cmath.exp(0.7j),) * series.dim)
        audit = interpolation_audit(series, m, z0, engine="diagonal")
        assert audit.uncovered_modes.tolist() == [list(k) for k in series.coeffs if k not in want.covered]

    @settings(max_examples=100, deadline=None)
    @given(fold_cases())
    def test_alias_fold_matches_mode_loop(self, case):
        series, m = case
        got, want = alias_fold(series, m), loop_alias_fold(series, m)
        assert list(got.coeffs) == list(want.coeffs)
        assert bits(got.coeffs) == bits(want.coeffs)


class TestEvalDiagonalPoly:
    """The diagonal fold evaluated as a series, each distinct monomial once."""

    def test_single_low_mode_passthrough(self):
        fold = diagonal_fold(FourierSeries(1, {(1,): 1.0}), 2)
        assert eval_laurent(fold, PolyPoint((1j,))) == pytest.approx(1j)

    def test_alias_of_high_mode_at_plus_one(self):
        fold = diagonal_fold(FourierSeries(1, {(3,): 1.0}), 2)
        assert eval_laurent(fold, PolyPoint((1.0,))) == pytest.approx(1.0)

    def test_alias_of_high_mode_at_minus_one(self):
        fold = diagonal_fold(FourierSeries(1, {(3,): 1.0}), 2)
        assert eval_laurent(fold, PolyPoint((-1.0,))) == pytest.approx(-1.0)


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
            for (e,), a in diag.coeffs.items():
                rho = e % m
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
        assert aug.base.coeffs == {(1,): 1.0 + 0j}
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
        assert aug.eval(p) == pytest.approx(eval_laurent(aug.base, p))

    def test_low_degree_is_its_own_interpolant(self):
        s = FourierSeries(1, {(1,): 1.0})
        z0 = PolyPoint((cmath.exp(0.3j),))
        for m in (2, 3, 5):
            aug = augmented_interpolant(s, m, z0, engine="alias")
            assert aug.base.coeffs == s.coeffs
            # The fold leaves the one mode in place: its z0 terms cancel exactly.
            assert aug.correction == 0

    def test_off_torus_z0_rejected(self):
        s = FourierSeries(1, {(1,): 1.0})
        with pytest.raises(ValueError):
            augmented_interpolant(s, 2, PolyPoint((1.2,)))

    def test_z0_error_past_the_float_range_is_inf(self):
        # At the node z0 = (1, 1) the fold is degenerate, and the residual is
        # the two uncovered modes' sum, 1.3e308 (1 + i): its modulus is past
        # the float range, so the builtin abs would raise OverflowError.
        s = FourierSeries(2, {(1, 2): 1.3e308, (2, 1): 1.3e308j})
        audit = interpolation_audit(s, 2, PolyPoint((1.0, 1.0)), engine="diagonal")
        assert audit.interpolant.degenerate_z0
        assert audit.z0_error == math.inf
        # Its moduli also sum past the float range, so the tolerance is inf,
        # which no error can pass: inf <= inf must not read as exact.
        assert audit.tolerance == math.inf
        assert audit.grid_ok is False

    def test_correction_vanishes_on_grid(self):
        for n, m in [(1, 9), (2, 6), (3, 4)]:
            assert np.max(np.abs(_grid_factor(grid_array(n, m), m))) < 1e-12

    @pytest.mark.parametrize(
        "n, ms", [(1, (1, 2, 3, 7, 64, 100, 101, 1000)), (2, (1, 2, 5, 40, 128)), (3, (1, 2, 3, 9, 20))]
    )
    def test_node_factor_bits_equal_the_factor_at_the_nodes(self, n, ms):
        # m = 1 and 2 take numpy's copy and square shortcuts, m >= 100 its
        # general complex power; each is elementwise.
        for m in ms:
            assert _node_factor(n, m).tobytes() == _grid_factor(grid_array(n, m), m).tobytes(), m

    def test_node_factor_refuses_a_grid_past_the_cap(self, monkeypatch):
        monkeypatch.setenv("QTORUS_GRID_CAP", "100")
        with pytest.raises(GridCapError):
            _node_factor(2, 11)

    def test_interpolates_at_z0_even_with_coverage_gap(self):
        s = FourierSeries(2, {(1, 0): 9.0})
        z0 = random_torus_point(np.random.default_rng(5), 2)
        aug = augmented_interpolant(s, 2, z0, engine="diagonal")
        assert aug.eval(z0) == pytest.approx(eval_laurent(s, z0), abs=1e-9)


class TestInterpolationAudit:
    @pytest.mark.parametrize(
        "grid_error, z0_error, tolerance, ok",
        [
            (0.0, 0.0, 1e-9, True),
            (1e-9, 1e-9, 1e-9, True),
            (2e-9, 0.0, 1e-9, False),
            (0.0, math.inf, 1e-9, False),
            (0.0, 0.0, math.inf, False),
            (math.inf, math.inf, math.inf, False),
            (0.0, 0.0, math.nan, False),
        ],
        ids=["exact", "at-tolerance", "grid-past", "z0-inf", "tolerance-inf", "all-inf",
             "tolerance-nan"],
    )
    def test_grid_ok_needs_a_finite_tolerance_both_errors_meet(
        self, grid_error, z0_error, tolerance, ok
    ):
        base = interpolation_audit(FourierSeries(1, {(1,): 1.0}), 2, PolyPoint((1j,)))
        audit = InterpolationAudit(
            base.interpolant, grid_error, z0_error, tolerance, base.uncovered_modes
        )
        assert audit.grid_ok is ok

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
        assert audit.uncovered_modes.tolist() == [[1, 0]]

    @settings(max_examples=150, deadline=None)
    @given(audit_cases())
    def test_grid_error_matches_brute_force(self, case):
        # The audit takes the grid error from the residual identity; the
        # brute force evaluates interpolant and series at every node.
        series, m, engine, z0 = case
        audit = interpolation_audit(series, m, z0, engine=engine)
        nodes = grid_array(series.dim, m)
        brute = np.abs(audit.interpolant.eval_batch(nodes) - eval_batch(series, nodes)).max()
        slack = 1e-12 * (1.0 + series.abs_sum())
        assert abs(audit.max_grid_error - brute) <= slack
        if abs(brute - audit.tolerance) > slack:
            tol = audit.tolerance
            assert audit.grid_ok == (brute <= tol and audit.z0_error <= tol)

    def test_near_interpolating_correction_against_mpmath(self):
        # Shaped like an analytic n = 3 job at m = 9: c_0 = 1 and every other
        # mode at most e^-35 ~ 6e-16, so the alias fold nearly interpolates
        # at z0.  A residual f(z0) - fold(z0) taken as a difference of two
        # sums of size ~1 would be rounding noise of the size of the
        # correction itself.
        mpmath = pytest.importorskip("mpmath")
        series = gen_series(parse_family_spec("analytic:a=35:K=3", dim=3))
        m, z0 = 9, PolyPoint((cmath.exp(0.7j),) * 3)
        audit = interpolation_audit(series, m, z0, engine="alias")
        with mpmath.workdps(60):
            w = [mpmath.mpc(z.real, z.imag) for z in z0.z]

            def monomial(k):
                return mpmath.fprod(wp**kp for wp, kp in zip(w, k))

            residual = mpmath.fsum(
                mpmath.mpc(c.real, c.imag) * (monomial(k) - monomial([kp % m for kp in k]))
                for k, c in series.coeffs.items()
            )
            denom = mpmath.fsum(wp**m for wp in w) - 3
            got = mpmath.mpc(audit.interpolant.correction)
            assert abs(got - residual / denom) <= 1e-13 * abs(residual / denom)
            # The pinned interpolant's true error at z0, and the reported
            # one, are at the rounding level of the residual (~1e-15).
            assert abs(denom * got - residual) <= 1e-13 * abs(residual)
            assert audit.z0_error <= 1e-13 * abs(residual)

    def test_eval_grid_runs_only_on_uncovered_modes(self, monkeypatch):
        calls = []

        def recorded(series, m, _eval_grid=interpolate_module.eval_grid):
            calls.append(series)
            return _eval_grid(series, m)

        monkeypatch.setattr(interpolate_module, "eval_grid", recorded)
        rng = np.random.default_rng(71)
        s = random_series(rng, 2, max_modes=30)
        z0 = random_torus_point(rng, 2)
        assert interpolation_audit(s, 5, z0, engine="alias").grid_ok
        assert calls == []
        audit = interpolation_audit(s, 5, z0, engine="diagonal")
        assert [list(c.coeffs) for c in calls] == [list(map(tuple, audit.uncovered_modes.tolist()))]

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
        write_coefficients(aug.base, path)
        back = read_coefficients(path)
        assert back.coeffs.keys() == aug.base.coeffs.keys()
        for k, c in aug.base.coeffs.items():
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
            report = bound_audit(augmented_interpolant(s, m, z0), prof, 1.5, n_samples=64, seed=11)
            assert math.isfinite(report.empirical_cf) and report.empirical_cf >= 0
            sup_cf = max(sup_cf, report.empirical_cf)
        assert 0 < sup_cf < 10.0

    def test_t_near_one_ratio_sane(self):
        rng = np.random.default_rng(61)
        s = random_series(rng, 1, max_modes=10, radius=5)
        prof = self._profile(s)
        z0 = random_torus_point(rng, 1)
        report = bound_audit(augmented_interpolant(s, 4, z0), prof, 1.0001, n_samples=64, seed=3)
        # Near the torus the sup cannot exceed sum|c_k| by much.
        assert report.lhs_max <= 2.0 * (1.0 + s.abs_sum())
        assert math.isfinite(report.empirical_cf)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(67)
        s = random_series(rng, 2, max_modes=12, radius=4)
        prof = build_profile(s, 8)
        z0 = random_torus_point(rng, 2)
        a = bound_audit(augmented_interpolant(s, 3, z0), prof, 1.3, n_samples=128, seed=5)
        b = bound_audit(augmented_interpolant(s, 3, z0), prof, 1.3, n_samples=128, seed=5)
        assert a == b

    def test_t_must_exceed_one(self):
        s = FourierSeries(1, {(1,): 1.0})
        with pytest.raises(ValueError):
            bound_audit(augmented_interpolant(s, 2, PolyPoint((1j,))), self._profile(s), 1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_t_must_be_finite(self, t):
        s = FourierSeries(1, {(1,): 1.0})
        aug = augmented_interpolant(s, 2, PolyPoint((1j,)))
        with pytest.raises(ValueError, match="t must be finite and > 1"):
            bound_audit(aug, self._profile(s), t)

    def test_overflowing_samples_read_non_finite_without_a_warning(self):
        # |z|^64 reaches 1e320 at t = 1e5: past the float range.
        s = FourierSeries(1, {(65,): 1.0})
        aug = augmented_interpolant(s, 64, PolyPoint((cmath.exp(0.7j),)))
        report = bound_audit(aug, self._profile(s), 1e5, n_samples=16, seed=1)
        assert not math.isfinite(report.correction_max)
        assert not math.isfinite(report.lhs_max)
        assert math.isfinite(report.base_max)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_samples_must_be_positive(self, n_samples):
        s = FourierSeries(1, {(1,): 1.0})
        aug = augmented_interpolant(s, 2, PolyPoint((1j,)))
        with pytest.raises(ValueError, match=refused_count("n_samples", n_samples)):
            bound_audit(aug, self._profile(s), 1.5, n_samples=n_samples)

    def test_seed_must_be_non_negative(self):
        s = FourierSeries(1, {(1,): 1.0})
        aug = augmented_interpolant(s, 2, PolyPoint((1j,)))
        with pytest.raises(ValueError, match=refused_count("seed", -1, least=0)):
            bound_audit(aug, self._profile(s), 1.5, seed=-1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_samples_are_stdlib_random_uniform_draws(self, n):
        # The sups match, bit for bit, those over the samples the stdlib's
        # random.Random(seed).uniform gives, for one seed at several t and
        # for other seeds between them.
        s = random_series(np.random.default_rng(73 + n), n, max_modes=12, radius=4)
        prof = build_profile(s, 8)
        aug = augmented_interpolant(s, 5, random_torus_point(np.random.default_rng(79), n))
        for seed, t in [(7, 1.25), (7, 1.5), (7, 3.0), (2**100 + 9, 1.25), (7, 1.1), (0, 1e5)]:
            report = bound_audit(aug, prof, t, n_samples=97, seed=seed)
            got = (report.lhs_max, report.base_max, report.correction_max)
            expected = rng_annulus_sups(aug, t, 97, seed)
            assert [x.hex() for x in got] == [x.hex() for x in expected], (seed, t)


class TestUnitDraws:
    """``_unit_draws`` against its oracle, ``random.Random(seed).random``."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**200), count=st.integers(1, 3000))
    @example(seed=0, count=1)
    @example(seed=7, count=2)
    @example(seed=2**32, count=3)
    @example(seed=2**128 + 5, count=2**16 + 1)
    @example(seed=2**200, count=2**16 - 1)
    def test_bit_for_bit_stdlib_stream(self, seed, count):
        rng = random.Random(seed)
        expected = np.array([rng.random() for _ in range(count)])
        assert _unit_draws(seed, count).tobytes() == expected.tobytes()

    def test_golden_first_draws(self):
        # Pins the stream itself: CPython keeps random.Random(seed).random()
        # the same across versions for an integer seed.
        assert [x.hex() for x in _unit_draws(7, 4).tolist()] == [
            "0x1.4b9ad0f953a6ep-2",
            "0x1.34f0696513270p-3",
            "0x1.4d474883171ffp-1",
            "0x1.28b2f3a47e100p-4",
        ]

    def test_annulus_points_lie_in_the_annulus(self):
        points = _annulus_points(11, 20, 2, 1.25)
        assert points.shape == (20, 2)
        moduli = np.abs(points)
        assert np.all((moduli >= 1 / 1.25 - 1e-15) & (moduli <= 1.25 + 1e-15))

    @pytest.mark.parametrize(
        "draw",
        [lambda: _unit_draws(11, 40), lambda: _annulus_points(11, 20, 2, 1.25)],
        ids=["unit_draws", "annulus_points"],
    )
    def test_each_call_returns_a_fresh_array(self, draw):
        # Nothing is kept between calls: writing into one result leaves the
        # next call's draw as it was.
        first = draw()
        want = first.tobytes()
        first[...] = 0.5
        second = draw()
        assert second is not first and second.tobytes() == want
