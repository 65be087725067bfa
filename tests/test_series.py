import math

import numpy as np
import pytest

from qtorus import (
    FourierSeries,
    GridCapError,
    PolyPoint,
    TorusPoint,
    eval_batch,
    eval_laurent,
    eval_torus,
    grid_array,
    grid_points,
    read_coefficients,
    truncate,
    write_coefficients,
)
from helpers import brute_eval, random_series, random_torus_point


class TestEvalTorus:
    def test_constant_mode(self):
        s = FourierSeries(1, {(0,): 1.0})
        assert eval_torus(s, TorusPoint((1.7,))) == pytest.approx(1.0 + 0j)

    def test_single_mode_quarter_turn(self):
        s = FourierSeries(1, {(1,): 1.0})
        assert eval_torus(s, TorusPoint((math.pi / 2,))) == pytest.approx(1j)

    def test_two_dim_phase_cancellation(self):
        s = FourierSeries(2, {(1, -2): 2.0})
        got = eval_torus(s, TorusPoint((math.pi, math.pi / 2)))
        assert got == pytest.approx(2.0 + 0j)

    def test_dimension_mismatch(self):
        s = FourierSeries(2, {(1, 0): 1.0})
        with pytest.raises(ValueError):
            eval_torus(s, TorusPoint((0.5,)))


class TestEvalLaurent:
    def test_positive_power(self):
        s = FourierSeries(1, {(1,): 1.0})
        assert eval_laurent(s, PolyPoint((2.0,))) == pytest.approx(2.0)

    def test_negative_power(self):
        s = FourierSeries(1, {(-1,): 1.0})
        assert eval_laurent(s, PolyPoint((2.0,))) == pytest.approx(0.5)

    def test_two_dim_hand_value(self):
        s = FourierSeries(2, {(1, 1): 1.0, (-1, 0): 3.0})
        got = eval_laurent(s, PolyPoint((2.0, 0.5)))
        assert got == pytest.approx(2.5)

    def test_zero_component_rejected(self):
        with pytest.raises(ValueError):
            PolyPoint((0.0, 1.0))

    def test_matches_torus_on_unit_modulus(self):
        rng = np.random.default_rng(1234)
        for _ in range(30):
            dim = int(rng.integers(1, 4))
            s = random_series(rng, dim, max_modes=50)
            p = TorusPoint(tuple(rng.uniform(0, 2 * math.pi, size=dim)))
            a = eval_torus(s, p)
            b = eval_laurent(s, p.point())
            scale = 1.0 + abs(a)
            assert abs(a - b) / scale < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            dim = int(rng.integers(1, 4))
            f = random_series(rng, dim, max_modes=20)
            g = random_series(rng, dim, max_modes=20)
            a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            p = random_torus_point(rng, dim)
            lhs = eval_laurent(a * f + b * g, p)
            rhs = a * eval_laurent(f, p) + b * eval_laurent(g, p)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


class TestEvalBatch:
    def test_matches_pointwise(self):
        rng = np.random.default_rng(7)
        s = random_series(rng, 2, max_modes=25)
        pts = np.array(
            [random_torus_point(rng, 2).z for _ in range(16)], dtype=complex
        )
        batch = eval_batch(s, pts)
        for row, val in zip(pts, batch):
            assert abs(val - brute_eval(s, row)) < 1e-11 * (1 + abs(val))

    def test_empty_series(self):
        s = FourierSeries(1, {})
        assert np.all(eval_batch(s, np.ones((4, 1), dtype=complex)) == 0)


class TestGridPoints:
    def test_n1_m2(self):
        pts = sorted(p.z[0].real for p in grid_points(1, 2))
        assert pts == pytest.approx([-1.0, 1.0])

    def test_n2_m1(self):
        pts = grid_points(2, 1)
        assert len(pts) == 1
        assert pts[0].z == pytest.approx((1.0 + 0j, 1.0 + 0j))

    def test_n2_m2_four_sign_points(self):
        got = {
            (round(p.z[0].real), round(p.z[1].real)) for p in grid_points(2, 2)
        }
        assert got == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_count_and_roots_of_unity(self):
        for n, m in [(1, 7), (2, 5), (3, 4)]:
            pts = grid_points(n, m)
            assert len(pts) == m**n
            seen = set()
            for p in pts:
                key = tuple((round(z.real, 9), round(z.imag, 9)) for z in p.z)
                assert key not in seen
                seen.add(key)
                for z in p.z:
                    assert abs(z**m - 1.0) < 1e-12

    def test_cap_enforced(self):
        with pytest.raises(GridCapError):
            grid_points(3, 8, cap=100)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("QTORUS_GRID_CAP", "10")
        with pytest.raises(GridCapError):
            grid_points(2, 4)
        monkeypatch.setenv("QTORUS_GRID_CAP", "16")
        assert len(grid_points(2, 4)) == 16

    def test_grid_array_order(self):
        pts = grid_points(2, 3)
        arr = grid_array(2, 3)
        assert np.allclose(arr, np.array([p.z for p in pts]))


class TestTruncate:
    def test_drops_outside_radius(self):
        s = FourierSeries(1, {(0,): 1.0, (5,): 1.0})
        assert set(truncate(s, 3).coeffs) == {(0,)}

    def test_identity_when_radius_covers(self):
        rng = np.random.default_rng(5)
        s = random_series(rng, 2, max_modes=12)
        assert truncate(s, s.support_radius()).coeffs == s.coeffs

    def test_componentwise_max(self):
        s = FourierSeries(2, {(2, -4): 1.0, (1, 1): 2.0})
        assert set(truncate(s, 2).coeffs) == {(1, 1)}

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            truncate(FourierSeries(1, {(0,): 1.0}), -1)


class TestSeriesConstruction:
    def test_prunes_tiny_coefficients(self):
        s = FourierSeries(1, {(0,): 1.0, (1,): 1e-310})
        assert set(s.coeffs) == {(0,)}

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            FourierSeries(2, {(1,): 1.0})

    def test_rejects_fractional_index(self):
        with pytest.raises(ValueError):
            FourierSeries(1, {(1.5,): 1.0})

    @pytest.mark.parametrize(
        "c", [math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(0.0, -math.inf)]
    )
    def test_rejects_non_finite_coefficient(self, c):
        with pytest.raises(ValueError, match="not finite"):
            FourierSeries(1, {(0,): 1.0, (2,): c})

    def test_angles_normalized(self):
        p = TorusPoint((-math.pi, 3 * math.pi))
        assert all(0.0 <= t < 2 * math.pi for t in p.theta)
        assert p.theta == pytest.approx((math.pi, math.pi))


class TestCoefficientIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        s = random_series(rng, 2, max_modes=15)
        path = tmp_path / "coeffs.jsonl"
        write_coefficients(s, path)
        back = read_coefficients(path)
        assert back.dim == s.dim
        assert set(back.coeffs) == set(s.coeffs)
        for k in s.coeffs:
            assert back.coeffs[k] == pytest.approx(s.coeffs[k])

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"k": [1], "re": 1.0, "im": 0.0}\n{"k": [1], "re": 2.0, "im": 0.0}\n'
        )
        with pytest.raises(ValueError, match="duplicate index"):
            read_coefficients(path)

    def test_nan_coefficient_rejected(self, tmp_path):
        path = tmp_path / "nan.jsonl"
        path.write_text('{"k": [0], "re": 1.0, "im": 0.0}\n{"k": [1], "re": NaN, "im": 0.0}\n')
        with pytest.raises(ValueError, match="not finite"):
            read_coefficients(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"k": [1], "re": 1.0}\n')
        with pytest.raises(ValueError, match="need fields"):
            read_coefficients(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "mix.jsonl"
        path.write_text(
            '{"k": [1, 2], "re": 1.0, "im": 0.0}\n{"k": [1], "re": 1.0, "im": 0.0}\n'
        )
        with pytest.raises(ValueError):
            read_coefficients(path)
