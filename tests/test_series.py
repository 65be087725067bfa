import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtorus.series as series_module
from qtorus import (
    FourierSeries,
    GridCapError,
    PolyPoint,
    TorusPoint,
    eval_batch,
    eval_grid,
    eval_laurent,
    grid_array,
    read_coefficients,
    truncate,
    write_coefficients,
)
from helpers import (
    brute_eval,
    brute_eval_scale,
    grid_nodes,
    random_series,
    random_torus_point,
    torus_eval,
)


def eval_at_angles(series, theta):
    return eval_laurent(series, TorusPoint(theta).point())


class TestEvalTorus:
    def test_constant_mode(self):
        s = FourierSeries(1, {(0,): 1.0})
        assert eval_at_angles(s, (1.7,)) == pytest.approx(1.0 + 0j)

    def test_single_mode_quarter_turn(self):
        s = FourierSeries(1, {(1,): 1.0})
        assert eval_at_angles(s, (math.pi / 2,)) == pytest.approx(1j)

    def test_two_dim_phase_cancellation(self):
        s = FourierSeries(2, {(1, -2): 2.0})
        got = eval_at_angles(s, (math.pi, math.pi / 2))
        assert got == pytest.approx(2.0 + 0j)

    def test_dimension_mismatch(self):
        s = FourierSeries(2, {(1, 0): 1.0})
        with pytest.raises(ValueError):
            eval_at_angles(s, (0.5,))


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
            a = torus_eval(s, p.theta)
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


@st.composite
def eval_cases(draw):
    """(series, points, block): a sparse series with negative exponents,
    points on or off the torus, and a working block small enough that the
    points span at least two chunks."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radius = draw(st.sampled_from((2, 15, 130)))
    n_modes = draw(st.integers(1, 40))
    coeffs = {
        tuple(int(x) for x in rng.integers(-radius, radius + 1, size=n)): complex(
            *rng.normal(size=2)
        )
        for _ in range(n_modes)
    }
    series = FourierSeries(n, coeffs)
    block = draw(st.integers(1, 64))
    rows = max(1, block // max(series.n_modes, 1))
    count = draw(st.integers(2 * rows, 2 * rows + 20))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(count, n))
    if draw(st.booleans()):
        moduli = np.ones((count, n))
    else:
        moduli = rng.uniform(0.5, 2.0, size=(count, n))
    return series, moduli * np.exp(1j * phases), block


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

    @settings(max_examples=80, deadline=None)
    @given(eval_cases())
    @example((FourierSeries(2, {}), np.ones((3, 2), dtype=complex), 1))
    @example((FourierSeries(1, {(-3,): 2.0, (0,): 1j, (4,): -1.0}), np.full((5, 1), 0.5 + 0j), 1))
    def test_matches_brute_force(self, case):
        series, points, block = case
        with mock.patch.object(series_module, "EVAL_BLOCK", block):
            got = eval_batch(series, points)
        assert got.shape == (len(points),)
        for row, val in zip(points, got):
            scale = brute_eval_scale(series, row)
            assert abs(val - brute_eval(series, row)) <= 1e-12 * scale

    def test_chunk_boundaries_at_default_block(self):
        # 1000 modes x 600 points spans three chunks of EVAL_BLOCK elements.
        rng = np.random.default_rng(7)
        s = random_series(rng, 2, max_modes=1000, radius=60)
        s = s + FourierSeries(2, {(k, -k): 1.0 for k in range(-500, 500)})
        pts = np.array([random_torus_point(rng, 2).z for _ in range(600)], dtype=complex)
        rows = series_module.EVAL_BLOCK // s.n_modes
        assert len(pts) > 2 * rows
        batch = eval_batch(s, pts)
        for i in (0, rows - 1, rows, 2 * rows - 1, 2 * rows, len(pts) - 1):
            assert abs(batch[i] - brute_eval(s, pts[i])) <= 1e-12 * brute_eval_scale(s, pts[i])

    def test_empty_series(self):
        s = FourierSeries(1, {})
        assert np.all(eval_batch(s, np.ones((4, 1), dtype=complex)) == 0)

    @pytest.mark.parametrize(
        "points",
        [
            np.array([[1.0, 0.0]], dtype=complex),  # a zero component
            np.ones(2, dtype=complex),  # not two-dimensional
            np.ones((3, 1), dtype=complex),  # wrong dimension
            np.ones((3, 3), dtype=complex),
        ],
    )
    def test_rejects_bad_points(self, points):
        s = FourierSeries(2, {(1, -1): 1.0})
        with pytest.raises(ValueError):
            eval_batch(s, points)


@st.composite
def grid_cases(draw):
    """(series, m, block): a sparse series with negative exponents, a grid
    order and a working block small enough that each level spans several
    row blocks."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radius = draw(st.sampled_from((2, 15, 130)))
    coeffs = {
        tuple(int(x) for x in rng.integers(-radius, radius + 1, size=n)): complex(
            *rng.normal(size=2)
        )
        for _ in range(draw(st.integers(1, 30)))
    }
    return FourierSeries(n, coeffs), m, draw(st.integers(1, 64))


class TestEvalGrid:
    @settings(max_examples=100, deadline=None)
    @given(grid_cases())
    @example((FourierSeries(2, {}), 3, 1))
    @example((FourierSeries(3, {(-4, 0, 7): 2.0, (1, 1, 1): 1j, (0, 0, 0): -1.0}), 1, 1))
    def test_matches_brute_force(self, case):
        series, m, block = case
        with mock.patch.object(series_module, "EVAL_BLOCK", block):
            got = eval_grid(series, m)
        nodes = grid_nodes(series.dim, m)
        assert got.shape == (len(nodes),)
        want = np.array([brute_eval(series, z) for z in nodes])
        assert np.max(np.abs(got - want)) <= 1e-12 * series.abs_sum()

    def test_levels_bounded_by_grid_not_modes(self):
        # 3000 modes with distinct k_1 but only m = 64 residues of k_1: the
        # level after contracting k_2 holds at most 64 x 64 partial sums.
        # Merging by raw prefix instead would hold 3000 x 64 (3 MB).
        rng = np.random.default_rng(11)
        k1 = rng.choice(np.arange(-3000, 3001), size=3000, replace=False)
        k2 = rng.integers(-50, 51, size=3000)
        s = FourierSeries(2, {(int(a), int(b)): 1.0 for a, b in zip(k1, k2)})
        s._exponents, s._values  # cached inputs are not working memory
        m, block = 64, 64
        with mock.patch.object(series_module, "EVAL_BLOCK", block):
            tracemalloc.start()
            try:
                eval_grid(s, m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # Per-mode index arrays plus a few arrays of max(block, m^n) elements.
        assert peak < 200 * s.n_modes + 8 * 16 * max(block, m**2)

    def test_cap_enforced_like_grid_array(self, monkeypatch):
        s = FourierSeries(2, {(1, -1): 1.0})
        with pytest.raises(GridCapError):
            eval_grid(s, 11, cap=100)
        monkeypatch.setenv("QTORUS_GRID_CAP", "99")
        with pytest.raises(GridCapError):
            eval_grid(s, 10)
        assert eval_grid(s, 10, cap=100).shape == (100,)
        with pytest.raises(ValueError):
            eval_grid(s, 0)


class TestGridPoints:
    """Roots-of-unity nodes from ``grid_array``."""

    def test_n1_m2(self):
        assert sorted(grid_array(1, 2)[:, 0].real) == pytest.approx([-1.0, 1.0])

    def test_n2_m1(self):
        nodes = grid_array(2, 1)
        assert nodes.shape == (1, 2)
        # l = m = 1 is e^{2 pi i}: 1 up to the rounding of 2 pi.
        assert np.allclose(nodes, 1.0, rtol=0.0, atol=1e-15)

    def test_n2_m2_four_sign_points(self):
        got = [(round(a.real), round(b.real)) for a, b in grid_array(2, 2)]
        # Lexicographic in (l_1, l_2) with l_p = 1, 2: -1 before +1.
        assert got == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_count_and_roots_of_unity(self):
        for n, m in [(1, 7), (2, 5), (3, 4)]:
            nodes = grid_array(n, m)
            assert nodes.shape == (m**n, n)
            keys = {tuple((round(z.real, 9), round(z.imag, 9)) for z in row) for row in nodes}
            assert len(keys) == m**n
            assert np.max(np.abs(nodes**m - 1.0)) < 1e-12

    def test_cap_enforced(self):
        with pytest.raises(GridCapError):
            grid_array(3, 8, cap=100)
        assert grid_array(3, 8, cap=512).shape == (512, 3)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("QTORUS_GRID_CAP", "10")
        with pytest.raises(GridCapError):
            grid_array(2, 4)
        monkeypatch.setenv("QTORUS_GRID_CAP", "16")
        assert len(grid_array(2, 4)) == 16

    def test_grid_array_order(self):
        for n, max_m in ((1, 200), (2, 40), (3, 12)):
            for m in range(1, max_m + 1):
                assert grid_array(n, m).tobytes() == grid_nodes(n, m).tobytes(), (n, m)

    def test_rejects_nonpositive_sizes(self):
        for n, m in ((0, 3), (2, 0)):
            with pytest.raises(ValueError):
                grid_array(n, m)


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
