import cmath
import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtorus.series as series_module
from qtorus.series import check_power, check_size
from qtorus import (
    FourierSeries,
    GridCapError,
    PolyPoint,
    augmented_interpolant,
    eval_batch,
    eval_grid,
    eval_laurent,
    grid_array,
    read_coefficients,
    write_coefficients,
)
from helpers import (
    brute_eval,
    brute_eval_scale,
    dict_series_coeffs,
    grid_nodes,
    json_write_coefficients,
    loop_read_coefficients,
    random_series,
    random_torus_point,
    torus_eval,
    torus_point,
)


def bits(values) -> bytes:
    return np.array(list(values), dtype=complex).tobytes()


def eval_at_angles(series, theta):
    return eval_laurent(series, torus_point(theta))


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

    def test_torus_points_keep_their_bits(self):
        # Pinned bits: c01 and every other randomised test draws its torus
        # points through these helpers, so their inputs hang on these values.
        rng = np.random.default_rng(2024)
        drawn = [np.array(random_torus_point(rng, dim).z).tobytes().hex() for dim in (1, 2, 3)]
        assert drawn == [
            "acac5f73d3c1dcbfd69aacc77396ecbf",
            "6cb5ad8a0a74cc3f98e050e10933ef3f12b5d74cde5ad7bff003d91611cbed3f",
            "b0225254a292d33f202c09d38077eebf64755b8b26fdef3f7ae158f68e019bbf"
            "f90dc8ebc00ce43f3d6c0c60a5f0e83f",
        ]
        pinned = {
            (-math.pi, 3 * math.pi): "000000000000f0bf075c143326a6a13c000000000000f0bf075c143326a6a13c",
            (7.0, -1.0): "1620d99ef71fe83f0a0a6dc20806e53f8a06b50f284ae13fef0c098f54edeabf",
            (2 * math.pi, -1e-300): "000000000000f03f0000000000000000000000000000f03f075c143326a6b1bc",
        }
        for theta, want in pinned.items():
            assert np.array(torus_point(theta).z).tobytes().hex() == want, theta

    def test_on_torus_tolerance(self):
        assert PolyPoint((1.0 + 0.5e-9, -1j)).on_torus()
        assert not PolyPoint((1.0 + 2e-9, -1j)).on_torus()


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
            theta = tuple(rng.uniform(0, 2 * math.pi, size=dim))
            a = torus_eval(s, theta)
            b = eval_laurent(s, torus_point(theta))
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


def annulus_case():
    """(series, points, block): the fold an n = 2 audit samples at m = 40,
    1600 modes with exponents 0..39, at 256 points of 1/1.25 <= |z_p| <= 1.25."""
    rng = np.random.default_rng(40)
    k = np.indices((40, 40)).reshape(2, -1).T
    series = FourierSeries.from_arrays(2, k, rng.normal(size=1600) + 1j * rng.normal(size=1600))
    moduli = rng.uniform(1 / 1.25, 1.25, size=(256, 2))
    return series, moduli * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(256, 2))), 1


def hex_parts(values) -> list:
    """The hex of the real and the imaginary part of each value."""
    values = np.asarray(values, dtype=complex)
    return list(zip(map(float.hex, values.real.tolist()), map(float.hex, values.imag.tolist())))


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

    @settings(max_examples=60, deadline=None)
    @given(eval_cases())
    @example(annulus_case())
    @example((FourierSeries(2, {}), np.ones((3, 2), dtype=complex), 1))
    # One mode: a lone point's products have one element each unless the
    # row has a spare slot, and numpy rounds those differently.
    @example(
        (
            FourierSeries(1, {(2,): -0.1321048632913019 + 0.6404226504432821j}),
            np.array([[1.85906402 + 0.19375371j], [0.5458637 - 1.30000083j]]),
            1,
        )
    )
    def test_bits_independent_of_block_and_batch(self, case):
        # A value depends on its point and the series only: not on the
        # block, on the other rows of its chunk or on a BLAS build.
        series, points, _ = case
        want = hex_parts(eval_batch(series, points))
        for block in (1, 7, 64, 2**10, series_module.EVAL_BLOCK, 2**22):
            with mock.patch.object(series_module, "EVAL_BLOCK", block):
                assert hex_parts(eval_batch(series, points)) == want
        alone = [eval_batch(series, row[None])[0] for row in points]
        assert hex_parts(alone) == want
        one_point = [eval_laurent(series, PolyPoint(tuple(row))) for row in points]
        assert hex_parts(one_point) == want
        aug = augmented_interpolant(series, 3, PolyPoint((cmath.exp(0.7j),) * series.dim))
        one_point = [aug.eval(PolyPoint(tuple(row))) for row in points]
        assert hex_parts(one_point) == hex_parts(aug.eval_batch(points))

    def test_working_set_bounded_by_block(self):
        # One audit's annulus sample at n = 2, m = 40: the working set is a
        # few blocks, whatever the number of points.
        series, points, _ = annulus_case()
        series._exponent_tables, series._values  # cached inputs are not working memory
        tracemalloc.start()
        try:
            eval_batch(series, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = 3 * 16 * max(series_module.EVAL_BLOCK, series.n_modes)
        assert peak < blocks + 16 * len(points) + 8 * series.dim * series.n_modes

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
def grid_cases(draw, m_min=1):
    """(series, m, block): a sparse series with negative exponents, a grid
    order and a working block small enough that each level spans several
    row blocks."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(m_min, 12))
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

    @settings(max_examples=60, deadline=None)
    @given(grid_cases(m_min=2))
    def test_bits_independent_of_block(self, case):
        # Each value adds its rows one by one in a fixed order and each
        # product rounds the same in every kernel, so no block size moves a bit.
        series, m, _ = case
        want = hex_parts(eval_grid(series, m))
        for block in (1, 7, 64, 2**10, 2**18):
            with mock.patch.object(series_module, "EVAL_BLOCK", block):
                assert hex_parts(eval_grid(series, m)) == want

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
        monkeypatch.setenv("QTORUS_GRID_CAP", "100")
        with pytest.raises(GridCapError):
            eval_grid(s, 11)
        assert eval_grid(s, 10).shape == (100,)
        monkeypatch.setenv("QTORUS_GRID_CAP", "99")
        with pytest.raises(GridCapError):
            eval_grid(s, 10)
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

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("QTORUS_GRID_CAP", "100")
        with pytest.raises(GridCapError):
            grid_array(3, 8)
        monkeypatch.setenv("QTORUS_GRID_CAP", "512")
        assert grid_array(3, 8).shape == (512, 3)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("QTORUS_GRID_CAP", "10")
        with pytest.raises(GridCapError):
            grid_array(2, 4)
        monkeypatch.setenv("QTORUS_GRID_CAP", "16")
        assert len(grid_array(2, 4)) == 16

    def test_check_size_names_the_count_and_reads_the_cap_at_each_call(self, monkeypatch):
        monkeypatch.delenv("QTORUS_GRID_CAP", raising=False)
        assert check_size(10**6, "widgets") == 10**6
        with pytest.raises(GridCapError, match=r"^1000001 widgets exceed the cap of 1000000 "):
            check_size(10**6 + 1, "widgets")
        monkeypatch.setenv("QTORUS_GRID_CAP", "10")
        with pytest.raises(GridCapError, match=r"^11 widgets exceed the cap of 10 "):
            check_size(11, "widgets")

    def test_check_power_refuses_without_building_the_power(self, monkeypatch):
        monkeypatch.setenv("QTORUS_GRID_CAP", "8")
        assert check_power(2, 3, "widgets") == 8
        assert check_power(1, 10**18, "widgets") == 1
        with pytest.raises(GridCapError, match=r"^9 widgets exceed the cap of 8 "):
            check_power(3, 2, "widgets")
        # 2^4 > 8 already, so 3^(10^18) is refused as written, never built.
        with pytest.raises(GridCapError, match=r"^2\^4 widgets exceed the cap of 8 "):
            check_power(2, 4, "widgets")
        with pytest.raises(GridCapError, match=r"^3\^1000000000000000000 widgets exceed"):
            check_power(3, 10**18, "widgets")

    @pytest.mark.parametrize("raw", ["1e6", "", "ten", "0", "-5", "2.5"])
    def test_malformed_cap_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("QTORUS_GRID_CAP", raw)
        message = f"QTORUS_GRID_CAP must be a positive integer, got {raw!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_size(1, "widgets")

    def test_grid_array_order(self):
        for n, max_m in ((1, 200), (2, 40), (3, 12)):
            for m in range(1, max_m + 1):
                assert grid_array(n, m).tobytes() == grid_nodes(n, m).tobytes(), (n, m)

    def test_rejects_nonpositive_sizes(self):
        for n, m in ((0, 3), (2, 0)):
            with pytest.raises(ValueError):
                grid_array(n, m)


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

    def test_coeffs_is_a_read_only_view(self):
        s = FourierSeries(2, {(1, -1): 2.0, (0, 3): 1j})
        assert s.coeffs == {(0, 3): 1j, (1, -1): 2.0 + 0j}
        with pytest.raises(TypeError):
            s.coeffs[(0, 0)] = 1.0
        with pytest.raises(ValueError):
            s._values[0] = 5.0
        with pytest.raises(AttributeError):
            s.dim = 3

    def test_abs_sum_is_the_builtin_sum_once(self):
        rng = np.random.default_rng(3)
        s = random_series(rng, 2, max_modes=400, radius=30)
        want = float(sum(abs(c) for c in s.coeffs.values()))
        assert s.abs_sum().hex() == want.hex()
        assert s.abs_sum() is s.abs_sum()  # cached, not recomputed
        # Moduli where np.abs may round differently from the builtin abs.
        for c in (0.1 + 0.1j, 0.1 + 0.7j, 0.2 + 0.2j, 1.7 + 2.8j):
            assert FourierSeries(1, {(0,): c}).abs_sum().hex() == abs(c).hex()

    def test_large_int_keys_mixed_with_floats_stay_exact(self):
        s = FourierSeries(2, {(2**60 + 1, 0): 1.0, (1.0, -2.0): 2.0})
        assert list(s.coeffs) == [(1, -2), (2**60 + 1, 0)]



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


@st.composite
def coefficient_rows(draw):
    """(dim, rows, values): candidate index rows and coefficients for a series.

    Rows may repeat, have the wrong length, or hold integral, non-integral
    and non-finite floats; values include NaN, infinities, -0.0 and moduli
    at the 1e-300 pruning threshold.
    """
    dim = draw(st.integers(1, 3))
    integral = st.integers(-6, 6) | st.integers(-6, 6).map(float) | st.just(-0.0)
    entry = integral | st.sampled_from((0.5, -2.25, math.nan, math.inf))
    if draw(st.booleans()):
        entry = integral
    length = st.sampled_from((dim,) * 8 + (dim - 1, dim + 1))
    if draw(st.booleans()):
        length = st.just(dim)
    row = length.flatmap(lambda n: st.lists(entry, min_size=n, max_size=n))
    rows = draw(st.lists(row, max_size=12))
    tiny = st.sampled_from(
        (
            1e-300,
            -1e-300,
            math.nextafter(1e-300, 0.0),
            complex(0.0, -1e-300),
            # |c| is 1e-300 by the builtin abs, one ulp less by np.abs.
            complex(7.77329478235005e-302, 9.969742167291333e-301),
            complex(-8.824158165251825e-301, 4.704703250431376e-301),
            -0.0,
            complex(-0.0, -0.0),
        )
    )
    value = st.one_of(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        st.floats(-1e6, 1e6),
        tiny,
    )
    if draw(st.booleans()):
        value = value | st.sampled_from((math.nan, complex(1.0, math.inf), -math.inf))
    values = [draw(value) for _ in rows]
    return dim, rows, values


def outcome(build):
    """("ok", result) or ("rejected", exception type)."""
    try:
        return "ok", build()
    except (ValueError, OverflowError) as exc:
        return "rejected", type(exc)


class TestFromArrays:
    """from_arrays and the dict adapter against the mode-at-a-time oracle."""

    @settings(max_examples=300, deadline=None)
    @given(coefficient_rows())
    @example((1, [], []))
    @example((2, [[1, 2.0], [1.0, 2]], [1.0, 2.0]))
    @example((1, [[0], [-0.0]], [1.0, 1e-310]))
    @example((1, [[0], [3]], [complex(7.77329478235005e-302, 9.969742167291333e-301), 1.0]))
    def test_matches_dict_oracle(self, case):
        dim, rows, values = case
        mapping = dict(zip(map(tuple, rows), values))
        want = outcome(lambda: dict_series_coeffs(dim, mapping))

        got = outcome(lambda: FourierSeries(dim, mapping))
        assert got[0] == want[0]
        if want[0] == "ok":
            self.assert_same(got[1], want[1])
        else:
            assert got[1] is ValueError

        repeated = len(set(map(tuple, rows))) < len(rows)
        got = outcome(lambda: FourierSeries.from_arrays(dim, rows, values))
        assert got[0] == ("rejected" if repeated else want[0])
        if got[0] == "ok":
            self.assert_same(got[1], want[1])
        else:
            assert issubclass(got[1], ValueError)

    @staticmethod
    def assert_same(series, want: dict):
        assert list(series.coeffs) == list(want)
        assert all(type(x) is int for k in series.coeffs for x in k)
        assert bits(series.coeffs.values()) == bits(want.values())
        assert series._exponents.dtype == np.int64
        assert series._exponents.shape == (len(want), series.dim)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    )
    def test_arithmetic_matches_dict_oracle(self, seed, scalar):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        f = random_series(rng, dim, max_modes=20, radius=3)
        g = random_series(rng, dim, max_modes=20, radius=3)
        product = dict_series_coeffs(dim, {k: c * scalar for k, c in f.coeffs.items()})
        TestFromArrays.assert_same(f * scalar, product)
        TestFromArrays.assert_same(scalar * f, product)
        merged = dict(f.coeffs)
        for k, c in g.coeffs.items():
            merged[k] = merged.get(k, 0j) + c
        total = f + g
        want = dict_series_coeffs(dim, merged)
        assert list(total.coeffs) == list(want)
        assert list(total.coeffs.values()) == list(want.values())

    def test_duplicate_rows_rejected_even_when_pruned(self):
        with pytest.raises(ValueError, match=r"duplicate index \[1, 2\]"):
            FourierSeries.from_arrays(2, [[1, 2], [0, 0], [1, 2]], [1e-310, 1.0, 1e-310])

    @pytest.mark.parametrize("entry", [2**62 + 1, -(2**62) - 1, 2**63, 2**70])
    def test_index_beyond_bound_rejected(self, entry):
        with pytest.raises(ValueError, match="2\\*\\*62"):
            FourierSeries(1, {(entry,): 1.0})
        assert FourierSeries(1, {(2**62,): 1.0, (-(2**62),): 1.0}).n_modes == 2


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


class TestCoefficientFormat:
    """The columnar writer and the block reader against the line-at-a-time oracles."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.lists(
            st.tuples(
                st.lists(st.integers(-(2**62), 2**62), min_size=3, max_size=3),
                st.complex_numbers(allow_nan=False, allow_infinity=False),
            ),
            max_size=30,
        ),
    )
    def test_writer_bytes_equal_json_dumps(self, dim, modes):
        series = FourierSeries(dim, {tuple(k[:dim]): c for k, c in modes})
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.jsonl", Path(tmp) / "want.jsonl"
            write_coefficients(series, got)
            json_write_coefficients(series, want)
            assert got.read_bytes() == want.read_bytes()

    def test_writer_signed_zeros_and_extremes(self, tmp_path):
        coeffs = {
            (0, -1): complex(1e-300, -0.0),
            (3, 0): complex(-0.0, 1.7976931348623157e308),
            (-5, 2): 0.1,
        }
        series = FourierSeries(2, coeffs)
        write_coefficients(series, tmp_path / "got.jsonl")
        json_write_coefficients(series, tmp_path / "want.jsonl")
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    @pytest.mark.parametrize("block", range(1, 8))
    def test_roundtrip_across_block_boundaries(self, tmp_path, block):
        rng = np.random.default_rng(block)
        for dim in (1, 2, 3):
            series = random_series(rng, dim, max_modes=30, radius=5)
            path = tmp_path / f"s{dim}.jsonl"
            write_coefficients(series, path)
            lines = path.read_text().splitlines()
            for at in sorted(rng.integers(0, len(lines) + 1, size=3), reverse=True):
                lines.insert(int(at), "  " if at % 2 else "")
            write_lines(path, lines)
            with mock.patch.object(series_module, "READ_BLOCK", block):
                back = read_coefficients(path)
            assert back == series
            assert bits(back.coeffs.values()) == bits(series.coeffs.values())
            assert loop_read_coefficients(path) == (dim, dict(series.coeffs))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ('{"k": [1e400], "re": 1.0, "im": 0.0}', "JSON integers"),
            ('{"k": [1.0], "re": 1.0, "im": 0.0}', "JSON integers"),
            ('{"k": 5, "re": 1.0, "im": 0.0}', "list of integers"),
            ('{"k": [1180591620717411303424], "re": 1.0, "im": 0.0}', "2\\*\\*62"),
            ('{"k": [-9223372036854775808], "re": 1.0, "im": 0.0}', "2\\*\\*62"),
            ('{"k": [true], "re": 1.0, "im": 0.0}', "JSON integers"),
            ('{"k": [], "re": 1.0, "im": 0.0}', "length"),
            ('{"k": [1, 2], "re": 1.0, "im": 0.0}', "length"),
            ('{"k": [4], "re": "1.5", "im": 0.0}', "JSON numbers"),
            ('{"k": [4], "re": 1.0, "im": false}', "JSON numbers"),
            ('{"k": [4], "re": 1e400, "im": 0.0}', "not finite"),
            ('{"k": [4], "re": 1.0, "im": 0.0, "note": "x"}', "unexpected field"),
            ('{"k": [4], "re": 1.0}', "need fields"),
            ('[{"k": [4], "re": 1.0, "im": 0.0}]', "JSON object"),
            ('{"k": [4], "re": 1.0, "im": 0.0}, {"k": [5], "re": 1.0, "im": 0.0}', "invalid JSON"),
            ('{"k": [4], "re": 1.0, "im": 0.0', "invalid JSON"),
            ('{"k": ' + "[" * 100000 + "]" * 100000 + ', "re": 1.0, "im": 0.0}', "invalid JSON"),
        ],
    )
    @pytest.mark.parametrize("block", [1, 3, 256])
    def test_bad_line_named(self, tmp_path, bad, message, block):
        # Line 1 fixes dim = 1, line 3 is blank, the bad line is line 4.
        path = write_lines(
            tmp_path / "bad.jsonl",
            [
                '{"k": [1], "re": 1.0, "im": 0.0}',
                '{"k": [2], "re": 1.0, "im": 0.0}',
                "",
                bad,
                '{"k": [3], "re": 1.0, "im": 0.0}',
            ],
        )
        with mock.patch.object(series_module, "READ_BLOCK", block):
            with pytest.raises(ValueError, match=f"bad.jsonl:4: .*{message}"):
                read_coefficients(path)

    def test_object_split_across_lines_rejected(self, tmp_path):
        # Joined with a comma, these two lines decode to two valid objects;
        # neither line is one object on its own.
        path = write_lines(
            tmp_path / "split.jsonl",
            ['{"k": [1, 1], "re": 1.0, "im": 0.0}, {"k": [2', '3], "re": 1.0, "im": 0.0}'],
        )
        with pytest.raises(ValueError, match="split.jsonl:1: invalid JSON"):
            read_coefficients(path)

    def test_duplicate_named_at_its_second_line(self, tmp_path):
        path = write_lines(
            tmp_path / "dup.jsonl",
            ['{"k": [2], "re": 1.0, "im": 0.0}', "", '{"k": [7], "re": 1.0, "im": 0.0}']
            + ['{"k": [2], "re": 1e-310, "im": 0.0}', '{"k": [7], "re": 1.0, "im": 0.0}'],
        )
        with mock.patch.object(series_module, "READ_BLOCK", 2):
            with pytest.raises(ValueError, match=r"dup.jsonl:4: duplicate index \[2\]"):
                read_coefficients(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no coefficient lines"):
            read_coefficients(write_lines(tmp_path / "empty.jsonl", ["", "  "]))

    def test_reading_peaks_below_the_line_reader(self, tmp_path):
        rng = np.random.default_rng(40000)
        k = rng.choice(np.arange(-100000, 100001), size=40000, replace=False)
        values = rng.normal(size=40000) + 1j * rng.normal(size=40000)
        path = tmp_path / "big.jsonl"
        write_coefficients(FourierSeries.from_arrays(1, k[:, None], values), path)
        peaks = []
        for read in (read_coefficients, loop_read_coefficients):
            tracemalloc.start()
            try:
                read(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1], peaks

    def test_write_is_atomic(self, tmp_path, monkeypatch):
        path = tmp_path / "s.jsonl"
        path.write_text("earlier\n")
        real_fdopen = os.fdopen

        class Failing:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError("disk full")

        monkeypatch.setattr(
            series_module.os, "fdopen", lambda *a, **kw: Failing(real_fdopen(*a, **kw))
        )
        series = FourierSeries(1, {(k,): 1.0 for k in range(50)})
        with pytest.raises(OSError, match="disk full"):
            write_coefficients(series, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl"]
        assert path.read_text() == "earlier\n"
