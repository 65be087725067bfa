"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from qtorus import FourierSeries, PolyPoint, TorusPoint
from qtorus.series import TWO_PI


def compositions(total: int, parts: int):
    """Yield all tuples of ``parts`` nonnegative integers summing to ``total``.

    Lexicographic order; there are C(total + parts - 1, parts - 1) of them.
    Enumerates every multi-index of order ``total``, the brute-force side of
    the pure-direction identity for ln M_j.
    """
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def random_series(rng, dim, max_modes=40, radius=10) -> FourierSeries:
    count = int(rng.integers(1, max_modes + 1))
    coeffs = {}
    for _ in range(count):
        k = tuple(int(x) for x in rng.integers(-radius, radius + 1, size=dim))
        coeffs[k] = complex(rng.normal(), rng.normal())
    return FourierSeries(dim, coeffs)


def random_torus_point(rng, dim) -> PolyPoint:
    return TorusPoint(tuple(rng.uniform(0.0, 2.0 * math.pi, size=dim))).point()


def brute_eval(series: FourierSeries, z) -> complex:
    """sum_k c_k z_1^{k_1} ... z_n^{k_n}, one Python term at a time.

    The brute-force oracle for ``eval_batch`` and ``eval_laurent``: scalar
    complex arithmetic, no power tables, no chunks.
    """
    total = 0j
    for k, c in series.coeffs.items():
        term = c
        for kp, zp in zip(k, z):
            term *= zp ** kp
        total += term
    return total


def brute_eval_scale(series: FourierSeries, z) -> float:
    """sum_k |c_k| |z_1|^{k_1} ... |z_n|^{k_n}: the size of the terms brute_eval adds."""
    return sum(
        abs(c) * math.prod(abs(zp) ** kp for kp, zp in zip(k, z))
        for k, c in series.coeffs.items()
    )


def torus_eval(series: FourierSeries, theta) -> complex:
    """sum_k c_k e^{i k.theta} at the torus point with angles ``theta``."""
    total = 0j
    for k, c in series.coeffs.items():
        total += c * cmath.exp(1j * sum(kp * tp for kp, tp in zip(k, theta)))
    return total


def grid_nodes(n: int, m: int) -> np.ndarray:
    """The m^n roots-of-unity nodes, one cmath.exp per component.

    Rows follow itertools.product over 1 <= l_p <= m (lexicographic order);
    ``grid_array`` must match it bit for bit.
    """
    return np.array(
        [
            [cmath.exp(TWO_PI * 1j * lp / m) for lp in l]
            for l in itertools.product(range(1, m + 1), repeat=n)
        ],
        dtype=complex,
    ).reshape(m**n, n)


def supporting_line_profile(weight, r_max, j_max, dim=1):
    """Profile whose ln(r^3 tau(r)) equals -weight(r) on the integer grid.

    Built from supporting lines: ln M_j = max_r ((j - 3) ln r - weight(r)),
    exact at grid points whose tangent slope is an achievable integer.
    """
    from qtorus import DerivativeNormProfile

    rs = np.arange(1, r_max + 1, dtype=float)
    w = np.array([float(weight(r)) for r in rs])
    ln_m = tuple(
        float(np.max((j - 3) * np.log(rs) - w)) for j in range(j_max + 1)
    )
    return DerivativeNormProfile(dim=dim, ln_m=ln_m, j_max=j_max)


def dense_log_tau(profile, ln_r, start=0):
    """(values, argmin) of min_{start<=j<=j_max} (ln M_j - (j - start) ln r) by a full scan.

    The O(R J) scan the associated-function kernel replaced: start = 0 gives
    ln tau, start = 3 gives ln tau~.  The argmin is the smallest j among equal
    terms and the value is the term at that j.
    """
    ln_m = profile.ln_m_array()[start:]
    s = np.arange(ln_m.size, dtype=float)
    terms = ln_m[None, :] - np.asarray(ln_r, dtype=float)[:, None] * s[None, :]
    arg = np.argmin(terms, axis=1)
    return terms[np.arange(arg.size), arg], arg + start


def dense_fold_weights(profile, r_max):
    """(w_full, w_shifted, sat_full, sat_shifted) on r = 1..r_max by a full scan.

    w_full(r) = max_{0<=j<=J} ((j-3) ln r - ln M_j) and w_shifted takes the
    max over j >= 3 of the same float terms; each value is the term at the
    first argmax, and sat_* flags an argmax at j_max.  Where both maxima are
    equal w_full takes the shifted term: the two differ at most in the sign
    of a zero, which only the negative weights j - 3 < 0 can make negative.
    """
    j_max = profile.j_max
    ln_m = profile.ln_m_array()
    ln_r = np.log(np.arange(1, r_max + 1, dtype=float))
    terms = (np.arange(j_max + 1, dtype=float) - 3.0)[None, :] * ln_r[:, None] - ln_m[None, :]
    rows = np.arange(r_max)
    arg_full = terms.argmax(axis=1)
    w_full = terms[rows, arg_full]
    if j_max >= 3:
        arg_shift = terms[:, 3:].argmax(axis=1) + 3
        w_shift = terms[rows, arg_shift]
        w_full = np.where(w_shift >= w_full, w_shift, w_full)
    else:
        arg_shift = np.zeros(r_max, dtype=np.int64)
        w_shift = np.full(r_max, -np.inf)
    return w_full, w_shift, arg_full == j_max, arg_shift == j_max
