"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

from qtorus import FourierSeries, PolyPoint, TorusPoint


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
    """Direct complex-arithmetic evaluation, independent of the library path."""
    total = 0j
    for k, c in series.coeffs.items():
        term = c
        for kp, zp in zip(k, z):
            term *= zp ** kp
        total += term
    return total


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
