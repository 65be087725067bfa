"""Sparse multi-index Fourier/Laurent series on the n-torus.

A series is a finite map from integer exponent vectors k in Z^n to complex
coefficients c_k, evaluated either on the torus (a point given by angles) or
on a product of annuli (a point with nonzero complex components, Laurent
style).  Everything downstream is coefficient-driven: no FFTs, no dense
grids, no symbolic functions.

All types are immutable after construction and all operations are pure, so
shared values are safe under unrestricted concurrent reads.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

#: Coefficients below this modulus are dropped on construction; they carry no
#: information at double precision and would pollute log-domain sums.
PRUNE_THRESHOLD = 1e-300

#: Default ceiling on the number of roots-of-unity grid points (m**n).
DEFAULT_GRID_CAP = 10**6

#: Environment variable overriding the grid-point cap.
GRID_CAP_ENV = "QTORUS_GRID_CAP"

#: Complex elements in one :func:`eval_batch` working block (points x modes).
EVAL_BLOCK = 2**18


class GridCapError(RuntimeError):
    """A requested roots-of-unity grid would exceed the configured point cap."""


def _as_index(entries, dim: int) -> tuple[int, ...]:
    k = tuple(entries)
    if len(k) != dim:
        raise ValueError(f"index {k!r} has length {len(k)}, expected {dim}")
    out = []
    for x in k:
        if x != int(x):
            raise ValueError(f"index entries must be integers, got {x!r}")
        out.append(int(x))
    return tuple(out)


@dataclass(frozen=True)
class FourierSeries:
    """Finite series  f = sum_k c_k z^k  with multi-indices k in Z^dim.

    ``coeffs`` maps index tuples to complex coefficients; it is normalized on
    construction (integer tuples of length ``dim``, sorted keys, coefficients
    below :data:`PRUNE_THRESHOLD` pruned) and must not be mutated afterwards.
    A NaN or infinite coefficient raises ``ValueError``.
    """

    dim: int
    coeffs: dict

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        clean = {}
        for raw_k, raw_c in self.coeffs.items():
            k = _as_index(raw_k, self.dim)
            c = complex(raw_c)
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient at index {list(k)} is not finite: {c!r}")
            if abs(c) >= PRUNE_THRESHOLD:
                clean[k] = c
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    @property
    def n_modes(self) -> int:
        return len(self.coeffs)

    def support_radius(self) -> int:
        """max over stored k of max_p |k_p|; 0 for the empty series."""
        if not self.coeffs:
            return 0
        return max(max(abs(x) for x in k) for k in self.coeffs)

    def abs_sum(self) -> float:
        """sum_k |c_k| (finite by construction)."""
        return float(sum(abs(c) for c in self.coeffs.values()))

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        if not isinstance(other, FourierSeries):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        merged = dict(self.coeffs)
        for k, c in other.coeffs.items():
            merged[k] = merged.get(k, 0j) + c
        return FourierSeries(self.dim, merged)

    def __mul__(self, scalar) -> "FourierSeries":
        c = complex(scalar)
        return FourierSeries(self.dim, {k: v * c for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    # Cached array views used by the vectorized evaluators.  cached_property
    # writes straight into __dict__, which is fine on a frozen dataclass.
    @cached_property
    def _exponents(self) -> np.ndarray:
        if not self.coeffs:
            return np.zeros((0, self.dim), dtype=np.int64)
        return np.array(list(self.coeffs.keys()), dtype=np.int64)

    @cached_property
    def _exponent_tables(self) -> tuple:
        """Per dimension p: (distinct k_p ascending, index of each mode's k_p)."""
        return tuple(
            np.unique(self._exponents[:, p], return_inverse=True)
            for p in range(self.dim)
        )

    @cached_property
    def _values(self) -> np.ndarray:
        return np.array(list(self.coeffs.values()), dtype=complex)

    @cached_property
    def _log_abs_values(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self._values))


@dataclass(frozen=True)
class TorusPoint:
    """A point on the n-torus, stored as angles normalized to [0, 2*pi)."""

    theta: tuple

    def __post_init__(self):
        if len(self.theta) < 1:
            raise ValueError("need at least one angle")
        norm = tuple(float(t) % TWO_PI for t in self.theta)
        object.__setattr__(self, "theta", norm)

    @property
    def dim(self) -> int:
        return len(self.theta)

    def point(self) -> "PolyPoint":
        """The corresponding unit-modulus point (e^{i theta_1}, ...)."""
        return PolyPoint(tuple(cmath.exp(1j * t) for t in self.theta))


@dataclass(frozen=True)
class PolyPoint:
    """A point with nonzero complex components (Laurent evaluation domain)."""

    z: tuple

    def __post_init__(self):
        comps = tuple(complex(v) for v in self.z)
        if len(comps) < 1:
            raise ValueError("need at least one component")
        if any(v == 0 for v in comps):
            raise ValueError("components must be nonzero")
        object.__setattr__(self, "z", comps)

    @property
    def dim(self) -> int:
        return len(self.z)

    def on_torus(self, tol: float = 1e-9) -> bool:
        return all(abs(abs(v) - 1.0) <= tol for v in self.z)


@dataclass(frozen=True)
class SamplingAnnulus:
    """The region 1/t <= |z_p| <= t (componentwise), t > 1."""

    dim: int
    t: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.t > 1.0:
            raise ValueError("t must be > 1")


def eval_laurent(series: FourierSeries, p: PolyPoint) -> complex:
    """sum_k c_k z_1^{k_1} ... z_n^{k_n} at one point: a one-row :func:`eval_batch`."""
    return complex(eval_batch(series, np.array([p.z], dtype=complex))[0])


def eval_batch(series: FourierSeries, points: np.ndarray) -> np.ndarray:
    """Laurent values at the rows of an (N, dim) array of nonzero components.

    Every evaluation in qtorus comes here.  Points go in chunks of
    ``EVAL_BLOCK // n_modes`` rows (at least one), so a working array holds
    at most max(:data:`EVAL_BLOCK`, n_modes) complex elements.  Per chunk,
    each z_p is raised once to the distinct exponents of dimension p, every
    mode gathers its factor from that table, the factors multiply in p
    order, and one matvec with the coefficients sums the modes.
    """
    z = np.asarray(points, dtype=complex)
    if z.ndim != 2 or z.shape[1] != series.dim:
        raise ValueError(f"points must have shape (N, {series.dim})")
    if np.any(z == 0):
        raise ValueError("components must be nonzero")
    out = np.zeros(z.shape[0], dtype=complex)
    if not series.coeffs:
        return out
    rows = max(1, EVAL_BLOCK // series.n_modes)
    for start in range(0, z.shape[0], rows):
        chunk = z[start : start + rows]
        block = 1.0
        for p, (distinct, inverse) in enumerate(series._exponent_tables):
            block = block * (chunk[:, p, None] ** distinct)[:, inverse]
        out[start : start + rows] = block @ series._values
    return out


def grid_cap(cap: int | None = None) -> int:
    """The grid-point cap: ``cap`` if given, else QTORUS_GRID_CAP, else 10^6."""
    if cap is not None:
        return int(cap)
    return int(os.environ.get(GRID_CAP_ENV, DEFAULT_GRID_CAP))


def grid_array(n: int, m: int, cap: int | None = None) -> np.ndarray:
    """The m^n interpolation nodes (e^{2 pi i l_1/m}, ..., e^{2 pi i l_n/m}).

    Rows of an (m^n, n) array, indices 1 <= l_p <= m in lexicographic order.
    Refuses with :class:`GridCapError` when m^n exceeds the cap (default
    10^6, overridable via QTORUS_GRID_CAP or the ``cap`` argument).
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    count = m ** n
    limit = grid_cap(cap)
    if count > limit:
        raise GridCapError(f"grid needs {count} points, cap is {limit}")
    roots = np.array([cmath.exp(TWO_PI * 1j * l / m) for l in range(1, m + 1)])
    return roots[np.indices((m,) * n).reshape(n, count).T]


def truncate(series: FourierSeries, radius: int) -> FourierSeries:
    """Keep exactly the modes with max_p |k_p| <= radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    kept = {
        k: c
        for k, c in series.coeffs.items()
        if max(abs(x) for x in k) <= radius
    }
    return FourierSeries(series.dim, kept)


def read_coefficients(path) -> FourierSeries:
    """Read a series from a JSON Lines file.

    One object per mode: ``{"k": [k1, ..., kn], "re": <float>, "im": <float>}``.
    The dimension is inferred from the first line; a duplicate index is an
    error.
    """
    coeffs: dict = {}
    dim = None
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                k_raw = obj["k"]
                re = float(obj["re"])
                im = float(obj["im"])
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: need fields k, re, im") from exc
            if dim is None:
                dim = len(k_raw)
                if dim < 1:
                    raise ValueError(f"{path}:{lineno}: empty index")
            k = _as_index(k_raw, dim)
            if k in coeffs:
                raise ValueError(f"{path}:{lineno}: duplicate index {list(k)}")
            coeffs[k] = complex(re, im)
    if dim is None:
        raise ValueError(f"{path}: no coefficient lines")
    return FourierSeries(dim, coeffs)


def write_coefficients(series: FourierSeries, path) -> None:
    """Write a series in the JSON Lines coefficient format (sorted indices)."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for k, c in series.coeffs.items():
            fh.write(
                json.dumps({"k": list(k), "re": c.real, "im": c.imag}, sort_keys=True)
            )
            fh.write("\n")
