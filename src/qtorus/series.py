"""Sparse multi-index Fourier/Laurent series on the n-torus.

A series is a finite map from integer exponent vectors k in Z^n to complex
coefficients c_k, evaluated either on the torus (unit-modulus components) or
on a product of annuli (a point with nonzero complex components, Laurent
style).  Everything downstream is coefficient-driven: no FFTs, no dense
grids, no symbolic functions.

All types are immutable after construction and all operations are pure, so
shared values are safe under unrestricted concurrent reads.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import os
import sys
import tempfile
from collections.abc import Mapping
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType

import numpy as np

TWO_PI = 2.0 * math.pi

#: Coefficients below this modulus are dropped on construction; they carry no
#: information at double precision and would pollute log-domain sums.
PRUNE_THRESHOLD = 1e-300

#: Largest deviation of |z_p| from 1 that :meth:`PolyPoint.on_torus` accepts.
TORUS_TOL = 1e-9

#: Default ceiling on every size a request drives (see :func:`check_size`).
DEFAULT_GRID_CAP = 10**6

#: Environment variable overriding the size cap.
GRID_CAP_ENV = "QTORUS_GRID_CAP"

#: Largest |k_p| of a stored index, so np.abs and the fold arithmetic on the
#: int64 entries cannot overflow.
INDEX_BOUND = 2**62

#: Lines of a coefficient file decoded by one json.loads call in
#: :func:`read_coefficients`, and CSV rows or SVG points the CLI formats per
#: write.  A block's objects (~0.5 KB a read line) are alive at once, and
#: the allocator keeps much of that memory after they are freed: 4096-line
#: blocks raised a job's peak RSS by ~1 MB, where 256-line blocks read as fast.
READ_BLOCK = 256

#: Complex elements in one working block of :func:`eval_batch` (points x
#: modes) and of :func:`eval_grid` (rows x grid points of one level).  A
#: block is 128 KiB.  An :func:`eval_batch` chunk holds half a block of
#: terms, so a product's two operands and its result take 192 KiB.  No value
#: depends on the block, and blocks this small cost no time: on the 3516
#: modes an n = 2 diagonal audit leaves uncovered at m = 20, :func:`eval_grid`
#: peaked at 2.1 MB traced and took 4.9 ms with 2^15, against 0.8 MB and
#: 3.9 ms with 2^13.
EVAL_BLOCK = 2**13


def _shown(value) -> str:
    """``repr`` of a refused value; an int too long for ``repr`` is shown by its size in bits."""
    try:
        return repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits()
        return f"an integer of {value.bit_length()} bits"


def _count(name: str, value, least: int = 1) -> int:
    """``value`` as an int >= ``least``, else a ValueError naming ``name``.

    The one check of an integer argument: an int or a numpy integer passes,
    a bool, a float (NaN and inf too) or anything else is refused.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {_shown(value)}")
    return int(value)


def _real(name: str, value, floor=None, strict: bool = False) -> float:
    """``value`` as a finite float >= ``floor`` (> it when ``strict``), else a ValueError naming ``name``.

    The one check of a real argument: an int, a float or a numpy real within
    the float range passes, a bool, NaN, +-inf or anything else is refused.
    """
    number = not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))
    finite = number and abs(value) <= sys.float_info.max
    if not finite or (floor is not None and not (value > floor if strict else value >= floor)):
        bound = "" if floor is None else f" and {'>' if strict else '>='} {floor}"
        raise ValueError(f"{name} must be finite{bound}, got {_shown(value)}")
    return float(value)


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| per entry of a complex array: the one modulus of the package.

    It is libm's hypot, which the builtin ``abs`` of a complex also calls,
    so the two agree bit for bit.  ``np.abs`` of a complex may differ from
    it in the last bit, by an amount that depends on numpy's SIMD level.  A
    modulus past the float range is inf, without a warning.
    """
    with np.errstate(over="ignore"):
        return np.hypot(z.real, z.imag)


def _read_only(*arrays: np.ndarray) -> tuple:
    """``arrays``, each made read-only: the one freezer of report columns and series."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


class GridCapError(RuntimeError):
    """A requested size would exceed the configured cap."""


def _cap() -> int:
    """The size cap from QTORUS_GRID_CAP (default 10^6), read at each call.

    A value that is not a positive integer raises ValueError naming it.
    """
    raw = os.environ.get(GRID_CAP_ENV, str(DEFAULT_GRID_CAP))
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{GRID_CAP_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def _past_cap(shown: str, what: str, limit: int) -> GridCapError:
    return GridCapError(f"{shown} {what} exceed the cap of {limit} ({GRID_CAP_ENV})")


def check_size(count: int, what: str) -> int:
    """``count``, or :class:`GridCapError` naming ``what`` when it exceeds the cap.

    The one size check: grid points, family modes, profile orders, samples.
    Sizes that are powers go through :func:`check_power`.
    """
    limit = _cap()
    if count > limit:
        raise _past_cap(str(count), what, limit)
    return count


def check_power(base: int, exponent: int, what: str) -> int:
    """``base**exponent`` through :func:`check_size`, never built past the cap.

    For base >= 2 the power exceeds the cap once 2**exponent does, that is
    once the exponent reaches the cap's bit length.  Such a size is refused
    as ``base^exponent`` without making the integer, which could take long
    to build and thousands of digits to print.
    """
    limit = _cap()
    if base >= 2 and exponent >= limit.bit_length():
        raise _past_cap(f"{base}^{exponent}", what, limit)
    return check_size(base**exponent, what)


class _DuplicateIndex(ValueError):
    """Two rows of an exponent array are equal; ``row`` is the later one's position."""

    def __init__(self, index: list, row: int):
        super().__init__(f"duplicate index {index}")
        self.row = row


def _index_array(exponents, dim: int) -> np.ndarray:
    """``exponents`` as a (K, dim) int64 array of integers within INDEX_BOUND, or ValueError.

    The one conversion of index rows.  An int64 array is returned as it is,
    not copied.  Ints mixed with floats, which numpy rounds to float64
    beyond 2**53, are converted exactly.
    """
    try:
        k = np.asarray(exponents)
    except ValueError:
        raise ValueError(f"indices must be {dim} integers each, with |k_p| <= 2**62") from None
    if k.size == 0:
        k = k.reshape(0, dim)
    if k.ndim != 2 or k.shape[1] != dim:
        raise ValueError(f"indices must have length {dim}, got an array of shape {k.shape}")
    if k.dtype.kind == "f":
        if not np.all(np.isfinite(k) & (k == np.trunc(k))):
            raise ValueError("index entries must be integers")
        if k.size and np.abs(k).max() <= INDEX_BOUND:
            k = np.array(exponents, dtype=np.int64)
    if k.dtype.kind not in "biuf" or (
        k.size and (k.min() < -INDEX_BOUND or k.max() > INDEX_BOUND)
    ):
        raise ValueError("index entries must be integers with |k_p| <= 2**62")
    return k.astype(np.int64, copy=False)


class FourierSeries:
    """Finite series  f = sum_k c_k z^k  with multi-indices k in Z^dim.

    Stored in canonical COO form, as in scipy.sparse's
    ``has_canonical_format``: ``_exponents`` is a read-only (K, dim) int64
    array of distinct rows sorted lexicographically (first column primary)
    and ``_values`` the read-only (K,) complex coefficients.  Every series
    is built by :meth:`from_arrays`, which checks that the coefficients are
    finite, with a modulus within the float range (``ValueError``
    otherwise), prunes those below
    :data:`PRUNE_THRESHOLD`, sorts, and rejects duplicate or non-integer
    indices and entries beyond |k_p| <= 2^62.  ``FourierSeries(dim, coeffs)``
    takes a mapping from index tuples to coefficients instead; ``coeffs`` is
    that mapping as a read-only view, derived on first use.
    """

    def __init__(self, dim: int, coeffs: Mapping):
        self._store(dim, list(coeffs), list(coeffs.values()))

    @classmethod
    def from_arrays(cls, dim: int, exponents, values) -> "FourierSeries":
        """The series with coefficient ``values[i]`` at index ``exponents[i]``.

        ``exponents`` is (K, dim) integers in any order (integral floats are
        accepted), ``values`` (K,) complex.  A repeated index raises
        ``ValueError``, whether or not its coefficients would be pruned.
        The series never shares memory with the arrays passed in.
        """
        series = cls.__new__(cls)
        series._store(dim, exponents, values)
        return series

    def _store(self, dim: int, exponents, values) -> None:
        """Check, sort and prune ``exponents`` and ``values`` into this series.

        One :func:`_modulus` pass, freed before the sort, refuses the first
        coefficient that is not finite or has a modulus past the float range
        and marks those to prune.  Arrays that need no gather and no prune
        are copied, so a caller's array is never shared or frozen.
        """
        dim = _count("dim", dim)
        k = _index_array(exponents, dim)
        v = np.asarray(values, dtype=complex)
        if v.shape != (len(k),):
            raise ValueError(f"need one value per index row, got {v.shape} for {len(k)} rows")
        modulus = _modulus(v)
        bad = np.flatnonzero(~(modulus <= sys.float_info.max))  # NaN or inf
        if bad.size:
            i = bad[0]
            what = "is not finite" if not cmath.isfinite(v[i]) else "has a modulus past the float range"
            raise ValueError(f"coefficient at index {k[i].tolist()} {what}: {complex(v[i])!r}")
        keep = modulus >= PRUNE_THRESHOLD
        del modulus
        order = np.lexsort(k.T[::-1])
        gathered = bool(np.any(order[1:] < order[:-1]))  # only the identity increases
        if gathered:
            k, v, keep = k[order], v[order], keep[order]
        repeat = np.flatnonzero(np.all(k[1:] == k[:-1], axis=1)) + 1
        if repeat.size:
            # The sort is stable, so each repeat is a later occurrence; report
            # the one that comes first in the input.
            j = repeat[np.argmin(order[repeat])]
            raise _DuplicateIndex(k[j].tolist(), int(order[j]))
        if not keep.all():
            k, v = k[keep], v[keep]
        elif not gathered:
            k, v = k.copy(), v.copy()
        _read_only(k, v)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_exponents", k)
        object.__setattr__(self, "_values", v)

    def __setattr__(self, name, value):
        raise AttributeError(f"FourierSeries is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FourierSeries is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, FourierSeries):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self._exponents, other._exponents)
            and np.array_equal(self._values, other._values)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"FourierSeries(dim={self.dim!r}, coeffs={dict(self.coeffs)!r})"

    @cached_property
    def coeffs(self) -> Mapping:
        """Read-only map from index tuples to complex coefficients, in index order."""
        keys = map(tuple, self._exponents.tolist())
        return MappingProxyType(dict(zip(keys, self._values.tolist())))

    @property
    def n_modes(self) -> int:
        return len(self._values)

    def support_radius(self) -> int:
        """max over stored k of max_p |k_p|; 0 for the empty series."""
        if not self.n_modes:
            return 0
        return int(np.abs(self._exponents).max())

    def abs_sum(self) -> float:
        """sum_k |c_k| in index order, once per series; never raises, inf past the float range."""
        return self._abs_sum

    @cached_property
    def _abs_sum(self) -> float:
        return float(sum(_modulus(self._values).tolist()))

    def _terms_at(self, point: "PolyPoint") -> np.ndarray:
        """The terms c_k z^k at ``point``, one per mode, kept for the last point asked.

        Computed by :func:`_terms` from the cached exponent tables.  A
        one-entry cache, written into ``__dict__`` like a cached_property:
        the interpolation audits of one job pin every m at the same z0.  On
        the benchmark's 20 interp jobs (seed 1) it is hit 162 times, each
        hit one ``_terms`` pass over up to 2001 modes saved, ~55 ms in all.
        """
        last = self.__dict__.get("_last_terms")
        if last is None or last[0] != point:
            terms = _terms(np.array(point.z), self._exponent_tables, self._values)
            last = self.__dict__["_last_terms"] = (point, terms)
        return last[1]

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        if not isinstance(other, FourierSeries):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return _summed(
            self.dim,
            np.concatenate((self._exponents, other._exponents)),
            np.concatenate((self._values, other._values)),
        )

    def __mul__(self, scalar) -> "FourierSeries":
        v = _product(self._values, complex(scalar))
        return FourierSeries.from_arrays(self.dim, self._exponents, v)

    __rmul__ = __mul__

    # Cached array views used by the vectorized evaluators.  cached_property
    # writes straight into __dict__, past the immutability guard.
    @cached_property
    def _exponent_tables(self) -> tuple:
        """Per dimension p: (distinct k_p ascending, index of each mode's k_p)."""
        return tuple(
            np.unique(self._exponents[:, p], return_inverse=True)
            for p in range(self.dim)
        )


def _summed(dim: int, exponents: np.ndarray, values: np.ndarray) -> FourierSeries:
    """The series with the values of equal index rows added, each sum in row order.

    A stable lexicographic sort puts equal rows next to each other in row
    order, and a boundary mask numbers the runs of equal rows.
    """
    k = exponents.reshape(-1, dim)
    order = np.lexsort(k.T[::-1])
    k = k[order]
    head = np.ones(len(k), dtype=bool)
    head[1:] = np.any(k[1:] != k[:-1], axis=1)
    sums = np.zeros(np.count_nonzero(head), dtype=complex)
    np.add.at(sums, np.cumsum(head) - 1, values[order])
    return FourierSeries.from_arrays(dim, k[head], sums)


def _product(a, b) -> np.ndarray:
    """a * b elementwise, with real and imaginary parts apart, as complex.__mul__ rounds them.

    Real products and sums round the same in every numpy kernel, so the
    bits of each entry depend only on its two operands, not on the shapes,
    strides or lengths that pick numpy's complex multiply kernel, nor on
    its SIMD level (a fused multiply-add rounds once where this rounds
    twice).  Each part is written in place, without a temporary of its own.
    """
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    re, im = out.real, out.imag
    np.multiply(a.real, b.real, out=re)
    re -= a.imag * b.imag
    np.multiply(a.real, b.imag, out=im)
    im += a.imag * b.real
    return out


def _terms(z: np.ndarray, tables, values: np.ndarray) -> np.ndarray:
    """The terms c_k z^k of the modes at one point (n,) or at the rows of (N, n).

    ``tables[p]`` is (distinct exponents, index of each mode's exponent in
    them) for dimension p.  Each z_p is raised once to its distinct
    exponents, every mode gathers its factor from that table, and the
    factors multiply in p order, the coefficient last, by :func:`_product`.
    The result has one term per mode: (K,) for one point, (N, K) for rows.
    So a term's bits depend only on its point, its index and its
    coefficient: not on the other points, and modes with the same index
    and coefficient give the same term whatever the tables they come from.
    """
    term = None
    for p, (distinct, inverse) in enumerate(tables):
        factor = (z[..., p, None] ** distinct)[..., inverse]
        term = factor if term is None else _product(term, factor)
    return _product(term, values)


class Record:
    """Immutable record whose fields are the class's annotated names, in order.

    A subclass declares ``name: type`` lines, optionally with a default
    value; it is built from the fields positionally or by keyword, and
    ``__post_init__`` (if defined) runs after the fields are set and may
    normalise them with ``object.__setattr__``.  ``==`` compares the field
    tuples of two records of the same class, ``hash`` hashes that tuple and
    ``repr`` reads ``Name(field=value, ...)``: what a frozen dataclass
    does, from methods shared by every record instead of code generated
    per class.  Assigning or deleting an attribute raises AttributeError.
    """

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__
        cls._fields = fields = cls._fields + tuple(f for f in own if f not in cls._fields)
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}
        for name, default in cls._defaults.items():
            if isinstance(default, (list, dict, set)):
                raise TypeError(f"{cls.__name__}.{name}: mutable default {type(default).__name__}")
        required = [f for f in fields if f not in cls._defaults]
        if fields[: len(required)] != tuple(required):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        get = attrgetter(*fields) if fields else (lambda self: ())
        # attrgetter of one name returns the value itself, not a 1-tuple.
        cls._astuple = staticmethod(get if len(fields) != 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        if kwargs or len(args) < len(fields):
            values = dict(zip(fields, args))
            for name, value in kwargs.items():
                if name in values or name not in fields:
                    raise TypeError(f"{type(self).__name__} got an unexpected or repeated field {name!r}")
                values[name] = value
            defaults = self._defaults
            try:
                args = [values[name] if name in values else defaults[name] for name in fields]
            except KeyError as exc:
                raise TypeError(f"{type(self).__name__} missing field {exc.args[0]!r}") from None
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple(self)))
        return f"{type(self).__qualname__}({body})"


def _components(z: np.ndarray) -> None:
    """The rule for every point: a zero or non-finite component of ``z`` is a ValueError."""
    if np.any(z == 0):
        raise ValueError("components must be nonzero")
    if not np.all(np.isfinite(z)):
        raise ValueError("components must be finite")


class PolyPoint(Record):
    """A point with finite, nonzero complex components (Laurent evaluation domain)."""

    z: tuple

    def __post_init__(self):
        comps = tuple(complex(v) for v in self.z)
        if not comps:
            raise ValueError("need at least one component")
        _components(np.array(comps))
        object.__setattr__(self, "z", comps)

    @property
    def dim(self) -> int:
        return len(self.z)

    def on_torus(self) -> bool:
        return bool(np.all(np.abs(_modulus(np.array(self.z)) - 1.0) <= TORUS_TOL))


def eval_laurent(series: FourierSeries, p: PolyPoint) -> complex:
    """sum_k c_k z_1^{k_1} ... z_n^{k_n} at one point: a one-row :func:`eval_batch`."""
    return complex(eval_batch(series, np.array([p.z], dtype=complex))[0])


def eval_batch(series: FourierSeries, points: np.ndarray) -> np.ndarray:
    """Laurent values at the rows of an (N, dim) array of finite, nonzero components.

    The evaluator for arbitrary points; values on the roots-of-unity grid
    come from :func:`eval_grid` instead.  Points go in chunks of
    ``EVAL_BLOCK // (2 * n_modes)`` rows (at least one); each chunk's terms
    come from :func:`_terms` and each row is summed on its own (numpy's
    pairwise sum over a contiguous row).

    No BLAS call and no complex multiply left to numpy: every value depends
    only on its point and the series, never on the other points of the
    batch, on :data:`EVAL_BLOCK` or on numpy's SIMD level.
    """
    z = np.asarray(points, dtype=complex)
    if z.ndim != 2 or z.shape[1] != series.dim:
        raise ValueError(f"points must have shape (N, {series.dim})")
    _components(z)
    out = np.zeros(z.shape[0], dtype=complex)
    if not series.n_modes:
        return out
    rows = max(1, EVAL_BLOCK // (2 * series.n_modes))
    for start in range(0, len(z), rows):
        terms = _terms(z[start : start + rows], series._exponent_tables, series._values)
        out[start : start + rows] = terms.sum(axis=1)
    return out


def _grid_size(n: int, m: int) -> int:
    """m^n, refusing with :class:`GridCapError` when it exceeds the cap."""
    return check_power(_count("m", m), _count("n", n), "grid points")


def _roots(m: int) -> np.ndarray:
    """e^{2 pi i r/m} for r = 0..m, one cmath.exp each."""
    return np.array([cmath.exp(TWO_PI * 1j * r / m) for r in range(m + 1)])


def _grid_indices(n: int, m: int) -> np.ndarray:
    """The (m^n, n) array of node indices l_p - 1 in 0..m-1, rows in lexicographic order.

    Refuses an n or m that is not an integer >= 1 (ValueError) and m^n past
    the cap (:class:`GridCapError`), so callers take it before ``_roots(m)``,
    which divides by m.
    """
    count = _grid_size(n, m)
    return np.indices((m,) * n).reshape(n, count).T


def grid_array(n: int, m: int) -> np.ndarray:
    """The m^n interpolation nodes (e^{2 pi i l_1/m}, ..., e^{2 pi i l_n/m}).

    Rows of an (m^n, n) array, indices 1 <= l_p <= m in lexicographic order.
    Refuses with :class:`GridCapError` when m^n exceeds the cap.
    """
    nodes = _grid_indices(n, m)
    return _roots(m)[1:][nodes]


def eval_grid(series: FourierSeries, m: int) -> np.ndarray:
    """Values at the ``grid_array(series.dim, m)`` nodes, in that order.

    At the node with indices l, a mode's factor in dimension p is
    w^{l_p k_p} = w^{(l_p k_p) mod m}, w = e^{2 pi i/m}, read from one table
    of w^r, r = 0..m-1: integer arithmetic, no complex power.  The sum
    factorises dimension by dimension (sum factorisation; Orszag,
    J. Comput. Phys. 37, 1980) and is contracted from the last dimension to
    the first.  After contracting dimension p, the rows that share a
    residue prefix (k_1, ..., k_{p-1}) mod m are merged, so the level holds
    at most m^(p-1) rows of m^(n-p+1) partial sums: at most m^n complex
    elements.  Rows are contracted in blocks of at most
    max(:data:`EVAL_BLOCK`, m^(n-p+1)) complex elements (one row at
    least).  So besides the n_modes input and the level itself (at most
    m^n partial sums), the working memory is a few such blocks, whatever
    the number of modes: 128 KiB each while a row holds at most
    EVAL_BLOCK = 2^13 partial sums.  Refuses with :class:`GridCapError`
    exactly as :func:`grid_array` does.

    Every partial sum adds its rows one by one in row order (``np.add.at``),
    and every product is a :func:`_product`, so no value depends on
    :data:`EVAL_BLOCK`.
    """
    count = _grid_size(series.dim, m)
    if not series.n_modes:
        return np.zeros(count, dtype=complex)
    roots = _roots(m)[:m]
    l = np.arange(1, m + 1)
    residues = series._exponents % m
    order = np.lexsort(residues.T[::-1])
    keys = residues[order]
    sums = series._values[order][:, None]
    for p in range(series.dim - 1, -1, -1):
        # Sorted rows: each residue prefix keys[:, :p] is one contiguous group.
        new_group = np.any(keys[1:, :p] != keys[:-1, :p], axis=1)
        group = np.concatenate(([0], np.cumsum(new_group)))
        width = m * sums.shape[1]
        merged = np.zeros((group[-1] + 1, width), dtype=complex)
        rows = max(1, EVAL_BLOCK // width)
        for start in range(0, len(keys), rows):
            stop = start + rows
            factor = roots[(keys[start:stop, p, None] * l) % m]
            block = _product(factor[:, :, None], sums[start:stop, None, :])
            np.add.at(merged, group[start:stop], block.reshape(-1, width))
        keys = keys[np.concatenate(([True], new_group))]
        sums = merged
    return sums[0]


def _columns(objects: list, dim: int | None):
    """(dim, exponents, values) of decoded coefficient objects.

    Each object must have exactly the fields k, re and im: k a non-empty
    list of JSON integers (no bools, no floats) of the length ``dim`` (the
    first object's, when ``dim`` is None) and re, im JSON numbers giving a
    finite coefficient.  Raises ``ValueError`` naming the first rule broken.
    """
    if set(map(type, objects)) != {dict}:
        raise ValueError("expected a JSON object")
    try:
        k = [obj["k"] for obj in objects]
        re = [obj["re"] for obj in objects]
        im = [obj["im"] for obj in objects]
    except KeyError as exc:
        raise ValueError("need fields k, re, im") from exc
    if set(map(len, objects)) != {3}:
        raise ValueError("unexpected field; a line holds exactly k, re, im")
    if set(map(type, k)) != {list}:
        raise ValueError("k must be a list of integers")
    if dim is None:
        dim = len(k[0])
        if not dim:
            raise ValueError("empty index")
    if set(map(len, k)) != {dim}:
        raise ValueError(f"index length differs from the first line's {dim}")
    if set(map(type, itertools.chain.from_iterable(k))) != {int}:
        raise ValueError("index entries must be JSON integers")
    if not set(map(type, re)) | set(map(type, im)) <= {int, float}:
        raise ValueError("re and im must be JSON numbers")
    values = np.empty(len(objects), dtype=complex)
    try:
        exponents = _index_array(k, dim)
        values.real = re
        values.imag = im
    except OverflowError as exc:
        raise ValueError("re and im must be finite numbers") from exc
    if not np.all(np.isfinite(values)):
        raise ValueError("coefficient is not finite")
    return dim, exponents, values


def _decode_block(lines: list, dim: int | None):
    """:func:`_columns` of stripped, non-blank lines, in one json.loads call.

    Every line must start with "{" and end with "}" and the block must give
    one object per line.  Since an accepted object holds no nested object
    and no string value, its braces are the only ones in the text, so each
    line then holds exactly one whole object.
    """
    objects = json.loads("[" + ",".join(lines) + "]")
    whole = all(map(str.startswith, lines, itertools.repeat("{"))) and all(
        map(str.endswith, lines, itertools.repeat("}"))
    )
    if len(objects) != len(lines) or not whole:
        raise ValueError("expected one JSON object per line")
    return _columns(objects, dim)


def _bad_line(path, first: int, block: list, dim: int | None) -> ValueError:
    """The error of the first malformed line of a block that failed to decode."""
    for lineno, raw in enumerate(block, start=first):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            return ValueError(f"{path}:{lineno}: invalid JSON: {exc}")
        try:
            dim = _columns([obj], dim)[0]
        except ValueError as exc:
            return ValueError(f"{path}:{lineno}: {exc}")
    return ValueError(f"{path}:{first}: malformed block")


def _line_of_row(path, row: int) -> int:
    """Line number of the ``row``-th (0-based) non-blank line of a file."""
    with Path(path).open("r", encoding="utf-8") as fh:
        rows = (n for n, line in enumerate(fh, start=1) if line.strip())
        return next(itertools.islice(rows, row, None))


def read_coefficients(path) -> FourierSeries:
    """Read a series from a JSON Lines file.

    One object per mode and line: ``{"k": [k1, ..., kn], "re": <number>,
    "im": <number>}``, with exactly these fields.  k holds JSON integers
    (no bools, no floats) with |k_p| <= 2^62; re and im are JSON numbers
    (not bools or strings) and the coefficient is finite.  The dimension is
    the first line's; blank lines are skipped; a duplicate index is an
    error.  Every error is a ``ValueError`` naming ``path:line``.

    Lines are decoded :data:`READ_BLOCK` at a time into columns; only a
    block that fails is decoded again line by line, to name the line.
    """
    dim = None
    exponents, values = [], []
    with Path(path).open("r", encoding="utf-8") as fh:
        first = 1
        while block := list(itertools.islice(fh, READ_BLOCK)):
            lines = [line for line in map(str.strip, block) if line]
            if lines:
                try:
                    dim, k, v = _decode_block(lines, dim)
                except (ValueError, RecursionError) as exc:
                    raise _bad_line(path, first, block, dim) from exc
                exponents.append(k)
                values.append(v)
            first += len(block)
    if dim is None:
        raise ValueError(f"{path}: no coefficient lines")
    # Each rebinding frees the blocks it joins, so they never sit beside both columns.
    exponents = np.concatenate(exponents)
    values = np.concatenate(values)
    series = FourierSeries.__new__(FourierSeries)
    try:
        series._store(dim, exponents, values)
        return series
    except _DuplicateIndex as exc:
        raise ValueError(f"{path}:{_line_of_row(path, exc.row)}: {exc}") from None


def _atomic_write(path: Path, chunks) -> None:
    """Write the text chunks ``chunks`` (a str is one chunk) to ``path``, in order.

    They go through a temporary file in the same directory, so the file
    appears complete or not at all: a failure, also one raised while the
    chunks are made, removes the temporary file and leaves any earlier
    ``path`` as it was.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            for chunk in (chunks,) if isinstance(chunks, str) else chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_coefficients(series: FourierSeries, path) -> None:
    """Write a series in the JSON Lines coefficient format, atomically.

    Lines in index order, each ``{"im": <float>, "k": [<ints>], "re": <float>}``:
    the bytes ``json.dumps(..., sort_keys=True)`` gives, since a list of
    ints prints with json's ", " separators and json prints floats with
    ``float.__repr__``.
    """
    rows = zip(
        series._exponents.tolist(), series._values.real.tolist(), series._values.imag.tolist()
    )
    text = "".join([f'{{"im": {im!r}, "k": {k}, "re": {re!r}}}\n' for k, re, im in rows])
    _atomic_write(Path(path), text)
