"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from qtorus import FourierSeries, PolyPoint
from qtorus.logspace import NEG_INF, log_sum_exp
from qtorus.series import PRUNE_THRESHOLD, TWO_PI, Record, _modulus


#: Values that are not an integer >= 1, each refused where a count is read.
NOT_COUNTS = [math.nan, math.inf, 0, -5, 5.0]


def refused_count(name, value, least=1):
    """The ValueError message of a count argument ``name`` given ``value``, as a regex."""
    return f"^{name} must be an integer >= {least}, got {re.escape(repr(value))}$"


#: Values that are not a finite real, each refused where a real is read.
NOT_REALS = [True, math.nan, math.inf, -math.inf, 10**400, "2", None]


def refused_real(name, value, floor=None, strict=False):
    """The ValueError message of a real argument ``name`` given ``value``, as a regex."""
    bound = "" if floor is None else f" and {'>' if strict else '>='} {floor}"
    return f"^{re.escape(name)} must be finite{re.escape(bound)}, got {re.escape(repr(value))}$"


def fields(value):
    """A record as a dict of its fields, nested records too, else ``value``.

    For ``np.testing.assert_equal``: a report's columns are arrays, which
    the record's own ``==`` cannot compare.
    """
    if isinstance(value, Record):
        return {name: fields(getattr(value, name)) for name in value._fields}
    return value


def builtin_modulus(c: complex) -> float:
    """The builtin ``abs(c)``, with inf where it raises OverflowError (a modulus past the float range).

    A NaN part without an infinite one gives NaN first: CPython's abs
    returns NaN there without clearing errno, so an ERANGE left by an
    earlier overflow (say in libm's hypot) makes it raise OverflowError.
    """
    if cmath.isnan(c) and not cmath.isinf(c):
        return math.nan
    try:
        return abs(c)
    except OverflowError:
        return math.inf


def builtin_sup(values: np.ndarray) -> float:
    """max |v| over ``values`` by :func:`builtin_modulus`; NaN when some modulus is NaN, as np.max."""
    moduli = list(map(builtin_modulus, values.ravel().tolist()))
    return math.nan if any(map(math.isnan, moduli)) else max(moduli)


def dict_series_coeffs(dim: int, coeffs) -> dict:
    """The normalized coefficient dict of a series, one mode at a time.

    The oracle for ``FourierSeries.from_arrays`` and the dict constructor:
    each index must be ``dim`` entries equal to integers, each coefficient
    finite with a finite modulus, and the kept moduli, added one by one in
    index order, must have a finite sum (``ValueError`` otherwise);
    coefficients below PRUNE_THRESHOLD are dropped and the keys sorted.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    clean = {}
    for raw_k, raw_c in coeffs.items():
        k = tuple(raw_k)
        if len(k) != dim:
            raise ValueError(f"index {k!r} has length {len(k)}, expected {dim}")
        index = []
        for x in k:
            if x != int(x):
                raise ValueError(f"index entries must be integers, got {x!r}")
            index.append(int(x))
        c = complex(raw_c)
        if not cmath.isfinite(c):
            raise ValueError(f"coefficient at index {index} is not finite: {c!r}")
        if builtin_modulus(c) == math.inf:
            raise ValueError(f"coefficient at index {index} has a modulus past the float range: {c!r}")
        if abs(c) >= PRUNE_THRESHOLD:
            clean[tuple(index)] = c
    clean = dict(sorted(clean.items()))
    total = 0.0
    for k, c in clean.items():
        total += abs(c)
        if total == math.inf:
            raise ValueError(f"coefficient at index {list(k)} takes the sum of moduli past the float range")
    return clean


def json_write_coefficients(series: FourierSeries, path) -> None:
    """One ``json.dumps(..., sort_keys=True)`` line per mode: the oracle for the writer."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for k, c in series.coeffs.items():
            fh.write(json.dumps({"k": list(k), "re": c.real, "im": c.imag}, sort_keys=True))
            fh.write("\n")


def loop_read_coefficients(path) -> tuple[int, dict]:
    """(dim, normalized coefficient dict) of a JSONL file, one ``json.loads`` per line.

    The line-at-a-time reader the columnar one replaced, kept to compare
    results and memory on valid files.
    """
    coeffs: dict = {}
    dim = None
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            k = tuple(obj["k"])
            if dim is None:
                dim = len(k)
            if k in coeffs:
                raise ValueError(f"{path}:{lineno}: duplicate index {list(k)}")
            coeffs[k] = complex(float(obj["re"]), float(obj["im"]))
    return dim, dict_series_coeffs(dim, coeffs)


def loop_gen_series(spec) -> dict:
    """The coefficient dict of an analytic or gevrey family, one mode at a time.

    The oracle for ``gen_series``: iterates the sup-norm box in
    itertools.product order and calls math.exp once per mode.
    """
    coeffs = {}
    for k in itertools.product(range(-spec.radius, spec.radius + 1), repeat=spec.dim):
        l1 = sum(abs(x) for x in k)
        if spec.kind == "analytic":
            coeffs[k] = math.exp(-spec.decay * l1)
        else:
            coeffs[k] = math.exp(-float(l1) ** (1.0 / spec.exponent))
    return dict_series_coeffs(spec.dim, coeffs)


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


def derivative_l2_norm(series: FourierSeries, alpha) -> float:
    """ln of the L2 norm of the alpha-derivative; -inf when the sum is empty.

    ln sqrt(sum_k k^{2 alpha} |c_k|^2) over the modes with k_p != 0 wherever
    alpha_p > 0: the brute-force side of the pure-direction identity for
    ln M_j, one norm per multi-index.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != series.dim:
        raise ValueError(f"alpha has length {len(alpha)}, expected {series.dim}")
    if any(a < 0 for a in alpha):
        raise ValueError("alpha entries must be >= 0")
    if not series.n_modes:
        return NEG_INF

    K = series._exponents
    ln_c = np.log(_modulus(series._values))
    active = [p for p in range(series.dim) if alpha[p] > 0]
    if active:
        mask = np.all(K[:, active] != 0, axis=1)
        if not mask.any():
            return NEG_INF
        with np.errstate(divide="ignore"):
            ln_k = np.log(np.abs(K[np.ix_(mask.nonzero()[0], active)]).astype(float))
        weights = np.array([alpha[p] for p in active], dtype=float)
        expo = ln_k @ weights
        terms = 2.0 * expo + 2.0 * ln_c[mask]
    else:
        terms = 2.0 * ln_c
    return 0.5 * log_sum_exp(terms)


def random_series(rng, dim, max_modes=40, radius=10) -> FourierSeries:
    count = int(rng.integers(1, max_modes + 1))
    coeffs = {}
    for _ in range(count):
        k = tuple(int(x) for x in rng.integers(-radius, radius + 1, size=dim))
        coeffs[k] = complex(rng.normal(), rng.normal())
    return FourierSeries(dim, coeffs)


def torus_point(theta) -> PolyPoint:
    """The unit-modulus point (e^{i theta_1}, ...), each angle first reduced to [0, 2 pi)."""
    return PolyPoint(tuple(cmath.exp(1j * (float(t) % TWO_PI)) for t in theta))


def random_torus_point(rng, dim) -> PolyPoint:
    return torus_point(rng.uniform(0.0, 2.0 * math.pi, size=dim))


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


class SlotFold(NamedTuple):
    """The diagonal fold slot by slot, as the visit loop builds it.

    ``terms`` maps every slot (r, beta) to its absorbed coefficient sum
    (zero-initialized); ``covered`` holds the input indices absorbed
    somewhere; ``collisions`` lists the (r, beta, l) visits whose target
    index an earlier slot had already absorbed.
    """

    dim: int
    terms: dict
    covered: frozenset
    collisions: tuple

    def series(self) -> FourierSeries:
        """The slots merged into a series: z^(beta r) with the slot's sum.

        Slots sharing an exponent (the 2^n slots of r = 0) add in slot order.
        """
        merged: dict = {}
        for (r, beta), c in self.terms.items():
            e = tuple(b * r for b in beta)
            merged[e] = merged.get(e, 0j) + c
        return FourierSeries(self.dim, merged)


def loop_diagonal_fold(series: FourierSeries, m: int) -> SlotFold:
    """The diagonal fold by visiting every slot target in (r, beta, l) order.

    The oracle for ``diagonal_fold`` (which must equal its ``series()`` bit
    for bit): for each r, each sign vector beta (+1 before -1) and each
    l >= 0 (lexicographic), the target index (b_p (r + m l_p))_p absorbs
    its coefficient at its first visit; later visits are recorded as
    collisions.
    """
    n = series.dim
    radius = series.support_radius()
    betas = list(itertools.product((1, -1), repeat=n))
    terms = {(r, beta): 0j for r in range(m) for beta in betas}
    seen: set = set()
    collisions = []
    for r in range(m):
        max_l = (radius - r) // m if radius >= r else -1
        if max_l < 0:
            continue
        for beta in betas:
            for l in itertools.product(range(max_l + 1), repeat=n):
                target = tuple(b * (r + m * lp) for b, lp in zip(beta, l))
                c = series.coeffs.get(target)
                if c is None:
                    continue
                if target in seen:
                    collisions.append((r, beta, l))
                    continue
                seen.add(target)
                terms[(r, beta)] += c
    return SlotFold(dim=n, terms=terms, covered=frozenset(seen), collisions=tuple(collisions))


def loop_alias_fold(series: FourierSeries, m: int) -> FourierSeries:
    """A_rho = sum_{k = rho mod m} c_k, adding the modes one at a time in index order.

    The oracle for ``alias_fold``.
    """
    folded: dict = {}
    for k, c in series.coeffs.items():
        rho = tuple(kp % m for kp in k)
        folded[rho] = folded.get(rho, 0j) + c
    return FourierSeries(series.dim, folded)


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
    return DerivativeNormProfile(dim=dim, ln_m=ln_m)


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
    """(w_full, w_shifted, sat_full) on r = 1..r_max by a full scan.

    w_full(r) = max_{0<=j<=J} ((j-3) ln r - ln M_j) and w_shifted takes the
    max over j >= 3 of the same float terms; each value is the term at the
    first argmax, and sat_full flags a full argmax at j_max.  Where both
    maxima are equal w_full takes the shifted term: the two differ at most
    in the sign of a zero, which only the negative weights j - 3 < 0 can
    make negative.  With j_max < 3 there is no shifted term and w_shifted
    is -inf.
    """
    j_max = profile.j_max
    ln_m = profile.ln_m_array()
    ln_r = np.array([math.log(r) for r in range(1, r_max + 1)])
    terms = (np.arange(j_max + 1, dtype=float) - 3.0)[None, :] * ln_r[:, None] - ln_m[None, :]
    rows = np.arange(r_max)
    arg_full = terms.argmax(axis=1)
    w_full = terms[rows, arg_full]
    if j_max >= 3:
        w_shift = terms[rows, terms[:, 3:].argmax(axis=1) + 3]
        w_full = np.where(w_shift >= w_full, w_shift, w_full)
    else:
        w_shift = np.full(r_max, -np.inf)
    return w_full, w_shift, arg_full == j_max


def dense_prefix_minima(profile, m_max, n):
    """(ln_t, argmin_r, ln_theta) for m = 1..m_max from :func:`dense_fold_weights`.

    ln t_m and ln theta(m) are the prefix minima (``np.minimum.accumulate``)
    of w / (n r); argmin_r is the first r whose value equals ln t_m.
    """
    w_full, w_shift, _ = dense_fold_weights(profile, m_max)
    nr = n * np.arange(1, m_max + 1, dtype=float)
    values = w_full / nr
    ln_t = np.minimum.accumulate(values)
    first = {}
    for r, value in enumerate(values.tolist(), start=1):
        first.setdefault(value, r)
    return ln_t, np.array([first[v] for v in ln_t.tolist()]), np.minimum.accumulate(w_shift / nr)


@functools.lru_cache(maxsize=16)
def _exact_hull(ln_m: tuple):
    """Vertices (j, ln M_j) of the lower convex hull of the float ln M_j, in rational arithmetic."""
    hull = []
    for j, v in enumerate(ln_m):
        q = (j, Fraction(v))
        # Drop the last vertex while it lies on or above the chord to q.
        while len(hull) >= 2 and (
            (hull[-1][1] - hull[-2][1]) * (q[0] - hull[-1][0])
            >= (q[1] - hull[-1][1]) * (hull[-1][0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(q)
    return hull


def exact_carleman_integral(profile, x_lo, x_hi, dps=40):
    """int_{x_lo}^{x_hi} -ln tau(e^x) e^{-x} dx, x = ln r, to ``dps`` digits with mpmath.

    It is int -ln tau(r) / r^2 dr over [e^x_lo, e^x_hi].  -ln tau(e^x) =
    max_j (j x - ln M_j) is piecewise linear in x: hull vertex j of the
    points (j, ln M_j) attains it for x between the slopes of its two hull
    edges.  On that piece (j x - ln M_j) e^{-x} has the antiderivative
    F_j = -(j x + j - ln M_j) e^{-x}, so the integral is a sum over the
    pieces.  The hull and its slopes are exact rationals of the float ln M_j
    (finite); only the slopes, the bounds and F_j are rounded, at ``dps``.
    """
    import mpmath

    hull = _exact_hull(profile.ln_m)
    with mpmath.workdps(dps):
        def mp(q):
            return mpmath.mpf(q.numerator) / q.denominator

        slopes = [mp((b - a) / (k - i)) for (i, a), (k, b) in zip(hull, hull[1:])]
        lows = [-mpmath.inf, *slopes]
        highs = [*slopes, mpmath.inf]
        x_lo, x_hi = mpmath.mpf(x_lo), mpmath.mpf(x_hi)
        total = mpmath.mpf(0)
        for (j, ln_mj), low, high in zip(hull, lows, highs):
            a, b = max(x_lo, low), min(x_hi, high)
            if a < b:
                ln_mj = mp(ln_mj)
                total += (j * a + j - ln_mj) * mpmath.exp(-a) - (j * b + j - ln_mj) * mpmath.exp(-b)
        return total


def loop_write_csv(path, header_lines, names, rows) -> None:
    """The CSV artifact formatted one cell at a time: the oracle for ``cli._write_csv``.

    ``rows`` are tuples; a bool is written 1/0, a float by repr and anything
    else by str.
    """

    def fmt(value) -> str:
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    out = [f"# {line}" for line in header_lines]
    out.append(",".join(names))
    for row in rows:
        out.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def loop_svg_points(xs, ys) -> str:
    """The polyline ``points`` of ``cli.write_svg_line_chart``, one point at a time."""
    left, right, top, bottom = 70, 610, 40, 350
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return left + (right - left) * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return bottom - (bottom - top) * (y - y_lo) / (y_hi - y_lo)

    return " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))


def joined_write_csv(path, header_lines, names, columns) -> None:
    """The CSV writer that formats every row, joins them and writes the text once.

    The oracle for the streaming ``cli._write_csv``: columns of Python
    floats (repr), ints (str) or bools (1/0), one ``str.format`` per row.
    """
    fields = []
    for col in columns:
        kinds = set(map(type, col))
        assert len(kinds) <= 1 and kinds <= {float, int, bool}, kinds
        fields.append({float: "{!r}", int: "{}", bool: "{:d}"}[kinds.pop()] if kinds else "{}")
    out = [f"# {line}" for line in header_lines]
    out.append(",".join(names))
    out.extend(map(",".join(fields).format, *columns))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8", newline="")


def joined_write_svg(path, xs, ys, title, x_label, y_label, header_lines=()) -> None:
    """The SVG chart writer that builds the whole text, then writes it once.

    The oracle for the streaming ``cli.write_svg_line_chart``; bounds come
    from Python's min and max over lists of floats.
    """
    width, height = 640, 400
    left, right, top, bottom = 70, 610, 40, 350
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    with np.errstate(all="ignore"):
        px = left + (right - left) * (np.array(xs) - x_lo) / (x_hi - x_lo)
        py = bottom - (bottom - top) * (np.array(ys) - y_lo) / (y_hi - y_lo)
    pts = " ".join(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))
    svg = [f"<!-- {line} -->" for line in header_lines]
    svg += [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="22" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
        f'<text x="{(left + right) // 2}" y="{height - 10}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>',
        f'<text x="18" y="{(top + bottom) // 2}" font-size="12" '
        f'transform="rotate(-90 18 {(top + bottom) // 2})" text-anchor="middle">{y_label}</text>',
        f'<text x="{left}" y="{bottom + 16}" font-size="10" text-anchor="middle">{x_lo:.6g}</text>',
        f'<text x="{right}" y="{bottom + 16}" font-size="10" text-anchor="middle">{x_hi:.6g}</text>',
        f'<text x="{left - 6}" y="{bottom}" font-size="10" text-anchor="end">{y_lo:.6g}</text>',
        f'<text x="{left - 6}" y="{top + 4}" font-size="10" text-anchor="end">{y_hi:.6g}</text>',
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        "</svg>",
    ]
    Path(path).write_text("\n".join(svg) + "\n", encoding="utf-8", newline="")


def rng_annulus_sups(interpolant, t, n_samples, seed) -> tuple:
    """(sup |augmented|, sup |fold|, sup |correction|) over the stdlib's annulus samples.

    The samples ``bound_audit`` takes, which it maps from the first
    2 x n_samples x n values of ``random.Random(seed).random()`` (a stream
    CPython keeps the same across versions) and draws once per job.  Here
    they are drawn one by one through ``random.Random(seed).uniform``:
    n_samples x n moduli in [1/t, t], then as many phases in [0, 2 pi).
    Each |v| is the builtin ``abs``, the library's one modulus.
    """
    rng = random.Random(seed)
    shape = (n_samples, interpolant.base.dim)
    count = n_samples * interpolant.base.dim
    moduli = np.array([rng.uniform(1.0 / t, t) for _ in range(count)]).reshape(shape)
    phases = np.array([rng.uniform(0.0, 2.0 * math.pi) for _ in range(count)]).reshape(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        base, correction = interpolant._parts(moduli * np.exp(1j * phases))
        augmented = base + correction
    return tuple(map(builtin_sup, (augmented, base, correction)))
