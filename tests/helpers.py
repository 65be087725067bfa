"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import cmath
import itertools
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from qtorus import FourierSeries, PolyPoint
from qtorus.logspace import NEG_INF, log_sum_exp
from qtorus.series import PRUNE_THRESHOLD, TWO_PI


def dict_series_coeffs(dim: int, coeffs) -> dict:
    """The normalized coefficient dict of a series, one mode at a time.

    The oracle for ``FourierSeries.from_arrays`` and the dict constructor:
    each index must be ``dim`` entries equal to integers, each coefficient
    finite (``ValueError`` otherwise); coefficients below PRUNE_THRESHOLD
    are dropped and the keys sorted.
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
        if abs(c) >= PRUNE_THRESHOLD:
            clean[tuple(index)] = c
    return dict(sorted(clean.items()))


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
    ln_c = series._log_abs_values
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
