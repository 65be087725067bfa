"""Batch front-end: ingest coefficients or family specs, emit reports.

Commands
--------
norms    derivative-norm profile CSV (j, lnM_j)
tau      associated-function tables: (r, ln tau, ln tau~) and
         (m, ln t_m, ln theta, d_m, positivity), plus a JSON summary
verdict  integral-trend diagnostic + divergence witness, JSON verdict with
         fit parameters, plot CSV and a minimal SVG chart
interp   interpolant construction, grid-exactness audit and growth-bound
         audit over a range of m

Exit codes: 0 ok, 2 input error, 3 degenerate math, 4 resource cap.
Identical configuration and seed produce byte-identical outputs; no
timestamps are embedded anywhere.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .associated import (
    FIT_MARGIN,
    MIN_FIT_POINTS,
    SATURATION_FRACTION,
    SLOPE_THRESHOLD,
    DegenerateProfileError,
    _ln,
    build_table,
    carleman_diagnostic,
    t_m_sequence,
    witness,
)
from .families import (
    gen_profile,
    gen_series,
    parse_family_spec,
    rescale_to_class,
)
from .interpolate import bound_audit, interpolation_audit
from .norms import build_profile
from .series import (
    FourierSeries,
    GridCapError,
    PolyPoint,
    READ_BLOCK,
    _atomic_write,
    _cap,
    _count,
    _real,
    check_power,
    check_size,
    read_coefficients,
)


def _config_echo(args: argparse.Namespace) -> dict:
    """The version and each flag; a ``_`` name (the command function, a parsed value) is no flag."""
    return {"version": __version__, **{k: v for k, v in vars(args).items() if not k.startswith("_")}}


#: Leaf types that are never a non-finite float.
_NO_FLOAT = frozenset({int, bool, str, type(None)})


def _finite_or_null(value):
    """The payload with every NaN or infinite float replaced by None (JSON null).

    A list or tuple whose items are all such leaves, or all finite floats,
    is returned as it is after one pass over the item types; so is a list
    of such lists (``uncovered_modes``), without a call per inner list.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        if kinds <= _NO_FLOAT or (kinds == {float} and all(map(math.isfinite, value))):
            return value
        if kinds == {list} and _NO_FLOAT.issuperset(map(type, itertools.chain(*value))):
            return value
        return [_finite_or_null(v) for v in value]
    return value


def _json_chunks(value, depth: int = 2):
    """The text of ``json.dumps(value, sort_keys=True, allow_nan=False)``, in pieces.

    The dicts and lists (or tuples) of the outer ``depth`` levels are
    written piece by piece, with json's ", " and ": " separators and the
    keys in sorted order, which is json's text for str keys, the only keys
    an artifact has; every other item is one json.dumps call, which runs
    the C encoder.  That encoder holds every token of its input as a str
    until it joins them, so this way only one inner item's tokens (one
    per-m report of ``interp_report.json``) are alive at a time.
    """
    if depth and isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(sorted(value.items())):
            yield (", " if i else "") + json.dumps(key) + ": "
            yield from _json_chunks(item, depth - 1)
        yield "}"
    elif depth and isinstance(value, (list, tuple)):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ", "
            yield from _json_chunks(item, depth - 1)
        yield "]"
    else:
        yield json.dumps(value, sort_keys=True, allow_nan=False)


def _write_json(path: Path, payload: dict) -> None:
    """One line of strict JSON with sorted keys, then a newline, streamed by :func:`_json_chunks`."""
    _atomic_write(path, itertools.chain(_json_chunks(_finite_or_null(payload)), ["\n"]))


#: The str.format field that prints a CSV cell of each column dtype kind.
_CELL_FIELDS = {"f": "{!r}", "i": "{}", "b": "{:d}"}


def _write_csv(path: Path, header_lines, names, columns) -> None:
    """``# line`` headers, the column names, then one row per position of ``columns``.

    Each column is a 1-D float, int or bool ndarray, all of one length;
    floats are written by repr, ints by str and bools as 1/0.  Rows are
    written :data:`READ_BLOCK` at a time, one ``str.format`` call each.
    """
    for name, col in zip(names, columns):
        if not isinstance(col, np.ndarray) or col.ndim != 1 or col.dtype.kind not in _CELL_FIELDS:
            raise TypeError(f"CSV column {name!r} is not a 1-D float, int or bool array")
    if len({col.size for col in columns}) != 1:
        raise ValueError(f"CSV columns {list(names)} differ in length")
    row = ",".join(_CELL_FIELDS[col.dtype.kind] for col in columns) + "\n"

    def blocks():
        yield "".join(f"# {line}\n" for line in header_lines) + ",".join(names) + "\n"
        for start in range(0, columns[0].size, READ_BLOCK):
            yield "".join(map(row.format, *(c[start : start + READ_BLOCK].tolist() for c in columns)))

    _atomic_write(path, blocks())


def _span(values: np.ndarray) -> tuple:
    """(lo, hi): Python's min and max of the floats of ``values``, hi = lo + 1 if they are equal.

    A NaN first item is both; else no NaN wins, and of equal items (0.0, -0.0) the first does.
    """
    if np.isnan(values[0]):
        return float(values[0]), float(values[0])
    lo, hi = (float(values[np.argmax(values == pick(values))]) for pick in (np.nanmin, np.nanmax))
    return lo, lo + 1.0 if hi == lo else hi


def write_svg_line_chart(
    path: Path, xs, ys, title: str, x_label: str, y_label: str, header_lines=()
) -> None:
    """Minimal self-contained SVG polyline chart, its points written :data:`READ_BLOCK` at a time."""
    width, height = 640, 400
    left, right, top, bottom = 70, 610, 40, 350
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    (x_lo, x_hi), (y_lo, y_hi) = _span(xs), _span(ys)

    def points():
        for start in range(0, xs.size, READ_BLOCK):
            # The scalar formulas left + (right - left) * (x - x_lo) / (x_hi - x_lo)
            # and its y twin, evaluated in the same order on a block of points.
            with np.errstate(all="ignore"):
                px = left + (right - left) * (xs[start : start + READ_BLOCK] - x_lo) / (x_hi - x_lo)
                py = bottom - (bottom - top) * (ys[start : start + READ_BLOCK] - y_lo) / (y_hi - y_lo)
            pts = " ".join(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))
            yield f" {pts}" if start else pts

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
        '<polyline points="',
    ]
    tail = '" fill="none" stroke="#1f77b4" stroke-width="1.5"/>\n</svg>\n'
    _atomic_write(path, itertools.chain(["\n".join(svg)], points(), [tail]))


def _write_artifacts(args: argparse.Namespace, artifacts: dict) -> None:
    """Create --out and write each artifact under its name, in order.

    Every JSON artifact gets the same ``config`` echo and every CSV and SVG
    the same header lines, built here once.
    """
    config = _config_echo(args)
    headers = [f"{k}={config[k]}" for k in sorted(config)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, artifact in artifacts.items():
        if name.endswith(".json"):
            _write_json(out / name, {"config": config, **artifact})
        elif name.endswith(".csv"):
            _write_csv(out / name, headers, *artifact)
        else:
            write_svg_line_chart(out / name, *artifact, header_lines=headers)


# ---------------------------------------------------------------------------
# The pre-flight plan
# ---------------------------------------------------------------------------

#: The least value of each integer flag, by argparse dest: (flag, least).  --rmax
#: is 1 for tau and 2 for verdict, whose trend fit over r = 1..rmax needs two points.
_FLOORS = {"n": ("--n", 1), "jmax": ("--Jmax", 0), "seed": ("--seed", 0), "samples": ("--samples", 1)}


def _parse_m_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise ValueError(f"--m needs an integer A or a range A..B, got {text!r}") from None
    if a < 1 or b < a:
        raise ValueError(f"bad --m range {text!r}")
    return range(a, b + 1)


def _parse_z0(text: str) -> PolyPoint:
    try:
        comps = [complex(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--z0 needs comma-separated complex numbers, got {text!r}") from None
    try:
        point = PolyPoint(tuple(comps))
    except ValueError as exc:
        raise ValueError(f"--z0 {exc}, got {text!r}") from None
    if not point.on_torus():
        raise ValueError("--z0 components must have modulus 1")
    return point


def _plan(args: argparse.Namespace) -> None:
    """Refuse, before any work, what the job may not ask for, naming the flag.

    The flag floors, --m, interp's --t and --z0, the input and family spec,
    then the sizes argv fixes against the cap; a flag goes through the
    library's check of its kind.  ``args._m_grid``, ``args._z0`` and
    ``args._spec`` keep what was parsed.  What needs n (interp's sizes,
    --z0's component count) waits for its series.
    """
    given = vars(args)
    floors = {**_FLOORS, "rmax": ("--rmax", 2 if args.command == "verdict" else 1)}
    for dest, (flag, least) in floors.items():
        if dest in given:
            _count(flag, given[dest], least)
    args._m_grid = _parse_m_range(args.m) if "m" in given else None
    if args.command == "interp" and not args.tm:
        _real("--t", args.t, 1, strict=True)
    args._z0 = _parse_z0(args.z0) if given.get("z0") is not None else None
    if bool(args.input) == bool(args.family):
        raise ValueError("give exactly one of --input PATH and --family SPEC")
    spec = args._spec = parse_family_spec(args.family, dim=args.n) if args.family else None
    profile_family = spec is not None and spec.kind == "profile"
    if profile_family and args.command == "interp":
        raise ValueError("profile families have no spectrum; interp needs one")
    if args.command == "tau":
        check_size(args.rmax, "points of the --rmax grid")
    if args._m_grid is not None:
        check_size(args._m_grid[-1], "points of the --m grid")
    check_size((spec.j_max if profile_family else args.jmax) + 1, "profile orders (Jmax + 1)")


def _load_series(args: argparse.Namespace) -> FourierSeries:
    return read_coefficients(args.input) if args._spec is None else gen_series(args._spec)


def _load_profile(args: argparse.Namespace):
    """The profile of a ``profile:`` family, or of the series the input gives."""
    if args._spec is not None and args._spec.kind == "profile":
        return gen_profile(args._spec)
    return build_profile(_load_series(args), args.jmax)


# ---------------------------------------------------------------------------
# Commands
#
# Each command does all its math and returns its artifacts, file name to
# content, in the order they are written: a JSON payload (a dict, to which
# the writer adds the ``config`` echo), a CSV as (names, columns) or an SVG
# chart as (xs, ys, title, x_label, y_label).  Only :func:`_write_artifacts`,
# which ``main`` calls, touches --out.
# ---------------------------------------------------------------------------

def _effective(profile) -> dict:
    """Parameters a run actually used, which the config echo may not show."""
    return {"j_max": profile.j_max, "dim": profile.dim}


def cmd_norms(args: argparse.Namespace) -> dict:
    profile = _load_profile(args)
    return {"profile.csv": (("j", "lnM"), (np.arange(len(profile.ln_m)), profile.ln_m_array()))}


def cmd_tau(args: argparse.Namespace) -> dict:
    profile = _load_profile(args)
    table = build_table(profile, range(1, args.rmax + 1))
    wit = witness(profile, profile.dim, args._m_grid, normalize=False)
    return {
        "tau_table.csv": (
            ("r", "ln_tau", "ln_tau_shifted"),
            (table.r_grid, table.ln_tau, table.ln_tau_shifted),
        ),
        "witness_table.csv": (
            ("m", "ln_t", "ln_theta", "d", "theta_positive"),
            (wit.m_grid, wit.ln_t, wit.ln_theta, wit.witness, wit.theta_positive),
        ),
        "tau_summary.json": {
            "effective": _effective(profile),
            "r0_estimate": table.r0_estimate,
            "saturated_argmin_count": int(np.count_nonzero(wit.argmin_saturated)),
            "chain_violations": wit.chain_violations,
            "theta_positive_count": int(np.count_nonzero(wit.theta_positive)),
        },
    }


def _fit_payload(fit) -> dict | None:
    if fit is None:
        return None
    return {"slope": fit.slope, "intercept": fit.intercept, "rmse": fit.rmse}


def cmd_verdict(args: argparse.Namespace) -> dict:
    profile = _load_profile(args)
    report = carleman_diagnostic(profile, args.rmax)
    wit = witness(profile, profile.dim, args._m_grid)
    cutoffs = {
        "slope_threshold": SLOPE_THRESHOLD,
        "fit_margin": FIT_MARGIN,
        "saturation_fraction": SATURATION_FRACTION,
        "min_fit_points": MIN_FIT_POINTS,
    }
    payload = {
        "effective": {**_effective(profile), **cutoffs},
        "carleman": {
            "verdict": report.verdict,
            "saturated_fraction": report.saturated_fraction,
            "saturation_flag": report.saturated_fraction > SATURATION_FRACTION,
            "last_decade_increment": report.last_decade_increment,
            "fit_linear": _fit_payload(report.fit_linear),
            "fit_sqrt": _fit_payload(report.fit_sqrt),
            "partial_integral_final": float(report.partial_integral[-1]),
        },
        "witness": {
            "classification": wit.classification,
            "slope_d_vs_log_m": wit.slope,
            "normalization_shift": wit.normalization_shift,
            "chain_violations": wit.chain_violations,
            "saturated_argmin_count": int(np.count_nonzero(wit.argmin_saturated)),
            "fit_linear": _fit_payload(wit.fit_linear),
            "fit_sqrt": _fit_payload(wit.fit_sqrt),
        },
        "overall": report.verdict,
    }
    return {
        "verdict.json": payload,
        "witness_plot.csv": (("m", "d"), (wit.m_grid, wit.witness)),
        "witness_plot.svg": (_ln(wit.m_grid), wit.witness, "divergence witness", "ln m", "d_m"),
    }


def cmd_interp(args: argparse.Namespace) -> dict:
    m_grid = args._m_grid
    series = _load_series(args)
    # Past the float range every tolerance 1e-9 (1 + sum |c_k|) is inf, and a fold's residue sum can be.
    if not math.isfinite(series.abs_sum()):
        source = f"--input {args.input}" if args.input else f"--family {args.family}"
        raise ValueError(f"{source}: the coefficient moduli sum past the float range")
    n = series.dim
    # The sizes that need n and K: the largest grid, the samples, then all grids and the
    # sampled terms of all folds (min(K, m^n) modes at most each), summed until past the cap.
    check_power(m_grid[-1], n, "points of the --m grid in dimension n")
    check_size(args.samples * n, "sample components (--samples x n)")
    limit, nodes, terms = _cap(), 0, 0
    for m in m_grid:
        nodes += m**n
        terms += args.samples * min(series.n_modes, m**n)
        if nodes > limit or terms > limit:
            break
    check_size(nodes, f"grid points summed over --m {m_grid[0]}..{m}")
    check_size(terms, f"sampled terms (--samples x fold modes) summed over --m {m_grid[0]}..{m}")
    # Fixed default angle; irrational multiple of pi so z0^m never lands
    # exactly on the degenerate locus for the m values in use.
    z0 = args._z0 or PolyPoint(tuple(cmath.exp(0.7j) for _ in range(n)))
    if z0.dim != n:
        raise ValueError(f"--z0 needs {n} comma-separated components")
    rescale = None
    if args.tm:
        # D(t_m) sampling presumes the normalization M_3 < 1/2 (otherwise
        # t_m <= 1 and the annulus is empty), so rescale into it first.
        rescaled = rescale_to_class(series)
        series = rescaled.series
        rescale = {"scale": rescaled.scale, "normalized": rescaled.normalized}
    profile = build_profile(series, args.jmax)
    t_grid = [args.t] * len(m_grid)
    if args.tm:  # with Jmax < 3 the head terms alone can take a t_m to 1 or below
        t_grid = [math.exp(ln_t) for ln_t in t_m_sequence(profile, m_grid[-1], n)[m_grid[0] - 1 :]]
        for m, t_val in zip(m_grid, t_grid):
            if not 1 < t_val < math.inf:
                raise ValueError(f"--tm needs every t_m finite and > 1, got t_m = {t_val} at m = {m}")
    reports = []
    for m, t_val in zip(m_grid, t_grid):
        audit = interpolation_audit(series, m, z0, engine=args.engine)
        bounds = bound_audit(audit.interpolant, profile, t_val, n_samples=args.samples, seed=args.seed)
        reports.append(
            {
                "m": m,
                "t": t_val,
                "engine": args.engine,
                "max_grid_error": audit.max_grid_error,
                "z0_error": audit.z0_error,
                "tolerance": audit.tolerance,
                "grid_ok": audit.grid_ok,
                "degenerate_z0": audit.interpolant.degenerate_z0,
                "uncovered_modes": audit.uncovered_modes.tolist(),
                "sup_augmented": bounds.lhs_max,
                "empirical_cf": bounds.empirical_cf,
                "empirical_c1": bounds.empirical_c1,
                "empirical_c2": bounds.empirical_c2,
                "ln_rhs_growth": bounds.ln_rhs_growth,
                "ln_rhs_base": bounds.ln_rhs_base,
                "ln_rhs_correction": bounds.ln_rhs_correction,
                "seed": bounds.seed,
                "n_samples": bounds.n_samples,
            }
        )
    sups = np.array([r["sup_augmented"] for r in reports])
    effective = {
        **_effective(profile),
        "n_modes": series.n_modes,
        "support_radius": series.support_radius(),
        "rescale": rescale,
    }
    return {
        "interp_report.json": {"effective": effective, "per_m": reports},
        "interp_sup.csv": (("m", "sup_augmented"), (np.asarray(m_grid), sups)),
    }


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", type=str, help="JSONL coefficient file")
    parser.add_argument("--family", type=str, help="family spec, e.g. analytic:a=1:K=100")
    parser.add_argument("--n", type=int, default=1, help="dimension for --family input")
    parser.add_argument("--Jmax", dest="jmax", type=int, default=24, help="profile depth")
    parser.add_argument("--seed", type=int, default=7, help="annulus sample seed (read by interp)")
    parser.add_argument("--out", type=str, default="qtorus_out", help="output directory")


def _add_m(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=str, default="2..64", help="m range A..B")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtorus",
        description="Coefficient-driven growth diagnostics and roots-of-unity "
        "interpolation for sparse series on the n-torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norms = sub.add_parser("norms", help="derivative-norm profile CSV")
    _add_shared(p_norms)
    p_norms.set_defaults(_func=cmd_norms)

    p_tau = sub.add_parser("tau", help="associated-function tables")
    _add_shared(p_tau)
    _add_m(p_tau)
    p_tau.add_argument("--rmax", type=int, default=100, help="integer r grid upper end")
    p_tau.set_defaults(_func=cmd_tau)

    p_verdict = sub.add_parser("verdict", help="trend verdicts and witness plot")
    _add_shared(p_verdict)
    _add_m(p_verdict)
    p_verdict.add_argument("--rmax", type=int, default=1000)
    p_verdict.set_defaults(_func=cmd_verdict)

    p_interp = sub.add_parser("interp", help="interpolation and bound audits")
    _add_shared(p_interp)
    _add_m(p_interp)
    p_interp.add_argument("--samples", type=int, default=256, help="annulus samples per m")
    p_interp.add_argument("--t", type=float, default=1.25, help="fixed annulus radius")
    p_interp.add_argument(
        "--tm",
        action="store_true",
        help="sample each m on D(t_m) (rescales the series so M_3 < 1/2)",
    )
    p_interp.add_argument("--z0", type=str, default=None, help="comma-separated components")
    p_interp.add_argument(
        "--engine", choices=("diagonal", "alias"), default="alias"
    )
    p_interp.set_defaults(_func=cmd_interp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _plan(args)
        _write_artifacts(args, args._func(args))
    except (GridCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, GridCapError):
            return 4
        return 3 if isinstance(exc, DegenerateProfileError) else 2
    return 0


def _observed() -> bool:
    """Whether a profiler, tracer or sys.monitoring tool is attached.

    From Python 3.12 on cProfile registers as a sys.monitoring tool, and
    ``sys.getprofile()`` stays None under it.
    """
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


def run() -> NoReturn:
    """The process entry point: ``main()``, then exit without interpreter teardown.

    Every artifact is written, closed and renamed into place before ``main``
    returns, so once the standard streams are flushed nothing is left to do
    but tear down numpy and qtorus: clear every module and run the cyclic
    garbage collector over what the imports left.  ``os._exit`` skips that,
    along with any ``atexit`` handler (qtorus registers none).  A
    ``SystemExit`` from the parser, an uncaught exception, or a profiler or
    tracer that reports at exit (``python -m cProfile``, ``python -m
    trace``) take the normal exit.  Call ``main`` to run a job in-process.
    """
    code = main()
    if _observed():
        sys.exit(code)
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
