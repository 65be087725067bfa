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
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .associated import (
    DEFAULT_TREND,
    DegenerateProfileError,
    TrendConfig,
    build_table,
    carleman_diagnostic,
    t_m_sequence,
    witness,
)
from .families import (
    FamilySpec,
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
    _atomic_write,
    check_power,
    check_size,
    read_coefficients,
)


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func", "out"}
    echo = {"version": __version__, "out": str(args.out)}
    for key, value in sorted(vars(args).items()):
        if key in skip or key.startswith("_"):
            continue
        echo[key] = value if not isinstance(value, Path) else str(value)
    return echo


#: Leaf types that are never a non-finite float.
_NO_FLOAT = frozenset({int, bool, str, type(None)})


def _finite_or_null(value):
    """The payload with every NaN or infinite float replaced by None (JSON null).

    A list or tuple whose items are all such leaves, or all finite floats,
    is returned as it is after one pass over the item types.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        if kinds <= _NO_FLOAT or (kinds == {float} and all(map(math.isfinite, value))):
            return value
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    """One line of strict JSON with sorted keys, then a newline.

    Without ``indent``, json.dumps runs its C encoder.
    """
    text = json.dumps(_finite_or_null(payload), sort_keys=True, allow_nan=False)
    _atomic_write(path, text + "\n")


#: The str.format field that prints a CSV cell of each plain column type.
_CELL_FIELDS = {float: "{!r}", int: "{}", bool: "{:d}"}


def _write_csv(path: Path, header_lines, names, columns) -> None:
    """``# line`` headers, the column names, then one row per position of ``columns``.

    Floats are written by repr, ints by str and bools as 1/0.  Each column
    must hold items of one of these types only, so each row is one
    ``str.format`` call; any other column (mixed types, numpy scalars)
    raises TypeError rather than print cells such as ``np.float64(0.5)``.
    """
    fields = []
    for name, col in zip(names, columns):
        kinds = set(map(type, col))
        if len(kinds) > 1 or not kinds <= _CELL_FIELDS.keys():
            raise TypeError(f"CSV column {name!r} holds {sorted(k.__name__ for k in kinds)}")
        fields.append(_CELL_FIELDS[kinds.pop()] if kinds else "{}")
    out = [f"# {line}" for line in header_lines]
    out.append(",".join(names))
    out.extend(map(",".join(fields).format, *columns))
    _atomic_write(path, "\n".join(out) + "\n")


def write_svg_line_chart(
    path: Path, xs, ys, title: str, x_label: str, y_label: str, header_lines=()
) -> None:
    """Minimal self-contained SVG polyline chart; deterministic text output."""
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
    # The scalar formulas left + (right - left) * (x - x_lo) / (x_hi - x_lo)
    # and its y twin, evaluated in the same order on whole arrays.
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
    _atomic_write(path, "\n".join(svg) + "\n")


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
# Input resolution
# ---------------------------------------------------------------------------

def _resolve_spec(args: argparse.Namespace) -> FamilySpec | None:
    if args.input and args.family:
        raise ValueError("give either --input or --family, not both")
    if args.family:
        return parse_family_spec(args.family, dim=args.n)
    if args.input:
        return None
    raise ValueError("need --input PATH or --family SPEC")


def _load_series(args: argparse.Namespace, spec: FamilySpec | None) -> FourierSeries:
    if spec is None:
        return read_coefficients(args.input)
    if spec.kind == "profile":
        raise ValueError("profile families have no spectrum; this command needs one")
    return gen_series(spec)


def _check_jmax(j_max: int) -> None:
    check_size(j_max + 1, "profile orders (Jmax + 1)")


def _load_profile(args: argparse.Namespace):
    """The profile of a ``profile:`` family, or of the series the input gives.

    The j_max actually used (the family's ``Jmax``, else ``--Jmax``) is
    checked against the cap before anything is read or built.
    """
    spec = _resolve_spec(args)
    if spec is not None and spec.kind == "profile":
        _check_jmax(spec.j_max)
        return gen_profile(spec)
    _check_jmax(args.jmax)
    return build_profile(_load_series(args, spec), args.jmax)


def _parse_m_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise ValueError(f"--m needs an integer A or a range A..B, got {text!r}") from None
    if a < 1 or b < a:
        raise ValueError(f"bad --m range {text!r}")
    check_size(b, "points of the --m grid")
    return list(range(a, b + 1))


def _parse_z0(text: str | None, dim: int) -> PolyPoint:
    if text is None:
        # Fixed default angle; irrational multiple of pi so z0^m never lands
        # exactly on the degenerate locus for the m values in use.
        return PolyPoint(tuple(cmath.exp(0.7j) for _ in range(dim)))
    try:
        comps = [complex(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--z0 needs comma-separated complex numbers, got {text!r}") from None
    if len(comps) != dim:
        raise ValueError(f"--z0 needs {dim} comma-separated components")
    point = PolyPoint(tuple(comps))
    if not point.on_torus():
        raise ValueError("--z0 components must have modulus 1")
    return point


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
    return {"profile.csv": (("j", "lnM"), (range(len(profile.ln_m)), profile.ln_m))}


def cmd_tau(args: argparse.Namespace) -> dict:
    check_size(args.rmax, "points of the --rmax grid")
    m_grid = _parse_m_range(args.m)
    profile = _load_profile(args)
    table = build_table(profile, range(1, args.rmax + 1))
    wit = witness(profile, profile.dim, m_grid, normalize=False)
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
            "saturated_argmin_count": sum(wit.argmin_saturated),
            "chain_violations": wit.chain_violations,
            "theta_positive_count": sum(wit.theta_positive),
        },
    }


def _fit_payload(fit) -> dict | None:
    if fit is None:
        return None
    return {"slope": fit.slope, "intercept": fit.intercept, "rmse": fit.rmse}


def cmd_verdict(args: argparse.Namespace) -> dict:
    m_grid = _parse_m_range(args.m)
    profile = _load_profile(args)
    config = TrendConfig(slope_threshold=args.slope_threshold, fit_margin=args.fit_margin)
    report = carleman_diagnostic(profile, args.rmax, config=config)
    wit = witness(profile, profile.dim, m_grid, config=config)
    payload = {
        "effective": _effective(profile),
        "carleman": {
            "verdict": report.verdict,
            "saturated_fraction": report.saturated_fraction,
            "saturation_flag": report.saturated_fraction > config.saturation_fraction,
            "last_decade_increment": report.last_decade_increment,
            "fit_linear": _fit_payload(report.fit_linear),
            "fit_sqrt": _fit_payload(report.fit_sqrt),
            "partial_integral_final": report.partial_integral[-1],
        },
        "witness": {
            "classification": wit.classification,
            "slope_d_vs_log_m": wit.slope,
            "normalization_shift": wit.normalization_shift,
            "chain_violations": wit.chain_violations,
            "saturated_argmin_count": sum(wit.argmin_saturated),
            "fit_linear": _fit_payload(wit.fit_linear),
            "fit_sqrt": _fit_payload(wit.fit_sqrt),
        },
        "overall": report.verdict,
    }
    return {
        "verdict.json": payload,
        "witness_plot.csv": (("m", "d"), (wit.m_grid, wit.witness)),
        "witness_plot.svg": (
            list(map(math.log, wit.m_grid)), wit.witness, "divergence witness", "ln m", "d_m"
        ),
    }


def cmd_interp(args: argparse.Namespace) -> dict:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    m_grid = _parse_m_range(args.m)
    _check_jmax(args.jmax)
    series = _load_series(args, _resolve_spec(args))
    n = series.dim
    check_power(m_grid[-1], n, "points of the --m grid in dimension n")
    check_size(args.samples * n, "sample components (--samples x n)")
    rescale = None
    if args.tm:
        # D(t_m) sampling presumes the normalization M_3 < 1/2 (otherwise
        # t_m <= 1 and the annulus is empty), so rescale into it first.
        rescaled = rescale_to_class(series)
        series = rescaled.series
        rescale = {"scale": rescaled.scale, "normalized": rescaled.normalized}
        profile = build_profile(series, args.jmax)
        ln_t = t_m_sequence(profile, m_grid[-1], n)

        def t_for(m: int) -> float:
            return math.exp(ln_t[m - 1])

    else:
        profile = build_profile(series, args.jmax)

        def t_for(m: int) -> float:
            return args.t

    z0 = _parse_z0(args.z0, n)
    reports = []
    for m in m_grid:
        audit = interpolation_audit(series, m, z0, engine=args.engine)
        t_val = t_for(m)
        bounds = bound_audit(
            audit.interpolant, profile, t_val, n_samples=args.samples, seed=args.seed
        )
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
                "uncovered_modes": [list(k) for k in audit.uncovered_modes],
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
    effective = {
        **_effective(profile),
        "n_modes": series.n_modes,
        "support_radius": series.support_radius(),
        "rescale": rescale,
    }
    return {
        "interp_report.json": {"effective": effective, "per_m": reports},
        "interp_sup.csv": (("m", "sup_augmented"), (m_grid, [r["sup_augmented"] for r in reports])),
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
    p_norms.set_defaults(func=cmd_norms)

    p_tau = sub.add_parser("tau", help="associated-function tables")
    _add_shared(p_tau)
    _add_m(p_tau)
    p_tau.add_argument("--rmax", type=int, default=100, help="integer r grid upper end")
    p_tau.set_defaults(func=cmd_tau)

    p_verdict = sub.add_parser("verdict", help="trend verdicts and witness plot")
    _add_shared(p_verdict)
    _add_m(p_verdict)
    p_verdict.add_argument("--rmax", type=int, default=1000)
    p_verdict.add_argument(
        "--slope-threshold", type=float, default=DEFAULT_TREND.slope_threshold,
        help="witness slope cutoff (fallback rule)",
    )
    p_verdict.add_argument(
        "--fit-margin", type=float, default=DEFAULT_TREND.fit_margin,
        help="rmse ratio a growth model must beat to win",
    )
    p_verdict.set_defaults(func=cmd_verdict)

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
    p_interp.set_defaults(func=cmd_interp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _write_artifacts(args, args.func(args))
    except GridCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DegenerateProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
