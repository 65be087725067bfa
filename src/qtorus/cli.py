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
import os
import sys
import tempfile
from pathlib import Path

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
    gen_series,
    parse_family_spec,
    profile_for,
    rescale_to_class,
)
from .interpolate import bound_audit, interpolation_audit
from .norms import build_profile
from .series import FourierSeries, GridCapError, PolyPoint, grid_cap, read_coefficients


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func", "out"}
    echo = {"version": __version__, "out": str(args.out)}
    for key, value in sorted(vars(args).items()):
        if key in skip or key.startswith("_"):
            continue
        echo[key] = value if not isinstance(value, Path) else str(value)
    return echo


def _header_lines(args: argparse.Namespace) -> list[str]:
    echo = _config_echo(args)
    return [f"{k}={echo[k]}" for k in sorted(echo)]


def _finite_or_null(value):
    """The payload with every NaN or infinite float replaced by None (JSON null)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(path, text + "\n")


def _write_csv(path: Path, header_lines, columns, rows) -> None:
    out = []
    for line in header_lines:
        out.append(f"# {line}")
    out.append(",".join(columns))
    for row in rows:
        out.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(out) + "\n")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


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

    def sx(x):
        return left + (right - left) * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return bottom - (bottom - top) * (y - y_lo) / (y_hi - y_lo)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
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


def _load_series(args: argparse.Namespace) -> FourierSeries:
    spec = _resolve_spec(args)
    if spec is None:
        return read_coefficients(args.input)
    if spec.kind == "profile":
        raise ValueError("profile families have no spectrum; this command needs one")
    return gen_series(spec)


def _load_profile(args: argparse.Namespace):
    spec = _resolve_spec(args)
    if spec is None:
        series = read_coefficients(args.input)
        return build_profile(series, args.jmax), series.dim
    if spec.kind == "profile":
        profile = profile_for(spec, args.jmax)
        return profile, spec.dim
    series = gen_series(spec)
    return build_profile(series, args.jmax), series.dim


def _parse_m_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    a = int(lo)
    b = int(hi) if sep else a
    if a < 1 or b < a:
        raise ValueError(f"bad m range {text!r}")
    _check_grid_cap("--m", b)
    return list(range(a, b + 1))


def _check_grid_cap(flag: str, size: int) -> None:
    """Refuse a grid of ``size`` points past the grid cap before building it."""
    limit = grid_cap()
    if size > limit:
        raise GridCapError(f"{flag} needs a grid of {size} points, cap is {limit}")


def _parse_z0(text: str | None, dim: int) -> PolyPoint:
    if text is None:
        # Fixed default angle; irrational multiple of pi so z0^m never lands
        # exactly on the degenerate locus for the m values in use.
        return PolyPoint(tuple(cmath.exp(0.7j) for _ in range(dim)))
    comps = [complex(part) for part in text.split(",")]
    if len(comps) != dim:
        raise ValueError(f"--z0 needs {dim} comma-separated components")
    point = PolyPoint(tuple(comps))
    if not point.on_torus():
        raise ValueError("--z0 components must have modulus 1")
    return point


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _effective(profile, dim: int) -> dict:
    """Parameters a run actually used, which the config echo may not show."""
    return {"j_max": profile.j_max, "dim": dim}


def cmd_norms(args: argparse.Namespace) -> int:
    profile, _ = _load_profile(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "profile.csv", _header_lines(args), ("j", "lnM"), enumerate(profile.ln_m)
    )
    return 0


def cmd_tau(args: argparse.Namespace) -> int:
    _check_grid_cap("--rmax", args.rmax)
    m_grid = _parse_m_range(args.m)
    profile, dim = _load_profile(args)
    n = dim
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    headers = _header_lines(args)

    table = build_table(profile, range(1, args.rmax + 1))
    _write_csv(
        out / "tau_table.csv",
        headers,
        ("r", "ln_tau", "ln_tau_shifted"),
        zip(table.r_grid, table.ln_tau, table.ln_tau_shifted),
    )

    wit = witness(profile, n, m_grid, normalize=False)
    _write_csv(
        out / "witness_table.csv",
        headers,
        ("m", "ln_t", "ln_theta", "d", "theta_positive"),
        zip(wit.m_grid, wit.ln_t, wit.ln_theta, wit.witness, wit.theta_positive),
    )

    summary = {
        "config": _config_echo(args),
        "effective": _effective(profile, dim),
        "r0_estimate": table.r0_estimate,
        "saturated_argmin_count": sum(wit.argmin_saturated),
        "chain_violations": wit.chain_violations,
        "theta_positive_count": sum(wit.theta_positive),
    }
    _write_json(out / "tau_summary.json", summary)
    return 0


def _fit_payload(fit) -> dict | None:
    if fit is None:
        return None
    return {"slope": fit.slope, "intercept": fit.intercept, "rmse": fit.rmse}


def cmd_verdict(args: argparse.Namespace) -> int:
    m_grid = _parse_m_range(args.m)
    profile, dim = _load_profile(args)
    n = dim
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    headers = _header_lines(args)

    config = TrendConfig(
        slope_threshold=args.slope_threshold,
        residual_threshold=DEFAULT_TREND.residual_threshold,
        tail_threshold=args.tail_threshold,
        fit_margin=args.fit_margin,
        saturation_fraction=DEFAULT_TREND.saturation_fraction,
    )
    report = carleman_diagnostic(profile, args.rmax, config=config)
    wit = witness(profile, n, m_grid, config=config)

    payload = {
        "config": _config_echo(args),
        "effective": _effective(profile, dim),
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
    _write_json(out / "verdict.json", payload)
    _write_csv(
        out / "witness_plot.csv",
        headers,
        ("m", "d"),
        zip(wit.m_grid, wit.witness),
    )
    write_svg_line_chart(
        out / "witness_plot.svg",
        [math.log(m) for m in wit.m_grid],
        wit.witness,
        title="divergence witness",
        x_label="ln m",
        y_label="d_m",
        header_lines=headers,
    )
    return 0


def cmd_interp(args: argparse.Namespace) -> int:
    m_grid = _parse_m_range(args.m)
    series = _load_series(args)
    n = series.dim
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    headers = _header_lines(args)

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
    sup_rows = []
    for m in m_grid:
        audit = interpolation_audit(series, m, z0, engine=args.engine)
        t_val = t_for(m)
        bounds = bound_audit(
            series,
            profile,
            m,
            t_val,
            z0,
            n_samples=args.samples,
            seed=args.seed,
            engine=args.engine,
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
                "degenerate_z0": audit.degenerate_z0,
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
        sup_rows.append((m, bounds.lhs_max))

    _write_json(
        out / "interp_report.json",
        {
            "config": _config_echo(args),
            "effective": {
                **_effective(profile, n),
                "n_modes": series.n_modes,
                "support_radius": series.support_radius(),
                "rescale": rescale,
            },
            "per_m": reports,
        },
    )
    _write_csv(out / "interp_sup.csv", headers, ("m", "sup_augmented"), sup_rows)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", type=str, help="JSONL coefficient file")
    parser.add_argument("--family", type=str, help="family spec, e.g. analytic:a=1:K=100")
    parser.add_argument("--n", type=int, default=1, help="dimension for --family input")
    parser.add_argument("--Jmax", dest="jmax", type=int, default=24, help="profile depth")
    parser.add_argument("--m", type=str, default="2..64", help="m range A..B")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--samples", type=int, default=256)
    parser.add_argument("--out", type=str, default="qtorus_out", help="output directory")


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
    p_tau.add_argument("--rmax", type=int, default=100, help="integer r grid upper end")
    p_tau.set_defaults(func=cmd_tau)

    p_verdict = sub.add_parser("verdict", help="trend verdicts and witness plot")
    _add_shared(p_verdict)
    p_verdict.add_argument("--rmax", type=int, default=1000)
    p_verdict.add_argument(
        "--slope-threshold", type=float, default=DEFAULT_TREND.slope_threshold,
        help="witness slope cutoff (fallback rule)",
    )
    p_verdict.add_argument(
        "--fit-margin", type=float, default=DEFAULT_TREND.fit_margin,
        help="rmse ratio a growth model must beat to win",
    )
    p_verdict.add_argument(
        "--tail-threshold", type=float, default=DEFAULT_TREND.tail_threshold,
        help="Cauchy increment per decade",
    )
    p_verdict.set_defaults(func=cmd_verdict)

    p_interp = sub.add_parser("interp", help="interpolation and bound audits")
    _add_shared(p_interp)
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
        return args.func(args)
    except GridCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DegenerateProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
