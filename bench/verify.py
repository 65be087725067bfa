"""Output verifier for benchmark jobs.

Checks every artifact a job wrote, outside the timed region.  It never calls
qtorus: the two oracles recompute their values from the inputs with numpy.

* JSON artifacts must be standard JSON (no NaN or Infinity tokens).
* CSV artifacts must carry their header and the expected row count.
* The acceptance-suite invariants must hold on the artifacts: zero chain
  violations, ln t_m >= ln theta(m), both nonincreasing in m, and grid_ok for
  every m of the alias engine.
* ln M_j in profile.csv must match the largest pure-direction norm
  1/2 LSE(2 j ln|k_p| + 2 ln|c_k|) over modes with k_p != 0 (the AM-GM
  identity), and ln tau(r) in tau_table.csv must match a direct min over j,
  both to a relative 1e-9.

Run from the repository root after the jobs of a manifest have run:

    python3 bench/verify.py --manifest .bench_run/spectra/inputs/jobs.json --outs .bench_run/spectra/out

It prints one JSON object mapping each job id to its list of problems.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

REL_TOL = 1e-9


class Problem(Exception):
    """An artifact failed a check."""


def _reject_constant(token: str):
    raise Problem(f"non-standard JSON token {token}")


def read_json(path: Path):
    """Parse a JSON artifact, refusing NaN, Infinity and -Infinity."""
    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise Problem(f"{path.name}: invalid JSON: {exc}") from exc


def read_csv(path: Path, header: str) -> list[list[str]]:
    """Data rows of a qtorus CSV (``#`` lines are the config echo)."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise Problem(f"{path.name}: header is not {header!r}")
    return [ln.split(",") for ln in lines[1:]]


def _expect_rows(path: Path, rows: list, count: int) -> None:
    if len(rows) != count:
        raise Problem(f"{path.name}: {len(rows)} rows, expected {count}")


def _close(got: float, want: float) -> bool:
    if got == want:  # also covers -inf == -inf
        return True
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def _m_values(expect: dict) -> list[int]:
    lo, hi = expect["m"]
    return list(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def _lse(values: np.ndarray) -> float:
    if values.size == 0:
        return -math.inf
    hi = float(values.max())
    return hi + math.log(float(np.exp(values - hi).sum()))


def read_spectrum(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(indices, ln|c_k|) from a JSONL coefficient file."""
    ks, ln_c = [], []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                ks.append(obj["k"])
                ln_c.append(math.log(math.hypot(obj["re"], obj["im"])))
    return np.asarray(ks, dtype=np.int64), np.asarray(ln_c)


def pure_direction_profile(ks: np.ndarray, ln_c: np.ndarray, jmax: int) -> list[float]:
    """ln M_j = max_p 1/2 LSE(2 j ln|k_p| + 2 ln|c_k|) over k_p != 0; j = 0 takes every mode."""
    out = [0.5 * _lse(2.0 * ln_c)]
    per_dir = []
    for p in range(ks.shape[1]):
        keep = ks[:, p] != 0
        per_dir.append((np.log(np.abs(ks[keep, p]).astype(float)), ln_c[keep]))
    for j in range(1, jmax + 1):
        out.append(max(0.5 * _lse(2.0 * j * ln_k + 2.0 * lc) for ln_k, lc in per_dir))
    return out


def factorial_log_tau(s: float, jmax: int, r: float) -> float:
    """min_{0<=j<=jmax} (s ln j! - j ln r), by direct scan."""
    ln_r = math.log(r)
    return min(s * math.lgamma(j + 1) - j * ln_r for j in range(jmax + 1))


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------

def check_profile(out: Path, expect: dict, root: Path) -> None:
    path = out / "profile.csv"
    rows = read_csv(path, "j,lnM")
    jmax = expect["jmax"]
    _expect_rows(path, rows, jmax + 1)
    got = [float(v) for _, v in rows]
    if [int(j) for j, _ in rows] != list(range(jmax + 1)):
        raise Problem(f"{path.name}: j column is not 0..{jmax}")
    want = pure_direction_profile(*read_spectrum(root / expect["input"]), jmax)
    for j, (g, w) in enumerate(zip(got, want)):
        if not _close(g, w):
            raise Problem(f"{path.name}: ln M_{j} = {g!r}, pure-direction oracle gives {w!r}")


def check_witness_table(path: Path, expect: dict) -> None:
    rows = read_csv(path, "m,ln_t,ln_theta,d,theta_positive")
    m_vals = _m_values(expect)
    _expect_rows(path, rows, len(m_vals))
    if [int(r[0]) for r in rows] != m_vals:
        raise Problem(f"{path.name}: m column does not match the requested range")
    ln_t = [float(r[1]) for r in rows]
    ln_theta = [float(r[2]) for r in rows]
    for m, lt, lth in zip(m_vals, ln_t, ln_theta):
        if not lt >= lth:
            raise Problem(f"{path.name}: ln t_{m} = {lt!r} < ln theta({m}) = {lth!r}")
    for name, seq in (("ln_t", ln_t), ("ln_theta", ln_theta)):
        for m, a, b in zip(m_vals[1:], seq, seq[1:]):
            if b > a:
                raise Problem(f"{path.name}: {name} increases at m = {m}")


def check_tau(out: Path, expect: dict, root: Path) -> None:
    summary = read_json(out / "tau_summary.json")
    if summary.get("chain_violations") != 0:
        raise Problem(f"tau_summary.json: chain_violations = {summary.get('chain_violations')}")
    check_witness_table(out / "witness_table.csv", expect)
    path = out / "tau_table.csv"
    rows = read_csv(path, "r,ln_tau,ln_tau_shifted")
    _expect_rows(path, rows, expect["rmax"])
    for r in expect["probe_r"]:
        got = float(rows[r - 1][1])
        want = factorial_log_tau(expect["s"], expect["jmax"], r)
        if float(rows[r - 1][0]) != r or not _close(got, want):
            raise Problem(f"{path.name}: ln tau({r}) = {got!r}, direct min gives {want!r}")


def check_verdict(out: Path, expect: dict, root: Path) -> None:
    payload = read_json(out / "verdict.json")
    violations = payload.get("witness", {}).get("chain_violations")
    if violations != 0:
        raise Problem(f"verdict.json: chain_violations = {violations}")
    path = out / "witness_plot.csv"
    rows = read_csv(path, "m,d")
    _expect_rows(path, rows, len(_m_values(expect)))
    if not (out / "witness_plot.svg").is_file():
        raise Problem("witness_plot.svg missing")


def check_interp(out: Path, expect: dict, root: Path) -> None:
    report = read_json(out / "interp_report.json")
    m_vals = _m_values(expect)
    per_m = report.get("per_m", [])
    if [entry.get("m") for entry in per_m] != m_vals:
        raise Problem("interp_report.json: per_m does not list the requested m range")
    if expect["engine"] == "alias":
        bad = [entry["m"] for entry in per_m if entry.get("grid_ok") is not True]
        if bad:
            raise Problem(f"interp_report.json: alias grid_ok false for m = {bad}")
    path = out / "interp_sup.csv"
    _expect_rows(path, read_csv(path, "m,sup_augmented"), len(m_vals))


CHECKS = {"norms": check_profile, "tau": check_tau, "verdict": check_verdict, "interp": check_interp}


def check_job(job: dict, out: Path, root: Path) -> list[str]:
    """Problems found in one job's output directory (empty when it passes)."""
    try:
        CHECKS[job["command"]](out, job["expect"], root)
    except Problem as exc:
        return [str(exc)]
    except (OSError, ValueError, IndexError, KeyError, TypeError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="verify benchmark job artifacts")
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--outs", type=Path, required=True, help="holds one directory per job id")
    args = parser.parse_args(argv)
    jobs = json.loads(args.manifest.read_text(encoding="utf-8"))["jobs"]
    root = Path.cwd()
    result = {job["id"]: check_job(job, args.outs / job["id"], root) for job in jobs}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
