"""Seeded job lists for the three benchmark workloads.

Run as a script it is the benchmark's set-up step: it draws every input from
the workload seed, writes the coefficient files through
``qtorus.write_coefficients`` and writes a manifest (``jobs.json``) that
``run.py`` runs and ``verify.py`` checks.  Run it from the repository root:

    python3 bench/workloads.py --workload spectra --seed 1 --dir .bench_run/spectra/inputs

Each workload is a fixed list of job templates.  The seed draws the spectra
(indices and coefficients), the family parameters, the annulus radii, the
probe points and the CLI's own ``--seed``, but no size: the cost of a job
follows its sizes, so two seeds give different inputs of the same work and
the per-second metrics stay comparable across seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

import qtorus

WORKLOADS = ("spectra", "verdicts", "interp")

# spectra: (kind, n, size, Jmax).  size is the mode count of a sparse
# spectrum or the truncation radius K of a family ((2K+1)^n modes).  The
# composition scan costs C(j+n-1, n-1) norm evaluations per order, so the
# n = 3, 4 jobs stress `norms` and the n = 1 jobs stress JSONL parsing.
SPECTRA = (
    ("sparse", 1, 6000, 40),
    ("sparse", 1, 40000, 40),
    ("gevrey", 1, 10000, 40),
    ("analytic", 1, 8000, 32),
    ("sparse", 2, 5000, 40),
    ("sparse", 2, 8000, 32),
    ("sparse", 2, 16000, 24),
    ("gevrey", 2, 40, 40),
    ("analytic", 2, 50, 32),
    ("gevrey", 2, 60, 24),
    ("sparse", 3, 3000, 20),
    ("sparse", 3, 5000, 16),
    ("gevrey", 3, 8, 24),
    ("gevrey", 3, 7, 18),
    ("analytic", 3, 9, 16),
    ("sparse", 4, 3000, 14),
    ("sparse", 4, 3000, 12),
    ("gevrey", 4, 4, 12),
    ("analytic", 4, 4, 16),
    ("sparse", 1, 12000, 40),
)

# verdicts: (command, s, Jmax, m_max, rmax) on profile:rule=factorial.
# `verdict` cost and memory follow m_max * Jmax (the dense witness scan);
# `tau` cost follows rmax * Jmax (one Python scan per r in build_table).
VERDICTS = (
    ("tau", 1.9, 200, 500, 300),
    ("verdict", 1.0, 2000, 20000, 200000),
    ("verdict", 1.2, 1500, 16000, 150000),
    ("verdict", 1.5, 1000, 20000, 100000),
    ("verdict", 2.0, 2000, 8000, 200000),
    ("verdict", 2.4, 500, 20000, 50000),
    ("verdict", 1.1, 800, 10000, 20000),
    ("verdict", 1.8, 1200, 12000, 80000),
    ("verdict", 2.2, 600, 10000, 10000),
    ("verdict", 1.4, 400, 16000, 30000),
    ("verdict", 1.6, 1000, 8000, 200000),
    ("tau", 1.0, 2000, 2000, 2000),
    ("tau", 1.3, 1500, 5000, 2000),
    ("tau", 1.7, 1000, 2000, 1500),
    ("tau", 2.0, 800, 10000, 1000),
    ("tau", 2.4, 400, 2000, 2000),
    ("tau", 1.1, 1200, 2000, 800),
    ("tau", 1.5, 600, 20000, 1200),
    ("tau", 2.2, 2000, 1000, 500),
    ("tau", 1.2, 1000, 3000, 600),
)

# interp: (kind, n, size, m_lo, m_hi, engine, tm).  Peak memory follows
# grid nodes (m^n) * modes * n in series.eval_batch.
INTERP = (
    ("gevrey", 3, 4, 6, 8, "alias", False),
    ("analytic", 1, 1000, 2, 24, "alias", False),
    ("gevrey", 1, 1000, 56, 64, "alias", False),
    ("analytic", 1, 500, 2, 32, "diagonal", False),
    ("sparse", 1, 1000, 2, 32, "alias", True),
    ("gevrey", 1, 800, 56, 64, "diagonal", True),
    ("sparse", 1, 1000, 40, 64, "alias", False),
    ("analytic", 1, 1000, 56, 64, "alias", True),
    ("analytic", 2, 30, 40, 40, "alias", False),
    ("gevrey", 2, 30, 30, 30, "diagonal", False),
    ("analytic", 2, 30, 24, 24, "alias", False),
    ("gevrey", 2, 24, 28, 28, "alias", True),
    ("sparse", 2, 1500, 16, 20, "alias", False),
    ("analytic", 2, 30, 20, 20, "diagonal", True),
    ("gevrey", 2, 20, 2, 12, "alias", False),
    ("analytic", 3, 4, 10, 10, "alias", True),
    ("gevrey", 3, 4, 2, 9, "diagonal", False),
    ("analytic", 3, 3, 9, 10, "alias", False),
    ("sparse", 3, 300, 2, 10, "alias", False),
    ("gevrey", 3, 4, 10, 10, "diagonal", True),
)

# Box radius from which sparse indices are drawn, per dimension.
SPARSE_RADIUS = {1: 100000, 2: 200, 3: 40, 4: 15}
INTERP_SPARSE_RADIUS = {1: 1000, 2: 30, 3: 4}

# Largest -ln|c_k| a family coefficient may reach; keeps every coefficient
# far above qtorus.PRUNE_THRESHOLD so the mode count is the template's.
MAX_NEG_LOG = 600.0


def _sparse_series(rng, n: int, modes: int, radius: int):
    drawn = rng.integers(-radius, radius + 1, size=(modes * 2, n))
    keys = list(dict.fromkeys(map(tuple, drawn.tolist())))[:modes]
    if len(keys) < modes:
        raise RuntimeError("index box too small for the requested mode count")
    re = rng.normal(size=modes)
    im = rng.normal(size=modes)
    return qtorus.FourierSeries(n, {k: complex(a, b) for k, a, b in zip(keys, re, im)})


def _family_series(rng, kind: str, n: int, radius: int):
    l1_max = n * radius
    if kind == "gevrey":
        # exp(-l1^{1/s}) stays above e^-600 when s >= ln(l1_max) / ln(600).
        s_min = max(2.0, math.log(max(l1_max, 2)) / math.log(MAX_NEG_LOG))
        spec = qtorus.FamilySpec(
            kind="gevrey", dim=n, radius=radius, exponent=float(rng.uniform(s_min, s_min + 1.0))
        )
    else:
        decay = float(rng.uniform(0.5, 1.0)) * MAX_NEG_LOG / l1_max
        spec = qtorus.FamilySpec(kind="analytic", dim=n, radius=radius, decay=decay)
    return qtorus.gen_series(spec)


def _series(rng, kind: str, n: int, size: int, sparse_radius: dict):
    if kind == "sparse":
        return _sparse_series(rng, n, size, sparse_radius[n])
    return _family_series(rng, kind, n, size)


def _cli_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def spectra_jobs(rng, inputs: Path) -> list[dict]:
    jobs = []
    for i, (kind, n, size, jmax) in enumerate(SPECTRA):
        series = _series(rng, kind, n, size, SPARSE_RADIUS)
        path = inputs / f"spectra-{i:02d}.jsonl"
        qtorus.write_coefficients(series, path)
        jobs.append(
            {
                "command": "norms",
                "args": ["--input", str(path), "--Jmax", str(jmax), "--seed", str(_cli_seed(rng))],
                "expect": {"input": str(path), "jmax": jmax},
            }
        )
    return jobs


def verdicts_jobs(rng, inputs: Path) -> list[dict]:
    jobs = []
    for command, s_mid, jmax, m_max, rmax in VERDICTS:
        s = float(min(2.5, max(1.0, s_mid + rng.uniform(-0.1, 0.1))))
        args = [
            "--family", f"profile:rule=factorial:s={s!r}:Jmax={jmax}",
            "--rmax", str(rmax),
            "--m", f"2..{m_max}",
            "--seed", str(_cli_seed(rng)),
        ]
        expect = {"s": s, "jmax": jmax, "m": [2, m_max], "rmax": rmax}
        if command == "tau":
            expect["probe_r"] = sorted({int(r) for r in rng.integers(1, rmax + 1, size=4)})
        jobs.append({"command": command, "args": args, "expect": expect})
    return jobs


def interp_jobs(rng, inputs: Path) -> list[dict]:
    jobs = []
    for i, (kind, n, size, m_lo, m_hi, engine, tm) in enumerate(INTERP):
        series = _series(rng, kind, n, size, INTERP_SPARSE_RADIUS)
        path = inputs / f"interp-{i:02d}.jsonl"
        qtorus.write_coefficients(series, path)
        args = ["--input", str(path), "--m", f"{m_lo}..{m_hi}", "--engine", engine]
        if tm:
            args.append("--tm")
        else:
            args += ["--t", repr(float(rng.uniform(1.05, 1.3)))]
        args += ["--seed", str(_cli_seed(rng))]
        jobs.append(
            {"command": "interp", "args": args, "expect": {"m": [m_lo, m_hi], "engine": engine}}
        )
    return jobs


BUILDERS = {"spectra": spectra_jobs, "verdicts": verdicts_jobs, "interp": interp_jobs}


def build(workload: str, seed: int, inputs: Path) -> list[dict]:
    """Write the workload's inputs under ``inputs`` and return its job list.

    Paths in the jobs are as given in ``inputs`` (relative to the working
    directory the jobs run in).
    """
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    jobs = BUILDERS[workload](rng, inputs)
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}-{i:02d}"
    return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True, help="where inputs and jobs.json go")
    args = parser.parse_args(argv)
    jobs = build(args.workload, args.seed, args.dir)
    manifest = {"workload": args.workload, "seed": args.seed, "jobs": jobs}
    (args.dir / "jobs.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
