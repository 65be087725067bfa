"""qtorus CLI benchmark: closed-loop batch sweeps with verified outputs.

Run from the repository root:

    python3 bench/run.py --workload spectra --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

One client runs one ``python -m qtorus.cli`` job at a time (a closed loop)
over the workload's fixed job list, in whole passes, until ``--seconds`` of
jobs have run.  Every job's artifacts are verified after each pass, outside
the timed region.  With ``--trace 1`` untraced and traced passes alternate;
traced jobs go through ``bench/spans.py`` and the per-layer metrics come from
their spans.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

This script imports only the standard library.  A child's ``ru_maxrss``
starts from its parent's resident set, so this process stays small and leaves
input generation (``workloads.py``) and verification (``verify.py``) to
child processes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import FOLDS, LAYERS, POINT_QUERIES, layer_self_times

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = Path(".bench_run")
WORKLOADS = ("spectra", "verdicts", "interp")
SETUP_REPEATS = 3
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "job_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "series.self_s": "s",
    "series.read_modes": "count",
    "series.eval_terms": "count",
    "series.eval_bytes_computed": "bytes",
    "norms.self_s": "s",
    "norms.norm_evals": "count",
    "logspace.self_s": "s",
    "logspace.lse_calls": "count",
    "associated.self_s": "s",
    "associated.tau_terms": "count",
    "associated.point_queries": "count",
    "interpolate.self_s": "s",
    "interpolate.grid_nodes": "count",
    "interpolate.fold_calls": "count",
    "interpolate.fold_useful_ratio": "ratio",
    "families.self_s": "s",
    "process.self_s": "s",
    "trace.job_wall_s": "s",
    "trace.overhead_s": "s",
}

# Time inside one entry point, spans nested in it included: metric -> span
# name.  Printed by the traced run but not part of its JSON result: each reads
# exactly 0 s on the workloads that bypass the entry point.
INCLUSIVE = {
    "series.read_s": "read_coefficients",
    "series.eval_s": "eval_batch",
    "norms.build_profile_s": "build_profile",
    "associated.witness_s": "witness",
    "associated.build_table_s": "build_table",
    "associated.carleman_s": "carleman_diagnostic",
    "interpolate.audit_s": "interpolation_audit",
    "interpolate.bound_audit_s": "bound_audit",
}
CALL_COUNTS = {
    "norms.norm_evals": ("derivative_l2_norm",),
    "logspace.lse_calls": ("log_sum_exp",),
    "associated.point_queries": POINT_QUERIES,
    "interpolate.fold_calls": FOLDS,
}
WORK_COUNTS = {
    "series.read_modes": "modes",
    "series.eval_terms": "terms",
    "associated.tau_terms": "tau_terms",
    "interpolate.grid_nodes": "grid_nodes",
}


class BenchError(RuntimeError):
    """The benchmark could not set up or run its jobs."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ, **THREAD_VARS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict, stderr=subprocess.DEVNULL) -> dict:
    """Run one child to completion; wall time from spawn to reap, rusage from wait4."""
    start = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr
    )
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "start": start,
        "end": end,
        "wall": end - start,
        "rc": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def run_script(argv: list[str], env: dict) -> str:
    """Run a bench helper script; its stdout, or BenchError with its stderr."""
    out = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        capture_output=True, text=True, check=False,
    )
    if out.returncode != 0:
        raise BenchError(f"{Path(argv[0]).name} exited {out.returncode}: {out.stderr.strip()[-2000:]}")
    return out.stdout


def job_argv(job: dict, out: Path, spans: Path | None) -> list[str]:
    cli = [job["command"], *job["args"], "--out", str(out)]
    if spans is None:
        return [sys.executable, "-m", "qtorus.cli", *cli]
    return [sys.executable, str(BENCH / "spans.py"), "--job", job["id"], "--spans", str(spans), "--", *cli]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Set-up, passes and verification
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int, env: dict) -> tuple[float, dict]:
    """Generate the inputs and run one warm-up job; returns (seconds, manifest).

    The inputs depend only on the seed, so a repeated set-up rewrites the
    same files.
    """
    base = WORK / workload
    shutil.rmtree(base / "inputs", ignore_errors=True)
    start = time.monotonic()
    run_script(
        [str(BENCH / "workloads.py"), "--workload", workload, "--seed", str(seed),
         "--dir", str(base / "inputs")],
        env,
    )
    manifest = json.loads((base / "inputs" / "jobs.json").read_text(encoding="utf-8"))
    spawn(job_argv(manifest["jobs"][0], base / "warmup", None), env)
    elapsed = time.monotonic() - start
    shutil.rmtree(base / "warmup", ignore_errors=True)
    return elapsed, manifest


def run_pass(manifest: dict, pass_dir: Path, traced: bool, env: dict) -> dict:
    """Run every job once, back to back, then verify the artifacts."""
    jobs = manifest["jobs"]
    results = []
    start = time.monotonic()
    for job in jobs:
        out = pass_dir / job["id"]
        spans = pass_dir / f"{job['id']}.spans.json" if traced else None
        with open(pass_dir / f"{job['id']}.stderr", "wb") as err:
            res = spawn(job_argv(job, out, spans), env, stderr=err)
        res["id"] = job["id"]
        results.append(res)
    wall = time.monotonic() - start

    report = json.loads(
        run_script(
            [str(BENCH / "verify.py"), "--manifest", str(WORK / manifest["workload"] / "inputs" / "jobs.json"),
             "--outs", str(pass_dir)],
            env,
        ).splitlines()[-1]
    )
    for res in results:
        problems = list(report.get(res["id"], ["not verified"]))
        if res["rc"] != 0:
            stderr = (pass_dir / f"{res['id']}.stderr").read_text(encoding="utf-8", errors="replace")
            problems.insert(0, f"exit code {res['rc']}: {stderr.strip()[-300:]}")
        res["problems"] = problems
        res["bytes"] = dir_bytes(pass_dir / res["id"]) if (pass_dir / res["id"]).is_dir() else 0
        if traced and (pass_dir / f"{res['id']}.spans.json").is_file():
            res["spans"] = job_spans(res, pass_dir / f"{res['id']}.spans.json")
    return {"traced": traced, "wall": wall, "jobs": results}


def job_spans(res: dict, path: Path) -> list[dict]:
    """The launcher's spans plus process start-up and exit, seen from here.

    ``startup`` runs from spawn to ``cli.main`` entry and holds the layer
    imports; ``exit`` runs from ``cli.main`` return to reap.  The job's span
    self times then sum to its wall time.
    """
    spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
    main = next(s for s in spans if s["parent"] is None and s["name"] == "main")
    startup = {"id": -1, "parent": None, "name": "startup", "layer": "process",
               "start": res["start"], "end": main["start"]}
    exit_ = {"id": -2, "parent": None, "name": "exit", "layer": "process",
             "start": main["end"], "end": res["end"]}
    for s in spans:
        if s["parent"] is None and s["name"] == "import":
            s["parent"] = -1
    return [startup, *spans, exit_]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(passes: list[dict], setup_s: float) -> tuple[dict, dict]:
    plain = [p for p in passes if not p["traced"]]
    jobs = [j for p in plain for j in p["jobs"]]
    walls = sorted(j["wall"] for j in jobs)
    verified = sum(1 for j in jobs if not j["problems"])
    metrics = {
        "jobs_per_s": verified / sum(p["wall"] for p in plain),
        "job_s_p50": statistics.median(walls),
        "peak_rss_mb": max(j["rss_mb"] for j in jobs),
        "setup_s": setup_s,
    }
    # Highest percentile with at least ten samples beyond it.
    q = math.floor(100 * (1 - 10 / len(walls))) if len(walls) > 10 else None
    info = {
        "samples": len(walls),
        "tail": (q, walls[math.ceil(q / 100 * len(walls)) - 1]) if q and q > 50 else None,
        "verified": verified,
    }
    return metrics, info


def per_layer(passes: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, plus the self-time sum check."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = len(traced)
    sums = dict.fromkeys([*PER_LAYER, *INCLUSIVE], 0.0)
    job_wall = 0.0
    distinct_folds = 0
    for p in traced:
        for job in p["jobs"]:
            sums["cli.bytes_written"] += job["bytes"]
            spans = job.get("spans")
            if not spans:
                continue
            job_wall += job["wall"]
            for layer, own in layer_self_times(spans).items():
                sums[f"{layer}.self_s"] += own
            keys = set()
            for s in spans:
                name, dur, work = s["name"], s["end"] - s["start"], s.get("work", {})
                if name == "startup":
                    sums["cli.startup_s"] += dur
                for metric, span_name in INCLUSIVE.items():
                    if name == span_name:
                        sums[metric] += dur
                for metric, names in CALL_COUNTS.items():
                    if name in names:
                        sums[metric] += 1
                for metric, key in WORK_COUNTS.items():
                    sums[metric] += work.get(key, 0)
                if "fold" in work:
                    keys.add(work["fold"])
            distinct_folds += len(keys)
    metrics = {k: v / n for k, v in sums.items()}
    metrics["series.eval_bytes_computed"] = 16 * metrics["series.eval_terms"]  # complex128 per term
    folds = sums["interpolate.fold_calls"]
    metrics["interpolate.fold_useful_ratio"] = distinct_folds / folds if folds else 0.0
    metrics["trace.job_wall_s"] = job_wall / n
    plain_pass_s = statistics.mean(p["wall"] for p in plain)
    metrics["trace.overhead_s"] = statistics.mean(p["wall"] for p in traced) - plain_pass_s
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in (*LAYERS, "process"))
    info = {"self_sum_s": self_sum, "job_wall_s": metrics["trace.job_wall_s"], "plain_pass_s": plain_pass_s}
    return metrics, info


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qtorus").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        **THREAD_VARS,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    # Set-up runs SETUP_REPEATS times, spaced through the run (before the
    # first pass, then after each pass), so its median samples the machine
    # over the same stretch of time as the jobs do.
    setup_times, manifest = [], None
    passes = []
    measured = 0.0
    while measured < seconds or (trace and len(passes) < 2):
        if len(setup_times) < SETUP_REPEATS:
            elapsed, manifest = set_up(workload, seed, env)
            setup_times.append(elapsed)
        traced = trace and len(passes) % 2 == 1
        pass_dir = WORK / workload / f"pass-{len(passes)}"
        pass_dir.mkdir(parents=True)
        passes.append(run_pass(manifest, pass_dir, traced, env))
        measured += passes[-1]["wall"]
        shutil.rmtree(pass_dir)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(set_up(workload, seed, env)[0])
    setup_s = statistics.median(setup_times)

    jobs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in jobs if j["problems"]]
    e2e, info = end_to_end(passes, setup_s)
    tag = f"[{workload}]"
    print(f"{tag} setup_s = {setup_s:.4f} s (median of {SETUP_REPEATS} set-ups, each inputs + one warm-up job: "
          f"{', '.join(f'{t:.3f}' for t in setup_times)} s)")
    print(f"{tag} jobs_per_s = {e2e['jobs_per_s']:.4f} jobs/s ({info['verified']} verified jobs, "
          f"{sum(1 for p in passes if not p['traced'])} untraced passes of {len(manifest['jobs'])} jobs)")
    tail = f"; p{info['tail'][0]} = {info['tail'][1]:.4f} s" if info["tail"] else ""
    print(f"{tag} job_s_p50 = {e2e['job_s_p50']:.4f} s (n = {info['samples']} jobs{tail})")
    print(f"{tag} peak_rss_mb = {e2e['peak_rss_mb']:.1f} MB")
    print(f"{tag} failed_frac = {len(failed) / len(jobs):.4f} fraction ({len(failed)} failed / {len(jobs)} attempted)")
    for job in failed[:10]:
        print(f"{tag} FAILED {job['id']}: {'; '.join(job['problems'])}")

    metrics = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
    if trace:
        layer, check = per_layer(passes)
        for name, value in layer.items():
            print(f"{tag} {name} = {value:.6g} {PER_LAYER.get(name, 's')}")
        print(f"{tag} layer self times sum to {check['self_sum_s']:.6f} s; traced job wall {check['job_wall_s']:.6f} s")
        print(f"{tag} tracing overhead {layer['trace.overhead_s']:.4f} s per pass "
              f"({layer['trace.overhead_s'] / check['plain_pass_s']:+.1%} of an untraced pass)")
        metrics = {k: (layer[k], unit) for k, unit in PER_LAYER.items()}
    return {"correct": not failed, "attempted": len(jobs), "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qtorus CLI benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qtorus" / "cli.py").is_file():
        print("error: run from the repository root; src/qtorus is missing", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    prefix = len(names) > 1
    metrics = {
        (f"{w}.{k}" if prefix else k): {"value": v, "unit": u}
        for w, r in results.items()
        for k, (v, u) in r["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
