"""Tests of the benchmark's own tracer and verifier.

Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import run
import spans
import verify

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qtorus import FourierSeries, write_coefficients  # noqa: E402
from qtorus.cli import main as cli_main  # noqa: E402


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_self_times_on_nested_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    audit = tracer.open("interpolation_audit", "interpolate")
    aug = tracer.open("augmented_interpolant", "interpolate")
    ev = tracer.open("eval_laurent", "series")
    tracer.close(ev)
    tracer.close(aug)
    tracer.close(audit)

    assert (audit["parent"], aug["parent"], ev["parent"]) == (None, audit["id"], aug["id"])
    own = spans.self_times(tracer.spans)
    assert own == {audit["id"]: 5.0, aug["id"]: 3.0, ev["id"]: 2.0}
    layers = spans.layer_self_times(tracer.spans)
    assert layers == {"interpolate": 8.0, "series": 2.0}
    assert sum(layers.values()) == audit["end"] - audit["start"]


def test_launcher_traces_a_cli_job(tmp_path):
    coeffs = tmp_path / "c.jsonl"
    write_coefficients(FourierSeries(2, {(1, 2): 1.0, (-3, 0): 0.5j, (0, 4): 2.0}), coeffs)
    out_spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "bench" / "spans.py"), "--job", "t", "--spans", str(out_spans),
            "--", "norms", "--input", str(coeffs), "--Jmax", "4", "--out", str(tmp_path / "o")]
    assert subprocess.run(argv, env=env, check=False).returncode == 0

    recorded = json.loads(out_spans.read_text())["spans"]
    names = [s["name"] for s in recorded]
    # One derivative_l2_norm per composition of j into 2 parts, j = 0..4.
    assert names.count("derivative_l2_norm") == sum(comb(j + 1, 1) for j in range(5))
    assert names.count("import") == len(spans.LAYERS)
    reads = [s for s in recorded if s["name"] == "read_coefficients"]
    assert [s["work"] for s in reads] == [{"modes": 3}]
    main = next(s for s in recorded if s["name"] == "main")
    inside = [s for s in recorded if s["start"] >= main["start"]]
    assert sum(spans.self_times(inside).values()) == pytest.approx(main["end"] - main["start"], abs=1e-9)


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------

def _job(command, args, expect, out):
    assert cli_main([command, *args, "--out", str(out)]) == 0
    return {"id": "j", "command": command, "args": args, "expect": expect}


def _replace_in(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_verifier_rejects_nan_token(tmp_path):
    out = tmp_path / "o"
    job = _job("verdict", ["--family", "profile:rule=factorial:s=1.5:Jmax=60", "--rmax", "200", "--m", "2..40"],
               {"s": 1.5, "jmax": 60, "m": [2, 40], "rmax": 200}, out)
    assert verify.check_job(job, out, tmp_path) == []
    payload = json.loads((out / "verdict.json").read_text())
    value = repr(payload["carleman"]["partial_integral_final"])
    _replace_in(out / "verdict.json", value, "NaN")
    assert verify.check_job(job, out, tmp_path) == ["non-standard JSON token NaN"]


def test_verifier_rejects_witness_row_below_theta(tmp_path):
    out = tmp_path / "o"
    job = _job("tau", ["--family", "profile:rule=factorial:s=2:Jmax=80", "--rmax", "50", "--m", "2..30"],
               {"s": 2.0, "jmax": 80, "m": [2, 30], "rmax": 50, "probe_r": [1, 7, 50]}, out)
    assert verify.check_job(job, out, tmp_path) == []
    table = out / "witness_table.csv"
    lines = table.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("10,"))
    m, ln_t, ln_theta, d, pos = lines[row].split(",")
    lines[row] = ",".join([m, repr(float(ln_theta) - 1e-3), ln_theta, d, pos])
    table.write_text("\n".join(lines) + "\n")
    [problem] = verify.check_job(job, out, tmp_path)
    assert "< ln theta(10)" in problem


def test_verifier_rejects_profile_off_by_1e_6(tmp_path):
    coeffs = tmp_path / "c.jsonl"
    write_coefficients(
        FourierSeries(3, {(1, 0, 2): 1.0 - 0.5j, (0, -3, 1): 0.25, (2, 2, 2): 0.1j, (0, 0, 0): 3.0}), coeffs
    )
    out = tmp_path / "o"
    job = _job("norms", ["--input", str(coeffs), "--Jmax", "12"], {"input": str(coeffs), "jmax": 12}, out)
    assert verify.check_job(job, out, tmp_path) == []
    profile = out / "profile.csv"
    row = next(ln for ln in profile.read_text().splitlines() if ln.startswith("7,"))
    value = float(row.split(",")[1])
    _replace_in(profile, row, f"7,{value + 1e-6 * max(1.0, abs(value))!r}")
    [problem] = verify.check_job(job, out, tmp_path)
    assert "ln M_7" in problem and "oracle" in problem


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
