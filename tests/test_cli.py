import json
import math
from pathlib import Path

import pytest

from qtorus.cli import main


def read_data_rows(path):
    lines = Path(path).read_text().splitlines()
    return [ln for ln in lines if ln and not ln.startswith("#")]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def read_strict_json(path):
    """Parse a JSON artifact, refusing NaN, Infinity and -Infinity."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


class TestNorms:
    def test_family_row_count(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["norms", "--family", "analytic:a=1:K=50", "--Jmax", "40", "--out", str(out)]
        )
        assert code == 0
        rows = read_data_rows(out / "profile.csv")
        assert rows[0] == "j,lnM"
        assert len(rows) == 42  # header + 41 orders

    def test_header_carries_version_and_config(self, tmp_path):
        out = tmp_path / "out"
        main(["norms", "--family", "analytic:a=1:K=5", "--Jmax", "4", "--out", str(out)])
        text = (out / "profile.csv").read_text()
        assert "# version=" in text
        assert "# family=analytic:a=1:K=5" in text

    def test_single_mode_closed_form(self, tmp_path):
        coeffs = tmp_path / "coeffs.jsonl"
        coeffs.write_text('{"k": [2], "re": 1.0, "im": 0.0}\n')
        out = tmp_path / "out"
        code = main(["norms", "--input", str(coeffs), "--Jmax", "6", "--out", str(out)])
        assert code == 0
        for row in read_data_rows(out / "profile.csv")[1:]:
            j, ln_m = row.split(",")
            assert float(ln_m) == pytest.approx(int(j) * math.log(2), abs=1e-12)

    def test_vanishing_norms_written_as_neg_inf(self, tmp_path):
        coeffs = tmp_path / "const.jsonl"
        coeffs.write_text('{"k": [0], "re": 1.0, "im": 0.0}\n')
        out = tmp_path / "out"
        code = main(["norms", "--input", str(coeffs), "--Jmax", "2", "--out", str(out)])
        assert code == 0
        assert read_data_rows(out / "profile.csv") == ["j,lnM", "0,0.0", "1,-inf", "2,-inf"]

    def test_duplicate_index_exits_2(self, tmp_path):
        coeffs = tmp_path / "dup.jsonl"
        coeffs.write_text(
            '{"k": [1], "re": 1.0, "im": 0.0}\n{"k": [1], "re": 1.0, "im": 0.0}\n'
        )
        assert main(["norms", "--input", str(coeffs), "--out", str(tmp_path / "o")]) == 2

    def test_nan_coefficient_exits_2(self, tmp_path):
        coeffs = tmp_path / "nan.jsonl"
        coeffs.write_text('{"k": [1], "re": 1.0, "im": 0.0}\n{"k": [2], "re": NaN, "im": 0.0}\n')
        assert main(["norms", "--input", str(coeffs), "--out", str(tmp_path / "o")]) == 2

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["norms", "--out", str(tmp_path / "o")]) == 2

    def test_both_inputs_exit_2(self, tmp_path):
        coeffs = tmp_path / "c.jsonl"
        coeffs.write_text('{"k": [1], "re": 1.0, "im": 0.0}\n')
        code = main(
            [
                "norms",
                "--input",
                str(coeffs),
                "--family",
                "analytic:a=1:K=3",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2


class TestTau:
    def test_tables_written(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "tau",
                "--family",
                "profile:rule=factorial:s=1:Jmax=80",
                "--rmax",
                "40",
                "--m",
                "2..30",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len(read_data_rows(out / "tau_table.csv")) == 41
        assert len(read_data_rows(out / "witness_table.csv")) == 30
        summary = json.loads((out / "tau_summary.json").read_text())
        assert math.isfinite(summary["r0_estimate"])
        assert summary["chain_violations"] == 0
        # The echo keeps the --Jmax default; the profile family set J = 80.
        assert summary["config"]["jmax"] == 24
        assert summary["effective"] == {"j_max": 80, "dim": 1}

    def test_infinite_r0_written_as_null(self, tmp_path):
        out = tmp_path / "out"
        args = ["--family", "profile:rule=factorial:s=1:Jmax=30", "--rmax", "2"]
        assert main(["tau", *args, "--m", "2..4", "--out", str(out)]) == 0
        assert read_strict_json(out / "tau_summary.json")["r0_estimate"] is None

    def test_rmax_past_grid_cap_exits_4_and_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QTORUS_GRID_CAP", "100")
        out = tmp_path / "out"
        code = main(
            ["tau", "--family", "profile:rule=factorial:s=1:Jmax=30", "--rmax", "1000",
             "--out", str(out)]
        )
        assert code == 4
        assert not out.exists()

    def test_m_range_past_grid_cap_exits_4(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QTORUS_GRID_CAP", "100")
        out = tmp_path / "out"
        code = main(
            ["verdict", "--family", "profile:rule=factorial:s=1:Jmax=30", "--m", "2..101",
             "--out", str(out)]
        )
        assert code == 4
        assert not out.exists()

    def test_degenerate_profile_exits_3(self, tmp_path):
        coeffs = tmp_path / "const.jsonl"
        coeffs.write_text('{"k": [0], "re": 1.0, "im": 0.0}\n')
        code = main(
            ["tau", "--input", str(coeffs), "--m", "2..8", "--out", str(tmp_path / "o")]
        )
        assert code == 3


class TestVerdict:
    def test_factorial_profile_verdict(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "verdict",
                "--family",
                "profile:rule=factorial:s=1:Jmax=200",
                "--rmax",
                "1000",
                "--m",
                "2..400",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["carleman"]["verdict"] == "quasianalytic-trend"
        assert verdict["witness"]["classification"] == "divergent-trend"
        assert (out / "witness_plot.csv").exists()
        svg = (out / "witness_plot.svg").read_text()
        assert svg.startswith("<!-- command=verdict -->")
        assert "<svg" in svg and "polyline" in svg

    def test_constant_profile_inconclusive(self, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "verdict",
                "--family",
                "profile:rule=constant:Jmax=200",
                "--rmax",
                "1000",
                "--m",
                "2..200",
                "--out",
                str(out),
            ]
        )
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["overall"] == "inconclusive"
        assert verdict["carleman"]["saturation_flag"] is True
        assert verdict["effective"] == {"j_max": 200, "dim": 1}

    def test_undefined_slope_written_as_null(self, tmp_path):
        # Three m values leave too few points for the witness slope (NaN).
        out = tmp_path / "out"
        code = main(
            ["verdict", "--family", "profile:rule=constant:Jmax=10", "--m", "2..4",
             "--out", str(out)]
        )
        assert code == 0
        verdict = read_strict_json(out / "verdict.json")
        assert verdict["witness"]["slope_d_vs_log_m"] is None


class TestInterp:
    def test_alias_audit_clean(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "interp",
                "--family",
                "analytic:a=1:K=20",
                "--m",
                "2..8",
                "--samples",
                "32",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "interp_report.json").read_text())
        assert len(report["per_m"]) == 7
        assert report["effective"] == {
            "j_max": 24, "dim": 1, "n_modes": 41, "support_radius": 20, "rescale": None
        }
        for entry in report["per_m"]:
            assert entry["grid_ok"] is True
            assert entry["max_grid_error"] < entry["tolerance"]
        assert len(read_data_rows(out / "interp_sup.csv")) == 8

    def test_diagonal_coverage_gap_listed(self, tmp_path):
        coeffs = tmp_path / "offdiag.jsonl"
        coeffs.write_text('{"k": [1, 0], "re": 9.0, "im": 0.0}\n')
        out = tmp_path / "out"
        code = main(
            [
                "interp",
                "--input",
                str(coeffs),
                "--engine",
                "diagonal",
                "--m",
                "2..2",
                "--samples",
                "16",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        entry = json.loads((out / "interp_report.json").read_text())["per_m"][0]
        assert entry["uncovered_modes"] == [[1, 0]]
        assert entry["max_grid_error"] > 1.0

    def test_degenerate_z0_reported_and_runs(self, tmp_path):
        coeffs = tmp_path / "f.jsonl"
        coeffs.write_text(
            '{"k": [3, 0], "re": 1.0, "im": 0.0}\n{"k": [0, 1], "re": 1.0, "im": 0.0}\n'
        )
        out = tmp_path / "out"
        code = main(
            [
                "interp",
                "--input",
                str(coeffs),
                "--z0",
                "1,1",
                "--m",
                "2..3",
                "--samples",
                "16",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "interp_report.json").read_text())
        assert all(entry["degenerate_z0"] for entry in report["per_m"])

    def test_grid_cap_exits_4(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QTORUS_GRID_CAP", "8")
        coeffs = tmp_path / "f.jsonl"
        coeffs.write_text('{"k": [1, 1], "re": 1.0, "im": 0.0}\n')
        code = main(
            [
                "interp",
                "--input",
                str(coeffs),
                "--m",
                "4..4",
                "--samples",
                "8",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 4

    def test_tm_mode_runs_on_rescaled_series(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "interp",
                "--family",
                "analytic:a=1:K=30",
                "--tm",
                "--Jmax",
                "30",
                "--m",
                "2..10",
                "--samples",
                "32",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "interp_report.json").read_text())
        for entry in report["per_m"]:
            assert entry["t"] > 1.0
        rescale = report["effective"]["rescale"]
        assert rescale["normalized"] is True
        assert 0.0 < rescale["scale"] < 1.0

    def test_effective_describes_the_rescaled_series(self, tmp_path):
        # Under --tm the series is scaled by ~1/200, which takes the k = 2
        # coefficient below the 1e-300 pruning threshold: the evaluated
        # series has one mode of radius 1, not the two modes of the input.
        coeffs = tmp_path / "f.jsonl"
        coeffs.write_text(
            '{"k": [1], "re": 100.0, "im": 0.0}\n{"k": [2], "re": 1.5e-300, "im": 0.0}\n'
        )
        common = ["interp", "--input", str(coeffs), "--m", "2..3", "--samples", "8"]
        assert main([*common, "--out", str(tmp_path / "t")]) == 0
        assert main([*common, "--tm", "--out", str(tmp_path / "tm")]) == 0
        fixed = json.loads((tmp_path / "t" / "interp_report.json").read_text())
        scaled = json.loads((tmp_path / "tm" / "interp_report.json").read_text())
        assert (fixed["effective"]["n_modes"], fixed["effective"]["support_radius"]) == (2, 2)
        assert (scaled["effective"]["n_modes"], scaled["effective"]["support_radius"]) == (1, 1)
        assert scaled["effective"]["rescale"]["scale"] < 1e-2
