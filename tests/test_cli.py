import cmath
import importlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtorus
import qtorus.cli as cli_module
import qtorus.interpolate as interpolate_module
import qtorus.series as series_module
from qtorus import write_coefficients
from qtorus.families import gen_series, parse_family_spec
from qtorus.cli import _finite_or_null, _write_csv, main, write_svg_line_chart
from helpers import loop_read_coefficients, loop_svg_points, loop_write_csv, random_series


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

    def test_one_mode_family_with_more_than_64_axes(self, tmp_path):
        # K = 0 is one constant mode in any dimension, and 100 axes are more
        # than an ndarray may have.
        out = tmp_path / "out"
        args = ["norms", "--family", "analytic:a=1:K=0", "--n", "100", "--Jmax", "2"]
        assert main([*args, "--out", str(out)]) == 0
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

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"k": [1e400], "re": 1.0, "im": 0.0}', "JSON integers"),
            ('{"k": 5, "re": 1.0, "im": 0.0}', "list of integers"),
            ('{"k": [1180591620717411303424], "re": 1.0, "im": 0.0}', "2**62"),
            ('{"k": [true], "re": 1.0, "im": 0.0}', "JSON integers"),
            ('{"k": [1], "re": "1.5", "im": 0.0}', "JSON numbers"),
        ],
    )
    def test_malformed_line_exits_2_naming_it(self, tmp_path, capsys, line, reason):
        coeffs = tmp_path / "bad.jsonl"
        coeffs.write_text('{"k": [2], "re": 1.0, "im": 0.0}\n' + line + "\n")
        out = tmp_path / "o"
        assert main(["norms", "--input", str(coeffs), "--Jmax", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {coeffs}:2: ") and reason in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_family_past_cap_exits_4_and_writes_nothing(self, tmp_path, monkeypatch):
        # (2 * 5 + 1)^2 = 121 modes against a cap of 120.
        monkeypatch.setenv("QTORUS_GRID_CAP", "120")
        out = tmp_path / "o"
        args = ["--family", "gevrey:s=2:K=5", "--n", "2", "--Jmax", "3", "--out", str(out)]
        assert main(["norms", *args]) == 4
        assert main(["interp", *args, "--m", "2..3"]) == 4
        assert not out.exists()
        monkeypatch.setenv("QTORUS_GRID_CAP", "121")
        assert main(["norms", *args]) == 0

    def test_family_box_past_cap_exits_4_naming_it_as_a_power(self, tmp_path, monkeypatch, capsys):
        # 3^100000 has 47713 digits: it is refused without being built or printed.
        monkeypatch.delenv("QTORUS_GRID_CAP", raising=False)
        out = tmp_path / "o"
        assert main(["norms", "--family", "analytic:a=1:K=1", "--n", "100000", "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: 3^100000 modes of the family spectrum exceed the cap of 1000000"
            " (QTORUS_GRID_CAP)\n"
        )
        assert not out.exists()

    def test_malformed_cap_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QTORUS_GRID_CAP", "1e6")
        out = tmp_path / "out"
        assert main(["norms", "--family", "analytic:a=1:K=3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: QTORUS_GRID_CAP must be a positive integer, got '1e6'\n"
        )
        assert not out.exists()

    def test_jmax_past_cap_exits_4_before_any_work(self, tmp_path, monkeypatch, capsys):
        # --Jmax 10^6 asks for 10^6 + 1 orders; nothing is read or built.
        monkeypatch.delenv("QTORUS_GRID_CAP", raising=False)
        coeffs = tmp_path / "c.jsonl"
        coeffs.write_text('{"k": [1], "re": 1.0, "im": 0.0}\n')
        for name in ("read_coefficients", "gen_series", "build_profile"):
            monkeypatch.setattr(cli_module, name, _must_not_run)
        out = tmp_path / "o"
        for command in ("norms", "tau", "verdict", "interp"):
            m = [] if command == "norms" else ["--m", "2..3"]
            for source in (["--input", str(coeffs)], ["--family", "analytic:a=1:K=3"]):
                code = main([command, *source, "--Jmax", "1000000", *m, "--out", str(out)])
                assert code == 4
                assert capsys.readouterr().err == (
                    "error: 1000001 profile orders (Jmax + 1) exceed the cap of 1000000"
                    " (QTORUS_GRID_CAP)\n"
                )
        assert not out.exists()

    def test_profile_family_jmax_is_the_one_checked(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("QTORUS_GRID_CAP", raising=False)
        out = tmp_path / "o"
        with monkeypatch.context() as patched:
            patched.setattr(cli_module, "gen_profile", _must_not_run)
            family = "profile:rule=factorial:s=1:Jmax=1000000"
            assert main(["tau", "--family", family, "--m", "2..3", "--out", str(out)]) == 4
            assert capsys.readouterr().err.startswith("error: 1000001 profile orders")
            assert not out.exists()
        # The family's own Jmax is used, so a huge --Jmax is never built.
        family = "profile:rule=factorial:s=1:Jmax=10"
        assert main(["norms", "--family", family, "--Jmax", "1000000", "--out", str(out)]) == 0
        assert len(read_data_rows(out / "profile.csv")) == 12

    def test_file_family_kind_exits_2(self, tmp_path, capsys):
        # JSONL coefficients come in through --input only.
        coeffs = tmp_path / "x.jsonl"
        coeffs.write_text('{"k": [1], "re": 1.0, "im": 0.0}\n')
        out = tmp_path / "o"
        assert main(["norms", "--family", f"file:path={coeffs}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

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

    def test_degenerate_profile_exits_3(self, tmp_path, capsys):
        # The math runs before --out is made, so a failure leaves nothing.
        coeffs = tmp_path / "const.jsonl"
        coeffs.write_text('{"k": [0], "re": 1.0, "im": 0.0}\n')
        for command in ("tau", "verdict"):
            out = tmp_path / command
            code = main([command, "--input", str(coeffs), "--m", "2..8", "--out", str(out)])
            assert code == 3
            assert not out.exists()
            assert capsys.readouterr().err.startswith("error: degenerate profile")


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


    def test_rmax_past_the_float_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["verdict", "--family", "profile:rule=factorial:s=1:Jmax=30", "--m", "2..20"]
        assert main([*args, "--rmax", "1" + "0" * 400, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: r_max must be at most 1.7976931348623157e+308, the largest float\n"
        )
        assert not out.exists()

    def test_rmax_whose_square_overflows_runs_without_a_warning(self, tmp_path):
        # r^2 overflows from r ~ 1.3e154 on; the integrand's limit there is 0.
        out = tmp_path / "out"
        args = ["verdict", "--family", "profile:rule=factorial:s=1:Jmax=30", "--m", "2..20"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*args, "--rmax", str(10**200), "--out", str(out)]) == 0
        carleman = read_strict_json(out / "verdict.json")["carleman"]
        assert math.isfinite(carleman["partial_integral_final"])
        assert carleman["last_decade_increment"] == 0.0

    def test_every_csv_cell_is_a_plain_number(self, tmp_path):
        # numpy scalars would print as np.float64(...); every cell must parse.
        family = ["--family", "profile:rule=factorial:s=1.5:Jmax=60", "--m", "2..50"]
        assert main(["tau", *family, "--rmax", "30", "--out", str(tmp_path / "t")]) == 0
        assert main(["verdict", *family, "--out", str(tmp_path / "v")]) == 0
        tables = [*(tmp_path / "t").glob("*.csv"), *(tmp_path / "v").glob("*.csv")]
        assert len(tables) == 3
        for table in tables:
            for row in read_data_rows(table)[1:]:  # after the column names
                for cell in row.split(","):
                    float(cell)


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

    def test_tolerance_is_the_mode_at_a_time_abs_sum(self, tmp_path):
        coeffs = tmp_path / "f.jsonl"
        rng = np.random.default_rng(17)
        write_coefficients(random_series(rng, 2, max_modes=300, radius=20), coeffs)
        _, oracle = loop_read_coefficients(coeffs)
        want = 1e-9 * (1.0 + float(sum(abs(c) for c in oracle.values())))
        out = tmp_path / "out"
        args = ["interp", "--input", str(coeffs), "--m", "2..5", "--samples", "8"]
        assert main([*args, "--out", str(out)]) == 0
        report = json.loads((out / "interp_report.json").read_text())
        assert [entry["tolerance"] for entry in report["per_m"]] == [want] * 4

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

    def test_bad_z0_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["interp", "--family", "analytic:a=1:K=3", "--m", "2..4", "--z0", "2",
             "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --z0 components must have modulus 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--m", "", "--m needs an integer A or a range A..B, got ''"),
            ("--m", "3..x", "--m needs an integer A or a range A..B, got '3..x'"),
            ("--m", "5..2", "bad --m range '5..2'"),
            ("--z0", "x", "--z0 needs comma-separated complex numbers, got 'x'"),
            ("--z0", "1,", "--z0 needs comma-separated complex numbers, got '1,'"),
        ],
    )
    def test_malformed_m_or_z0_exits_2_naming_the_flag(self, tmp_path, capsys, flag, text, message):
        out = tmp_path / "out"
        args = ["interp", "--family", "analytic:a=1:K=3", "--n", "2", "--samples", "8"]
        assert main([*args, f"{flag}={text}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_series_evaluated_at_z0_once_per_job(self, tmp_path, monkeypatch):
        # The terms c_k z0^k of the series do not depend on m: five audits
        # pin z0 with one computation of them.
        series = gen_series(parse_family_spec("analytic:a=1:K=3", dim=2))
        z0 = np.full(2, cmath.exp(0.7j))  # the default --z0
        calls = []

        def own_tables(tables):
            return all(
                np.array_equal(a, b) and np.array_equal(i, j)
                for (a, i), (b, j) in zip(tables, series._exponent_tables)
            )

        def counted(z, tables, values, _terms=series_module._terms):
            if np.array_equal(z, z0) and own_tables(tables):
                calls.append(z)
            return _terms(z, tables, values)

        for module in (series_module, interpolate_module):
            monkeypatch.setattr(module, "_terms", counted)
        code = main(
            ["interp", "--family", "analytic:a=1:K=3", "--n", "2", "--m", "2..6",
             "--samples", "8", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert len(calls) == 1

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

    def test_grid_past_cap_in_dimension_exits_4_and_writes_nothing(self, tmp_path, monkeypatch):
        # 101 is below the cap, 101^3 = 1030301 grid points are not: refused
        # once the series is loaded, before any audit runs or --out exists.
        monkeypatch.delenv("QTORUS_GRID_CAP", raising=False)
        coeffs = tmp_path / "f.jsonl"
        coeffs.write_text('{"k": [1, 2, 3], "re": 1.0, "im": 0.0}\n')
        audits = []
        monkeypatch.setattr(cli_module, "interpolation_audit", lambda *a, **kw: audits.append(a))
        out = tmp_path / "out"
        code = main(["interp", "--input", str(coeffs), "--m", "2..101", "--out", str(out)])
        assert code == 4
        assert audits == []
        assert not out.exists()

    def test_samples_past_cap_exits_4_before_any_audit(self, tmp_path, monkeypatch, capsys):
        # 500001 samples of n = 2 components are 1000002 > 10^6 values.
        monkeypatch.delenv("QTORUS_GRID_CAP", raising=False)
        monkeypatch.setattr(cli_module, "interpolation_audit", _must_not_run)
        monkeypatch.setattr(cli_module, "bound_audit", _must_not_run)
        out = tmp_path / "out"
        args = ["interp", "--family", "analytic:a=1:K=3", "--n", "2", "--m", "2..3"]
        assert main([*args, "--samples", "500001", "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("error: 1000002 sample components")
        assert not out.exists()
        monkeypatch.undo()
        monkeypatch.setenv("QTORUS_GRID_CAP", "100")
        assert main([*args, "--samples", "51", "--out", str(out)]) == 4
        assert main([*args, "--samples", "50", "--out", str(out)]) == 0

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exits_2_before_reading(self, tmp_path, monkeypatch, capsys, samples):
        monkeypatch.setattr(cli_module, "read_coefficients", _must_not_run)
        out = tmp_path / "out"
        args = ["interp", "--input", str(tmp_path / "c.jsonl"), "--samples", samples]
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --samples must be >= 1, got {samples}\n"
        assert not out.exists()

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_non_finite_t_exits_2(self, tmp_path, capsys, t):
        out = tmp_path / "out"
        args = ["interp", "--family", "analytic:a=1:K=3", "--m", "2..3", "--samples", "8"]
        assert main([*args, "--t", t, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: t must be finite and > 1, got {t}\n"
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["alias", "diagonal"])
    def test_each_fold_built_once(self, tmp_path, monkeypatch, engine):
        calls = Counter()
        for name in ("alias_fold", "diagonal_fold"):
            fold = getattr(interpolate_module, name)

            def counted(series, m, _fold=fold, _name=name):
                calls[_name, m] += 1
                return _fold(series, m)

            monkeypatch.setattr(interpolate_module, name, counted)
        code = main(
            ["interp", "--family", "analytic:a=1:K=12", "--n", "2", "--engine", engine,
             "--m", "2..5", "--samples", "8", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert calls == {(f"{engine}_fold", m): 1 for m in range(2, 6)}

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


def _must_not_run(*args, **kwargs):
    raise AssertionError("work ran past a failed size check")


#: Per command: small arguments, the last math function it calls (as named
#: in qtorus.cli) and the artifacts it writes, in order.
COMMANDS = {
    "norms": (["--family", "analytic:a=1:K=5", "--Jmax", "4"], "build_profile", ["profile.csv"]),
    "tau": (
        ["--family", "profile:rule=factorial:s=1:Jmax=30", "--rmax", "20", "--m", "2..10"],
        "witness",
        ["tau_table.csv", "witness_table.csv", "tau_summary.json"],
    ),
    "verdict": (
        ["--family", "profile:rule=factorial:s=1:Jmax=30", "--rmax", "100", "--m", "2..20"],
        "witness",
        ["verdict.json", "witness_plot.csv", "witness_plot.svg"],
    ),
    "interp": (
        ["--family", "analytic:a=1:K=5", "--m", "2..4", "--samples", "8", "--tm"],
        "bound_audit",
        ["interp_report.json", "interp_sup.csv"],
    ),
}


#: Per command: the keys of its config echo, one per flag it takes.
ECHO_KEYS = {
    "norms": {"family", "input", "jmax", "n", "seed"},
    "tau": {"family", "input", "jmax", "n", "seed", "m", "rmax"},
    "verdict": {"family", "input", "jmax", "n", "seed", "m", "rmax", "slope_threshold", "fit_margin"},
    "interp": {"family", "input", "jmax", "n", "seed", "m", "samples", "t", "tm", "z0", "engine"},
}


class TestParser:
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("verdict", "--tail-threshold=0.5"),
            ("norms", "--m=2..3"),
            ("norms", "--samples=8"),
            ("tau", "--samples=8"),
            ("verdict", "--samples=8"),
        ],
    )
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, *COMMANDS[command][0], flag, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_echo_names_the_flags_the_command_takes(self, tmp_path, command):
        out = tmp_path / "out"
        assert main([command, *COMMANDS[command][0], "--out", str(out)]) == 0
        table = next(name for name in COMMANDS[command][2] if not name.endswith(".json"))
        keys = {line.partition("=")[0] for line in header_lines(out / table)}
        assert keys == {"command", "out", "version", *ECHO_KEYS[command]}


def header_lines(path) -> list[str]:
    """The config lines that open a CSV (``# k=v``) or SVG (``<!-- k=v -->``) artifact."""
    lines = Path(path).read_text().splitlines()
    if path.suffix == ".csv":
        return [ln[2:] for ln in itertools.takewhile(lambda ln: ln.startswith("# "), lines)]
    heads = itertools.takewhile(lambda ln: ln.startswith("<!-- "), lines)
    return [ln[5:-4] for ln in heads]


@pytest.mark.parametrize("command", COMMANDS)
class TestSingleWriter:
    """``main`` alone creates --out and writes every artifact with one config echo."""

    def test_every_artifact_carries_the_same_config(self, tmp_path, command):
        args, _, names = COMMANDS[command]
        out = tmp_path / "out"
        assert main([command, *args, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        tables = [out / name for name in names if not name.endswith(".json")]
        headers = header_lines(tables[0])
        assert {"command=" + command, "out=" + str(out), "version=" + qtorus.__version__} <= set(headers)
        assert headers == sorted(headers)
        for table in tables[1:]:
            assert header_lines(table) == headers
        for name in names:
            if name.endswith(".json"):
                config = read_strict_json(out / name)["config"]
                assert [f"{k}={v}" for k, v in sorted(config.items())] == headers

    def test_error_in_the_math_leaves_no_out(self, tmp_path, monkeypatch, capsys, command):
        args, last_math, _ = COMMANDS[command]

        def fail(*a, **k):
            raise ValueError("injected failure")

        monkeypatch.setattr(cli_module, last_math, fail)
        out = tmp_path / "out"
        assert main([command, *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: injected failure\n"
        assert not out.exists()


class TestConsoleScript:
    def test_pyproject_script_runs_a_norms_job(self, tmp_path, monkeypatch):
        # The `qtorus` console script, resolved the way an installer does.
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        found = re.search(r'^qtorus\s*=\s*"([\w.]+):(\w+)"\s*$', text, re.MULTILINE)
        assert found, "pyproject.toml declares no qtorus console script"
        entry = getattr(importlib.import_module(found.group(1)), found.group(2))
        out = tmp_path / "smoke"
        argv = ["norms", "--family", "analytic:a=1:K=1", "--Jmax", "2", "--out", str(out)]
        monkeypatch.setattr(sys, "argv", ["qtorus", *argv])
        assert entry() == 0
        rows = read_data_rows(out / "profile.csv")
        assert rows[0] == "j,lnM" and [row.split(",")[0] for row in rows[1:]] == ["0", "1", "2"]


SPECIAL_FLOATS = [0.0, -0.0, 1.5, -2.25, 1e16, 1e-05, 1e-300, 5e-324, math.inf, -math.inf, math.nan]


class TestWriters:
    """The columnar CSV and SVG writers against the cell-at-a-time oracles."""

    def assert_csv_matches_oracle(self, tmp_path, columns):
        names = [f"c{i}" for i in range(len(columns))]
        headers = ["command=test", "out=somewhere"]
        _write_csv(tmp_path / "new.csv", headers, names, columns)
        loop_write_csv(tmp_path / "old.csv", headers, names, zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_csv_columns_of_each_kind(self, tmp_path):
        floats = SPECIAL_FLOATS
        size = len(floats)
        ints = [0, -1, 7, 2**70, -(2**63), 3, 12, 5, 1, 0, 99]
        bools = [True, False] * (size // 2) + [True]
        self.assert_csv_matches_oracle(tmp_path, [range(size), floats, ints, bools])
        self.assert_csv_matches_oracle(tmp_path, [tuple(floats), tuple(bools)])

    @pytest.mark.parametrize(
        "column",
        [[1, 2.0], [True, 1], [np.float64(0.1)], [np.int64(-4), np.int64(2)], ["x"], [None]],
    )
    def test_csv_refuses_mixed_and_numpy_scalar_columns(self, tmp_path, column):
        # A numpy scalar would print as np.float64(...); a mixed column has no one format.
        with pytest.raises(TypeError, match="'c1'"):
            _write_csv(tmp_path / "t.csv", [], ("c0", "c1"), (range(len(column)), column))
        assert not (tmp_path / "t.csv").exists()

    def test_csv_with_no_rows(self, tmp_path):
        self.assert_csv_matches_oracle(tmp_path, [[], ()])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=30))
    def test_csv_float_column_property(self, tmp_path_factory, values):
        tmp_path = tmp_path_factory.mktemp("csv")
        self.assert_csv_matches_oracle(tmp_path, [values, [int(i) for i in range(len(values))]])

    def svg_points(self, tmp_path, xs, ys) -> str:
        path = tmp_path / "chart.svg"
        write_svg_line_chart(path, xs, ys, title="t", x_label="x", y_label="y")
        return re.search(r'<polyline points="([^"]*)"', path.read_text()).group(1)

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([math.log(m) for m in range(2, 60)], [0.1 * m**0.5 - 3.0 for m in range(2, 60)]),
            ([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]),  # constant: the y_hi == y_lo branch
            ([2.5], [-1.0]),  # one point: both spans are widened
            ([0.0, 1.0, 2.0, 3.0], [-0.0, math.inf, 1e16, 1e-05]),
            ([0.0, 1.0, 2.0], [math.nan, 1.0, -math.inf]),
            ([3, 1, 2], [True, False, 7]),
            # many points
            ([math.log(m) for m in range(2, 10_002)], [math.sin(m) for m in range(2, 10_002)]),
        ],
    )
    def test_svg_points_match_the_scalar_loop(self, tmp_path, xs, ys):
        assert self.svg_points(tmp_path, xs, ys) == loop_svg_points(xs, ys)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False), st.floats(-1e6, 1e6, allow_nan=False)
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_svg_points_property(self, tmp_path_factory, pairs):
        xs, ys = zip(*pairs)
        tmp_path = tmp_path_factory.mktemp("svg")
        assert self.svg_points(tmp_path, xs, ys) == loop_svg_points(xs, ys)


class TestFiniteOrNull:
    def test_non_finite_floats_nested_become_null(self):
        payload = {
            "a": math.nan,
            "b": [1.0, math.inf, {"c": -math.inf, "d": (2.0, math.nan)}],
            "e": [[1, 2], [3.5, -math.inf]],
            "f": np.float64("nan"),
            "g": "text",
        }
        assert _finite_or_null(payload) == {
            "a": None,
            "b": [1.0, None, {"c": None, "d": [2.0, None]}],
            "e": [[1, 2], [3.5, None]],
            "f": None,
            "g": "text",
        }

    def test_float_free_and_finite_lists_returned_unchanged(self):
        ints = [3, -1, 2**70]
        mixed = [1, True, "x", None]
        finite = [1.0, -0.0, 1e-300]
        for value in (ints, mixed, finite, tuple(ints)):
            assert _finite_or_null(value) is value
        modes = [[1, 2], [3, 4]]
        result = _finite_or_null({"uncovered_modes": modes})["uncovered_modes"]
        assert result == modes and all(a is b for a, b in zip(result, modes))


class TestFreshProcess:
    def test_module_entry_matches_in_process_main(self, tmp_path):
        # ``python -m qtorus.cli`` in a new interpreter, with no bytecode
        # written, gives the bytes main() gives for the same --out.
        out = tmp_path / "out"
        argv = ["norms", "--family", "analytic:a=1:K=1", "--Jmax", "2", "--out", str(out)]
        assert main(argv) == 0
        in_process = (out / "profile.csv").read_bytes()
        (out / "profile.csv").unlink()
        out.rmdir()
        src = str(Path(qtorus.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qtorus.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "profile.csv").read_bytes() == in_process
