import cmath
import importlib
import itertools
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtorus
import qtorus.associated as associated_module
import qtorus.cli as cli_module
import qtorus.interpolate as interpolate_module
import qtorus.series as series_module
from qtorus import build_profile, carleman_diagnostic, witness, write_coefficients
from qtorus.families import gen_profile, gen_series, parse_family_spec
from qtorus.cli import (
    _finite_or_null,
    _json_chunks,
    _parse_m_range,
    _write_csv,
    main,
    write_svg_line_chart,
)
from qtorus.series import _atomic_write
from helpers import (
    joined_write_csv,
    joined_write_svg,
    loop_finite_or_null,
    loop_read_coefficients,
    loop_svg_points,
    loop_write_csv,
    random_series,
)


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

    def test_part_past_the_float_range_exits_2_naming_its_line(self, tmp_path, capsys):
        # A 400-digit JSON integer decodes to an int that no float holds.
        coeffs = tmp_path / "big.jsonl"
        coeffs.write_text('{"k": [1], "re": 1' + "0" * 399 + ', "im": 0.0}\n')
        out = tmp_path / "o"
        assert main(["norms", "--input", str(coeffs), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {coeffs}:1: re and im must be finite numbers\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["norms"], ["interp", "--m", "2..4"], ["interp", "--m", "2..4", "--tm"]]
    )
    def test_modulus_past_the_float_range_exits_2_naming_its_index(self, tmp_path, capsys, command):
        # No overflow warning on the way: pyproject.toml makes it an error.
        coeffs = tmp_path / "huge.jsonl"
        coeffs.write_text('{"k": [0], "re": 3.262434762922911e+307, "im": 1.7678421313306858e+308}\n')
        out = tmp_path / "o"
        assert main([*command, "--input", str(coeffs), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: coefficient at index [0] has a modulus past the float range")
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

    @pytest.mark.parametrize(
        "family, message",
        [
            ("analytic:a=nan:K=3", "decay a must be finite and > 0, got nan"),
            ("gevrey:s=inf:K=3", "exponent s must be finite and >= 1, got inf"),
            ("analytic:a=1:K=3:Jmax=5", "the analytic family does not read parameter 'Jmax'"),
            ("profile:rule=constant:Jmax=5:s=9",
             "the constant profile family does not read parameter 's'"),
            ("analytic:a=1:K=1.5", "parameter 'K' of the analytic family must be an integer, got '1.5'"),
            ("analytic:a=x:K=1", "parameter 'a' of the analytic family must be a number, got 'x'"),
            ("profile:rule=factorial:s=nan:Jmax=5", "exponent s must be finite, got nan"),
        ],
    )
    def test_bad_family_parameter_exits_2_naming_it(self, tmp_path, capsys, family, message):
        out = tmp_path / "o"
        assert main(["norms", "--family", family, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("rmax", ["0", "-5"])
    def test_rmax_below_one_exits_2_naming_it_before_any_work(
        self, tmp_path, capsys, monkeypatch, rmax
    ):
        monkeypatch.setattr(cli_module, "_load_profile", _must_not_run)
        out = tmp_path / "out"
        family = "profile:rule=factorial:s=1:Jmax=30"
        assert main(["tau", "--family", family, "--rmax", rmax, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --rmax must be an integer >= 1, got {rmax}\n"
        assert not out.exists()

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
        assert verdict["effective"] == {
            "j_max": 200,
            "dim": 1,
            "slope_threshold": 0.05,
            "fit_margin": 0.9,
            "saturation_fraction": 0.5,
            "min_fit_points": 8,
        }

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
        assert capsys.readouterr().err == f"error: r_max must be finite and >= 2, got 1{'0' * 400}\n"
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

    @pytest.mark.parametrize(
        "family",
        [
            ["--family", "profile:rule=factorial:s=1:Jmax=120"],
            ["--family", "profile:rule=factorial:s=2:Jmax=120"],
            ["--family", "profile:rule=factorial:s=0.5:Jmax=120"],
            ["--family", "profile:rule=constant:Jmax=120"],
            ["--family", "gevrey:s=2:K=40", "--Jmax", "40"],
        ],
        ids=["factorial-s1", "factorial-s2", "factorial-s0.5", "constant", "gevrey"],
    )
    def test_effective_records_the_cutoffs_the_library_applies(self, tmp_path, family):
        # No flag sets a cutoff: the artifact records the module constants,
        # and its verdicts are the library's on the same profile.
        out = tmp_path / "out"
        assert main(["verdict", *family, "--rmax", "500", "--m", "2..60", "--out", str(out)]) == 0
        verdict = read_strict_json(out / "verdict.json")
        spec = parse_family_spec(family[1])
        if spec.kind == "profile":
            profile = gen_profile(spec)
        else:
            profile = build_profile(gen_series(spec), int(family[3]))
        assert verdict["effective"] == {
            "j_max": profile.j_max,
            "dim": profile.dim,
            "slope_threshold": associated_module.SLOPE_THRESHOLD,
            "fit_margin": associated_module.FIT_MARGIN,
            "saturation_fraction": associated_module.SATURATION_FRACTION,
            "min_fit_points": associated_module.MIN_FIT_POINTS,
        }
        report = carleman_diagnostic(profile, 500)
        wit = witness(profile, profile.dim, range(2, 61))
        assert verdict["carleman"]["verdict"] == verdict["overall"] == report.verdict
        assert verdict["carleman"]["saturation_flag"] is bool(
            report.saturated_fraction > associated_module.SATURATION_FRACTION
        )
        assert verdict["witness"]["classification"] == wit.classification


@pytest.mark.parametrize("command", ["verdict", "tau"])
def test_growth_model_fits_call_no_lapack(tmp_path, monkeypatch, command):
    # The fits are closed-form centred least squares on numpy's pairwise
    # sums, so their bits do not depend on the BLAS build or thread count.
    out = tmp_path / "out"
    argv = [command, "--family", "profile:rule=factorial:s=1.5:Jmax=200", "--rmax", "1000",
            "--m", "2..400", "--out", str(out)]
    assert main(argv) == 0
    want = {path.name: path.read_bytes() for path in out.iterdir()}
    shutil.rmtree(out)

    def no_lapack(*args, **kwargs):
        raise AssertionError("numpy.linalg.lstsq called")

    fits = []
    fit_line = associated_module._fit_line

    def counted_fit_line(x, y):
        fits.append(x.size)
        return fit_line(x, y)

    monkeypatch.setattr(np.linalg, "lstsq", no_lapack)
    monkeypatch.setattr(associated_module, "_fit_line", counted_fit_line)
    assert main(argv) == 0
    assert {path.name: path.read_bytes() for path in out.iterdir()} == want
    assert len(fits) >= 3  # the witness slope and both growth models


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
        # One mode, so one sampled term per sample and m: 2 x 50 terms, and
        # the 2 x 50 sample components, are within a cap of 100.
        monkeypatch.setenv("QTORUS_GRID_CAP", "100")
        args = ["interp", "--family", "analytic:a=1:K=0", "--n", "2", "--m", "2..3"]
        assert main([*args, "--samples", "51", "--out", str(out)]) == 4
        assert main([*args, "--samples", "50", "--out", str(out)]) == 0

    def test_sampled_terms_past_cap_exit_4_before_any_work(self, tmp_path, monkeypatch, capsys):
        # 10^6 samples of the 2001-mode fold at m = 2 are 2*10^6 sampled
        # terms, past the default cap, though each other size is within it.
        monkeypatch.delenv("QTORUS_GRID_CAP", raising=False)
        for name in ("interpolation_audit", "bound_audit", "build_profile"):
            monkeypatch.setattr(cli_module, name, _must_not_run)
        out = tmp_path / "out"
        args = ["interp", "--family", "analytic:a=1:K=1000", "--m", "2..200"]
        assert main([*args, "--samples", "1000000", "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: 2000000 sampled terms (--samples x fold modes) summed over --m 2..2"
            " exceed the cap of 1000000 (QTORUS_GRID_CAP)\n"
        )
        assert not out.exists()
        monkeypatch.undo()
        # K = 1: 3 modes, so min(3, m) = 2 and 3 fold modes at m = 2, 3: 5 terms a sample.
        monkeypatch.setenv("QTORUS_GRID_CAP", "20")
        args = ["interp", "--family", "analytic:a=1:K=1", "--m", "2..3", "--Jmax", "4"]
        assert main([*args, "--samples", "5", "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: 25 sampled terms (--samples x fold modes) summed over --m 2..3"
            " exceed the cap of 20 (QTORUS_GRID_CAP)\n"
        )
        assert main([*args, "--samples", "4", "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "lines, engine",
        [
            (['{"k": [1, 2], "re": 1.3e308, "im": 0.0}', '{"k": [2, 1], "re": 0.0, "im": 1.3e308}'],
             "diagonal"),
            (['{"k": [1], "re": 1.3e308, "im": 0.0}', '{"k": [3], "re": 1.3e308, "im": 0.0}'],
             "alias"),
        ],
        ids=["diagonal-grid", "alias-residue"],
    )
    def test_moduli_summing_past_the_float_range_exit_2_before_any_fold(
        self, tmp_path, monkeypatch, capsys, lines, engine
    ):
        # Each modulus is finite, their sum is not: every tolerance would be
        # inf (which every error passed) and a residue sum could overflow.
        for name in ("rescale_to_class", "build_profile", "interpolation_audit", "bound_audit"):
            monkeypatch.setattr(cli_module, name, _must_not_run)
        coeffs = tmp_path / "f.jsonl"
        coeffs.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = ["interp", "--input", str(coeffs), "--engine", engine, "--m", "2..3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --input {coeffs}: the coefficient moduli sum past the float range\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exits_2_before_reading(self, tmp_path, monkeypatch, capsys, samples):
        monkeypatch.setattr(cli_module, "read_coefficients", _must_not_run)
        out = tmp_path / "out"
        args = ["interp", "--input", str(tmp_path / "c.jsonl"), "--samples", samples]
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --samples must be an integer >= 1, got {samples}\n"
        assert not out.exists()

    def test_negative_seed_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys):
        for name in ("read_coefficients", "gen_series", "interpolation_audit", "bound_audit"):
            monkeypatch.setattr(cli_module, name, _must_not_run)
        out = tmp_path / "out"
        args = ["interp", "--family", "analytic:a=1:K=3", "--m", "2..4", "--samples", "16"]
        assert main([*args, "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_non_finite_t_exits_2(self, tmp_path, capsys, t):
        out = tmp_path / "out"
        args = ["interp", "--family", "analytic:a=1:K=3", "--m", "2..3", "--samples", "8"]
        assert main([*args, "--t", t, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --t must be finite and > 1, got {t}\n"
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
    "verdict": {"family", "input", "jmax", "n", "seed", "m", "rmax"},
    "interp": {"family", "input", "jmax", "n", "seed", "m", "samples", "t", "tm", "z0", "engine"},
}


#: (command, flag, value, the refusal): each flag the pre-flight plan
#: checks, on every command that takes it, with the line that names it.
FLAG_REFUSALS = [
    *[
        (command, flag, value, f"{flag} must be an integer >= {least}, got {value}")
        for command in ("norms", "tau", "verdict", "interp")
        for flag, value, least in (("--n", "0", 1), ("--Jmax", "-1", 0), ("--seed", "-1", 0))
    ],
    ("interp", "--samples", "0", "--samples must be an integer >= 1, got 0"),
    ("tau", "--rmax", "0", "--rmax must be an integer >= 1, got 0"),
    ("verdict", "--rmax", "1", "--rmax must be an integer >= 2, got 1"),
    ("verdict", "--rmax", "-3", "--rmax must be an integer >= 2, got -3"),
    ("interp", "--t", "1", "--t must be finite and > 1, got 1.0"),
    ("interp", "--t", "0.5", "--t must be finite and > 1, got 0.5"),
    ("interp", "--t", "-inf", "--t must be finite and > 1, got -inf"),
    ("interp", "--t", "nan", "--t must be finite and > 1, got nan"),
    ("tau", "--m", "0..3", "bad --m range '0..3'"),
    ("verdict", "--m", "4..x", "--m needs an integer A or a range A..B, got '4..x'"),
    ("interp", "--m", "9..2", "bad --m range '9..2'"),
]


class TestPlan:
    """``main`` checks every flag and every size argv fixes before any work."""

    @pytest.mark.parametrize(
        "command, flag, value, message",
        FLAG_REFUSALS,
        ids=[f"{c}{f}={v}" for c, f, v, _ in FLAG_REFUSALS],
    )
    def test_bad_flag_exits_2_naming_it_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, flag, value, message
    ):
        for name in ("read_coefficients", "gen_series", "gen_profile", "build_profile"):
            monkeypatch.setattr(cli_module, name, _must_not_run)
        coeffs = tmp_path / "c.jsonl"
        coeffs.write_text('{"k": [1], "re": 1.0, "im": 0.0}\n')
        out = tmp_path / "out"
        for source in (["--input", str(coeffs)], ["--family", "profile:rule=factorial:Jmax=30"]):
            assert main([command, *source, f"{flag}={value}", "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_tm_ignores_t(self, tmp_path):
        args = ["interp", "--family", "analytic:a=1:K=3", "--m", "2..3", "--samples", "8"]
        assert main([*args, "--tm", "--t", "nan", "--out", str(tmp_path / "out")]) == 0

    def test_profile_family_for_interp_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli_module, "gen_profile", _must_not_run)
        out = tmp_path / "out"
        family = "profile:rule=factorial:Jmax=30"
        assert main(["interp", "--family", family, "--m", "2..3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: profile families have no spectrum; interp needs one\n"
        assert not out.exists()

    @pytest.mark.parametrize("cap, code", [("13", 0), ("12", 4)])
    def test_grid_work_of_the_whole_m_range_is_capped(self, tmp_path, monkeypatch, capsys, cap, code):
        # n = 2, --m 2..3: 4 + 9 = 13 grid points over the job, each grid
        # (at most 9), the 9 modes, 3 orders and 2 sample components below
        # 12.  One sample of min(9, m^2) fold modes is 13 sampled terms too:
        # past a cap of 12 with the grid points, which are named first.
        monkeypatch.setenv("QTORUS_GRID_CAP", cap)
        audits = []

        def counted(series, m, *args, _audit=cli_module.interpolation_audit, **kwargs):
            audits.append(m)
            return _audit(series, m, *args, **kwargs)

        monkeypatch.setattr(cli_module, "interpolation_audit", counted)
        out = tmp_path / "out"
        args = ["interp", "--family", "analytic:a=1:K=1", "--n", "2", "--m", "2..3", "--Jmax", "2"]
        assert main([*args, "--samples", "1", "--out", str(out)]) == code
        if code:
            assert capsys.readouterr().err == (
                "error: 13 grid points summed over --m 2..3 exceed the cap of 12 (QTORUS_GRID_CAP)\n"
            )
            assert audits == [] and not out.exists()
        else:
            assert audits == [2, 3] and out.exists()

    def test_grid_work_sum_stops_past_the_cap(self, tmp_path, monkeypatch, capsys):
        # Every grid of --m 2..1000000 at n = 1 is within the default cap, but
        # the job's ~5e11 grid points are not: the sum stops at m = 1414.  One
        # sample of the 3 modes keeps the sampled terms below the grid points.
        monkeypatch.delenv("QTORUS_GRID_CAP", raising=False)
        for name in ("interpolation_audit", "bound_audit", "build_profile"):
            monkeypatch.setattr(cli_module, name, _must_not_run)
        out = tmp_path / "out"
        args = ["interp", "--family", "analytic:a=1:K=1", "--m", "2..1000000", "--samples", "1"]
        assert main([*args, "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: 1000404 grid points summed over --m 2..1414 exceed the cap of 1000000"
            " (QTORUS_GRID_CAP)\n"
        )
        assert not out.exists()

    def test_tm_with_a_t_m_at_or_below_one_exits_2_before_any_audit(
        self, tmp_path, monkeypatch, capsys
    ):
        # With Jmax 2 the head terms alone set t_m, and t_5 < 1.
        for name in ("interpolation_audit", "bound_audit"):
            monkeypatch.setattr(cli_module, name, _must_not_run)
        out = tmp_path / "out"
        args = ["interp", "--family", "analytic:a=1:K=3", "--samples", "16", "--tm", "--Jmax", "2"]
        assert main([*args, "--m", "2..20", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --tm needs every t_m finite and > 1, got t_m = 0.9769563293656542 at m = 5\n"
        )
        assert not out.exists()
        monkeypatch.undo()
        assert main([*args, "--m", "2..4", "--out", str(out)]) == 0
        report = read_strict_json(out / "interp_report.json")
        assert all(entry["t"] > 1 for entry in report["per_m"])

    @pytest.mark.parametrize(
        "z0, message",
        [
            ("x", "--z0 needs comma-separated complex numbers, got 'x'"),
            ("2", "--z0 components must have modulus 1"),
            # Its modulus is past the float range, where the builtin abs raises OverflowError.
            ("1.5e308+1.5e308j", "--z0 components must have modulus 1"),
            ("nan", "--z0 components must be finite, got 'nan'"),
            ("0", "--z0 components must be nonzero, got '0'"),
        ],
    )
    def test_bad_z0_exits_2_before_any_input_is_read(self, tmp_path, monkeypatch, capsys, z0, message):
        # --z0's syntax and modulus need no n: the job used to build the
        # profile and t_m sequence before refusing it.
        for name in ("read_coefficients", "gen_series", "build_profile"):
            monkeypatch.setattr(cli_module, name, _must_not_run)
        out = tmp_path / "out"
        args = ["interp", "--family", "analytic:a=1:K=30", "--n", "2", "--m", "2..40", "--tm"]
        assert main([*args, "--z0", z0, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_z0_of_the_wrong_dimension_exits_2_before_the_profile(self, tmp_path, monkeypatch, capsys):
        # The component count waits for n, which the series gives; nothing after it runs.
        for name in ("build_profile", "interpolation_audit"):
            monkeypatch.setattr(cli_module, name, _must_not_run)
        out = tmp_path / "out"
        args = ["interp", "--family", "analytic:a=1:K=3", "--n", "2", "--m", "2..4", "--z0", "1"]
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --z0 needs 2 comma-separated components\n"
        assert not out.exists()


class TestParser:
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("verdict", "--tail-threshold=0.5"),
            ("verdict", "--fit-margin=0.9"),
            ("verdict", "--slope-threshold=0.05"),
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

    @pytest.mark.parametrize("flag, value", [("--slope-threshold", "0.05"), ("--fit-margin", "0.9")])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_trend_cutoff_flags_are_gone_from_every_command(
        self, tmp_path, monkeypatch, capsys, command, flag, value
    ):
        # The cutoffs are constants: no command takes them, nor a flag they
        # abbreviate, and the refusal comes before any input is read.
        for name in ("read_coefficients", "gen_series", "gen_profile"):
            monkeypatch.setattr(cli_module, name, _must_not_run)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, *COMMANDS[command][0], flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
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
    def test_pyproject_script_runs_a_norms_job(self, tmp_path):
        # The `qtorus` console script, resolved the way an installer does
        # and called as its wrapper calls it, in a new interpreter: the
        # entry point ends the process.
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        found = re.search(r'^qtorus\s*=\s*"([\w.]+):(\w+)"\s*$', text, re.MULTILINE)
        assert found, "pyproject.toml declares no qtorus console script"
        module, name = found.groups()
        assert callable(getattr(importlib.import_module(module), name))
        out = tmp_path / "smoke"
        argv = ["norms", "--family", "analytic:a=1:K=1", "--Jmax", "2", "--out", str(out)]
        code = (
            "import sys\n"
            f"from {module} import {name}\n"
            f"sys.argv = {['qtorus', *argv]!r}\n"
            f"sys.exit({name}())\n"
        )
        proc = run_fresh("-c", code)
        assert proc.returncode == 0, proc.stderr
        rows = read_data_rows(out / "profile.csv")
        assert rows[0] == "j,lnM" and [row.split(",")[0] for row in rows[1:]] == ["0", "1", "2"]


SPECIAL_FLOATS = [0.0, -0.0, 1.5, -2.25, 1e16, 1e-05, 1e-300, 5e-324, math.inf, -math.inf, math.nan]


class TestWriters:
    """The columnar CSV and SVG writers against the cell-at-a-time oracles."""

    def assert_csv_matches_oracle(self, tmp_path, columns):
        names = [f"c{i}" for i in range(len(columns))]
        headers = ["command=test", "out=somewhere"]
        _write_csv(tmp_path / "new.csv", headers, names, columns)
        rows = zip(*(col.tolist() for col in columns))
        loop_write_csv(tmp_path / "old.csv", headers, names, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_csv_columns_of_each_kind(self, tmp_path):
        floats = np.array(SPECIAL_FLOATS)
        size = len(floats)
        ints = np.array([0, -1, 7, 2**53 + 1, -(2**63), 2**63 - 1, 12, 5, 1, 0, 99])
        bools = np.array([True, False] * (size // 2) + [True])
        self.assert_csv_matches_oracle(tmp_path, [np.arange(size), floats, ints, bools])
        self.assert_csv_matches_oracle(tmp_path, [floats, bools])

    @pytest.mark.parametrize(
        "column",
        [[1, 2.0], [True, 1], [np.float64(0.1)], [np.int64(-4), np.int64(2)], ["x"], [None]],
    )
    def test_csv_refuses_mixed_and_numpy_scalar_columns(self, tmp_path, column):
        # Only a 1-D float, int or bool ndarray is a column; a list is not, even
        # of one type, and a list of numpy scalars would print np.float64(...).
        with pytest.raises(TypeError, match="'c1'"):
            _write_csv(tmp_path / "t.csv", [], ("c0", "c1"), (np.arange(len(column)), column))
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "column",
        [
            np.array(["x", "y"]),
            np.array([1 + 2j, 3j]),
            np.array([1, None], dtype=object),
            np.array([1, 2], dtype=np.uint8),
            np.zeros((2, 1)),
            np.float64(0.5),
        ],
        ids=["str", "complex", "object", "unsigned", "2-D", "0-D"],
    )
    def test_csv_refuses_arrays_of_other_kinds(self, tmp_path, column):
        with pytest.raises(TypeError, match="'c1'"):
            _write_csv(tmp_path / "t.csv", [], ("c0", "c1"), (np.arange(2), column))
        assert not (tmp_path / "t.csv").exists()

    def test_csv_refuses_columns_of_different_lengths(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            _write_csv(tmp_path / "t.csv", [], ("a", "b"), (np.array([1, 2, 3]), np.array([1.0])))
        assert not (tmp_path / "t.csv").exists()

    def test_csv_with_no_rows(self, tmp_path):
        self.assert_csv_matches_oracle(tmp_path, [np.array([]), np.array([], dtype=np.int64)])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=30))
    def test_csv_float_column_property(self, tmp_path_factory, values):
        tmp_path = tmp_path_factory.mktemp("csv")
        self.assert_csv_matches_oracle(tmp_path, [np.array(values), np.arange(len(values))])

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


#: Float cells whose repr or %.2f formatting is easy to get wrong.
EDGE_FLOATS = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-05]
#: Int cells past 2^53, where a float detour would round.
EDGE_INTS = [2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]
CELLS = {
    "f": st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
    "i": st.one_of(st.sampled_from(EDGE_INTS), st.integers(-(2**63), 2**63 - 1)),
    "b": st.booleans(),
}
DTYPES = {"f": np.float64, "i": np.int64, "b": np.bool_}
#: Rows per written block: one, a size that splits the grid unevenly, the default.
BLOCKS = (1, 7, cli_module.READ_BLOCK)
HEADERS = ["command=test", "out=somewhere"]


@st.composite
def column_sets(draw, min_size=0):
    """One to four 1-D columns of a common length, each float, int or bool."""
    size = draw(st.integers(min_size, 40))
    kinds = draw(st.lists(st.sampled_from("fib"), min_size=1, max_size=4))
    return [
        np.array(draw(st.lists(CELLS[k], min_size=size, max_size=size)), dtype=DTYPES[k])
        for k in kinds
    ]


class TestStreamedWriters:
    """The block-streaming CSV and SVG writers give the bytes of the joined-text writers."""

    def assert_csv_bytes(self, tmp_path, columns):
        names = [f"c{i}" for i in range(len(columns))]
        joined_write_csv(tmp_path / "old.csv", HEADERS, names, [c.tolist() for c in columns])
        for block in BLOCKS:
            with mock.patch.object(cli_module, "READ_BLOCK", block):
                _write_csv(tmp_path / "new.csv", HEADERS, names, columns)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def assert_svg_bytes(self, tmp_path, xs, ys):
        args = ("title", "ln m", "d_m")
        joined_write_svg(tmp_path / "old.svg", xs.tolist(), ys.tolist(), *args, HEADERS)
        for block in BLOCKS:
            with mock.patch.object(cli_module, "READ_BLOCK", block):
                write_svg_line_chart(tmp_path / "new.svg", xs, ys, *args, HEADERS)
            assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(column_sets())
    def test_csv_property(self, tmp_path_factory, columns):
        self.assert_csv_bytes(tmp_path_factory.mktemp("csv"), columns)

    @settings(max_examples=80, deadline=None)
    @given(column_sets(min_size=1))
    def test_svg_property(self, tmp_path_factory, columns):
        # The first and last column as x and y: NaNs, zeros of both signs,
        # infinities and ints past 2^53 all reach min, max and the scaling.
        self.assert_svg_bytes(tmp_path_factory.mktemp("svg"), columns[0], columns[-1])

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_svg_bounds_keep_the_first_of_tied_zeros(self, tmp_path, first, second):
        # min() and max() keep the first of equal items; numpy's vector
        # nanmin and nanmax may return either zero, which the labels show.
        for at in ([1, 2], [0, 50], [10, 60]):
            low = np.ones(100)
            low[at] = first, second
            self.assert_svg_bytes(tmp_path, low, -low)
            self.assert_svg_bytes(tmp_path, -low, low)

    def test_empty_columns(self, tmp_path):
        self.assert_csv_bytes(tmp_path, [np.array([]), np.array([], dtype=np.int64)])

    def test_grids_longer_than_the_default_block(self, tmp_path):
        rng = np.random.default_rng(5)
        size = 3 * cli_module.READ_BLOCK + 11
        m = np.arange(2, size + 2)
        values = rng.normal(size=size) * 10.0 ** rng.integers(-20, 20, size=size)
        values[rng.integers(0, size, size=20)] = rng.choice(EDGE_FLOATS, size=20)
        self.assert_csv_bytes(tmp_path, [m, values, values > 0])
        xs = np.fromiter(map(math.log, m.tolist()), dtype=float)
        self.assert_svg_bytes(tmp_path, xs, np.where(np.isfinite(values), values, 0.0))
        self.assert_svg_bytes(tmp_path, xs, values)

    def test_failure_mid_stream_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        path.write_text("earlier\n")
        blocks = []

        class Failing(np.ndarray):
            def tolist(self):
                blocks.append(len(self))
                if len(blocks) > 1:
                    raise OSError("disk full")
                return super().tolist()

        monkeypatch.setattr(cli_module, "READ_BLOCK", 2)
        with pytest.raises(OSError, match="disk full"):
            _write_csv(path, HEADERS, ["c0"], [np.arange(5.0).view(Failing)])
        assert blocks == [2, 2]  # the header and one block were written first
        assert path.read_text() == "earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_atomic_write_takes_chunks_and_a_str_is_one(self, tmp_path):
        _atomic_write(tmp_path / "a", iter(["ab", "", "c\n"]))
        _atomic_write(tmp_path / "b", "abc\n")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes() == b"abc\n"

        def chunks():
            yield "partial"
            raise ValueError("generator failed")

        with pytest.raises(ValueError, match="generator failed"):
            _atomic_write(tmp_path / "a", chunks())
        assert (tmp_path / "a").read_bytes() == b"abc\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

    def test_m_range_is_a_range(self):
        assert _parse_m_range("2..20000") == range(2, 20001)
        assert _parse_m_range("7") == range(7, 8)


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
        assert _finite_or_null({"uncovered_modes": modes})["uncovered_modes"] is modes

    def test_non_finite_float_two_list_levels_deep_becomes_null(self):
        assert _finite_or_null([[1, 2], [3, math.nan]]) == [[1, 2], [3, None]]
        assert _finite_or_null([[1], [[math.inf]]]) == [[1], [[None]]]
        assert _finite_or_null({"a": [[0], [-math.inf, 2]]}) == {"a": [[0], [None, 2]]}

    def test_interp_report_bytes_match_the_item_by_item_rebuild(self, tmp_path, monkeypatch):
        # A diagonal n = 2 job leaves modes uncovered at every m.
        argv = ["interp", "--family", "analytic:a=1:K=6", "--n", "2", "--m", "3..6",
                "--engine", "diagonal", "--samples", "8"]
        report = tmp_path / "out" / "interp_report.json"
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        fast = report.read_bytes()
        report.unlink()
        monkeypatch.setattr(cli_module, "_finite_or_null", loop_finite_or_null)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert report.read_bytes() == fast
        assert all(row["uncovered_modes"] for row in json.loads(fast)["per_m"])


#: JSON-like values: every leaf json.dumps takes, NaN and inf among the
#: floats, inside lists, tuples and dicts with str keys.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


class TestJsonChunks:
    @settings(max_examples=300, deadline=None)
    @given(json_values, st.integers(0, 4))
    @example({}, 2)
    @example([], 2)
    @example({"b": [], "a": {}, "c": [[], {}]}, 2)
    @example({"z": [1.5, True, None, "\u00e9\n"], "a": {"y": [math.nan], "x": -math.inf}}, 2)
    @example((1, (2.0, [False])), 3)
    def test_text_equals_json_dumps(self, value, depth):
        value = _finite_or_null(value)
        want = json.dumps(value, sort_keys=True, allow_nan=False)
        assert "".join(_json_chunks(value, depth)) == want

    def test_interp_report_encoded_one_per_m_report_at_a_time(self, tmp_path, monkeypatch):
        # The C encoder's token list is the memory: no json.dumps call may
        # take more than one per-m report of a multi-m job.
        argv = ["interp", "--family", "analytic:a=1:K=6", "--n", "2", "--m", "3..6",
                "--engine", "diagonal", "--samples", "8", "--out", str(tmp_path / "out")]
        dumped = []
        dumps = json.dumps

        def spy(*args, **kwargs):
            dumped.append(dumps(*args, **kwargs))
            return dumped[-1]

        monkeypatch.setattr(json, "dumps", spy)
        assert main(argv) == 0
        monkeypatch.undo()
        text = (tmp_path / "out" / "interp_report.json").read_text(encoding="utf-8")
        report = json.loads(text)
        assert text == json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
        largest = max(len(json.dumps(row, sort_keys=True)) for row in report["per_m"])
        assert max(map(len, dumped)) == largest


def run_fresh(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter on this checkout, writing no bytecode.

    ``env`` holds variables to set on top of this process's environment.
    """
    src = str(Path(qtorus.__file__).resolve().parents[1])
    env = {**os.environ, **(env or {}), "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


class TestFreshProcess:
    def test_interp_job_leaves_numpy_random_unimported(self, tmp_path):
        # numpy.random brings in secrets, hashlib and OpenSSL's libcrypto,
        # about 5.5 MB of resident set that an interp job does not need.
        argv = ["interp", "--family", "analytic:a=1:K=3", "--n", "2", "--m", "2..4",
                "--samples", "16", "--tm", "--out", str(tmp_path / "out")]
        code = (
            "import sys\n"
            "from qtorus.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted({'numpy.random', 'secrets', 'hashlib'} & set(sys.modules)))\n"
        )
        proc = run_fresh("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
        assert (tmp_path / "out" / "interp_report.json").exists()

    def test_module_entry_matches_in_process_main(self, tmp_path):
        # ``python -m qtorus.cli`` in a new interpreter, with no bytecode
        # written, gives the bytes main() gives for the same --out.
        out = tmp_path / "out"
        argv = ["norms", "--family", "analytic:a=1:K=1", "--Jmax", "2", "--out", str(out)]
        assert main(argv) == 0
        in_process = (out / "profile.csv").read_bytes()
        (out / "profile.csv").unlink()
        out.rmdir()
        proc = run_fresh("-m", "qtorus.cli", *argv)
        assert proc.returncode == 0, proc.stderr
        assert (out / "profile.csv").read_bytes() == in_process

    def test_jobs_run_in_one_process_carry_no_state(self, tmp_path):
        # The c11 jobs and two interp jobs on one seed and sample count, run
        # through main() in one process, forwards and then backwards: each
        # gives the same bytes both times, so nothing one job leaves behind
        # (a cache, a draw) changes another.  The interp jobs also give the
        # bytes of a job in a process of its own.
        coeffs = tmp_path / "coeffs.jsonl"
        write_coefficients(random_series(np.random.default_rng(5), 2, max_modes=15, radius=4), coeffs)
        interp = ["interp", "--family", "analytic:a=1:K=3", "--n", "2", "--m", "2..4",
                  "--seed", "5", "--samples", "16"]
        jobs = {
            "norms": ["norms", "--family", "gevrey:s=2:K=40", "--Jmax", "12"],
            "tau": ["tau", "--family", "profile:rule=factorial:s=1:Jmax=60", "--rmax", "30",
                    "--m", "2..25"],
            "verdict": ["verdict", "--family", "profile:rule=factorial:s=2:Jmax=80", "--rmax", "200",
                        "--m", "2..120"],
            "interp": ["interp", "--input", str(coeffs), "--m", "2..5", "--samples", "64",
                       "--seed", "11"],
            "interp-t": [*interp, "--t", "1.5"],
            "interp-tm": [*interp, "--tm"],
        }

        def artifacts(name):
            out = tmp_path / name
            found = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            shutil.rmtree(out)
            return found

        passes = []
        for order in (list(jobs), list(reversed(jobs))):
            for name in order:
                assert main([*jobs[name], "--out", str(tmp_path / name)]) == 0
            passes.append({name: artifacts(name) for name in order})
        assert passes[0] == passes[1]
        for name in ("interp-t", "interp-tm"):
            proc = run_fresh("-m", "qtorus.cli", *jobs[name], "--out", str(tmp_path / name))
            assert proc.returncode == 0, proc.stderr
            assert artifacts(name) == passes[0][name]

    @pytest.mark.parametrize(
        "argv, env, code, error",
        [
            (["norms", "--family", "analytic:a=1:K=1", "--Jmax", "2"], {}, 0, ""),
            (["tau", "--family", "profile:rule=factorial:Jmax=30", "--m", "2..x"], {}, 2,
             "error: --m needs an integer A or a range A..B, got '2..x'\n"),
            (["tau", "--family", "analytic:a=1:K=0", "--Jmax", "4", "--m", "2..8"], {}, 3,
             "error: degenerate profile: some ln M_j = -inf\n"),
            (["tau", "--family", "profile:rule=factorial:Jmax=30", "--rmax", "20", "--m", "2..10"],
             {"QTORUS_GRID_CAP": "10"}, 4,
             "error: 20 points of the --rmax grid exceed the cap of 10 (QTORUS_GRID_CAP)\n"),
            (["tau", "--family", "profile:rule=factorial:Jmax=30", "--rmax", "0"], {}, 2,
             "error: --rmax must be an integer >= 1, got 0\n"),
        ],
        ids=["ok", "bad-m", "degenerate", "past-cap", "rmax-0"],
    )
    def test_module_entry_exit_codes(self, tmp_path, argv, env, code, error):
        # The process entry point ends without interpreter teardown; the
        # exit code and the error line on stderr are main()'s.
        out = tmp_path / "out"
        proc = run_fresh("-m", "qtorus.cli", *argv, "--out", str(out), env=env)
        assert (proc.returncode, proc.stderr) == (code, error)
        assert out.exists() == (code == 0)

    def test_entry_point_flushes_and_skips_teardown(self, tmp_path):
        # Text still in the stdout buffer reaches the reader: stdout is a
        # pipe and PYTHONUNBUFFERED is unset, so it is block-buffered.  An
        # atexit handler, which only interpreter teardown would call, does
        # not run.
        argv = ["qtorus", "norms", "--family", "analytic:a=1:K=1", "--Jmax", "2",
                "--out", str(tmp_path / "out")]
        code = (
            "import atexit, sys\n"
            "from qtorus.cli import run\n"
            "atexit.register(print, 'teardown')\n"
            f"sys.argv = {argv!r}\n"
            "print('buffered', end='')\n"
            "run()\n"
        )
        proc = run_fresh("-c", code, env={"PYTHONUNBUFFERED": ""})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "buffered", "")

    @pytest.mark.parametrize(
        "tool, marker",
        [
            (["-m", "cProfile", "-m"], "function calls"),
            (["-m", "trace", "--listfuncs", "--module"], "funcname: main"),
        ],
        ids=["cProfile", "trace"],
    )
    def test_profiler_report_survives_the_entry_point(self, tmp_path, tool, marker):
        # With a profiler or tracer attached the job exits the normal way,
        # so the tool's report, printed at exit, reaches stdout.
        argv = ["norms", "--family", "analytic:a=1:K=1", "--Jmax", "2",
                "--out", str(tmp_path / "out")]
        proc = run_fresh(*tool, "qtorus.cli", *argv)
        assert proc.returncode == 0, proc.stderr
        assert marker in proc.stdout
        assert (tmp_path / "out" / "profile.csv").exists()

    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 feature names"
    )
    def test_verdict_bytes_independent_of_simd_level(self, tmp_path):
        # numpy's vector log and power may differ from libm's in the last
        # bit where it dispatches AVX2 or AVX-512 kernels, and not at its
        # baseline level; a verdict takes every ln r and log-spaced r from
        # libm.  Both runs write to the same --out, which the echo records.
        argv = ["verdict", "--family", "profile:rule=factorial:s=1.5:Jmax=200",
                "--rmax", "1000", "--m", "2..10000", "--out", str(tmp_path / "out")]
        artifacts = []
        for env in ({}, {"NPY_ENABLE_CPU_FEATURES": "SSE SSE2 SSE3 SSSE3 SSE41 POPCNT SSE42"}):
            proc = run_fresh("-m", "qtorus.cli", *argv, env=env)
            assert proc.returncode == 0, proc.stderr
            artifacts.append({p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()})
            shutil.rmtree(tmp_path / "out")
        assert sorted(artifacts[0]) == ["verdict.json", "witness_plot.csv", "witness_plot.svg"]
        for name, data in artifacts[0].items():
            assert artifacts[1][name] == data, name

    @staticmethod
    def traced_peak(argv) -> int:
        """tracemalloc's peak over one main(argv) in a new interpreter, as a CLI job runs."""
        code = (
            "import tracemalloc\n"
            "from qtorus.cli import main\n"
            "tracemalloc.start()\n"
            f"assert main({argv!r}) == 0\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        proc = run_fresh("-c", code)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    def test_diagonal_audit_memory_bounded_by_one_block_and_one_json_item(self, tmp_path):
        # 3596 of the 3721 modes are uncovered at m = 30, so eval_grid
        # contracts them on the grid, and the report lists them.  Measured
        # peaks: 1.46 MB with 2^13-element blocks and the report encoded one
        # item at a time; 2.83 MB with 2^15-element blocks and the report
        # encoded in one json.dumps call.
        argv = ["interp", "--family", "analytic:a=1:K=30", "--n", "2", "--m", "30..30",
                "--engine", "diagonal", "--out", str(tmp_path / "out")]
        assert self.traced_peak(argv) < 2.0e6

    @pytest.mark.parametrize(
        "argv",
        [
            ["verdict", "--family", "profile:rule=factorial:s=1.5:Jmax=600", "--rmax", "20000"],
            ["tau", "--family", "profile:rule=factorial:s=1.5:Jmax=600", "--rmax", "1200"],
        ],
        ids=["verdict", "tau"],
    )
    def test_memory_grows_slower_than_the_m_grid(self, tmp_path, argv):
        # The witness keeps ndarray columns and the CSV and SVG text is made
        # one block at a time.  Measured peaks: 0.84 MB (verdict) and 0.82 MB
        # (tau) at 2..5000, 1.61 and 1.59 MB at 2..20000, so 51 B more per
        # extra m; tuples of boxed values and joined text reached 6.9 MB
        # (verdict) and 8.3 MB (tau) at 2..20000.  The gate is on the growth
        # per m, which a leaner small job leaves as it is.
        small, large = (
            self.traced_peak([*argv, "--m", m, "--out", str(tmp_path / m)])
            for m in ("2..5000", "2..20000")
        )
        assert large < 2.5e6
        assert (large - small) / 15000 < 54
