"""End-to-end acceptance gates.

One test per criterion, each pinned to its stated tolerance and printing a
single summary line (visible under ``pytest -s`` or ``-v`` with the test
names themselves serving as the checklist).  Nothing here is configurable:
these are the exit criteria for the build.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import qtorus as q
from qtorus.cli import main as cli_main
from helpers import random_series, random_torus_point

SEED = 20250808


def _report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def test_c01_alias_interpolation_exactness():
    # 200 random sparse series, n in {1,2,3}, <= 40 modes, m in 2..8:
    # alias-engine augmented interpolants match the series at all m^n grid
    # nodes and at z0 within 1e-9 relative.  Runtime < 30 s.
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        series = random_series(rng, n, max_modes=40, radius=10)
        m = int(rng.integers(2, 9))
        z0 = random_torus_point(rng, n)
        aug = q.augmented_interpolant(series, m, z0, engine="alias")
        nodes = q.grid_array(n, m)
        grid_err = float(
            np.max(np.abs(aug.eval_batch(nodes) - q.eval_batch(series, nodes)))
        )
        z0_err = abs(aug.eval(z0) - q.eval_laurent(series, z0))
        tol = 1e-9 * (1.0 + series.abs_sum())
        worst = max(worst, grid_err / tol, z0_err / tol)
        assert grid_err <= tol
        assert z0_err <= tol
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(f"C01 alias interpolation exactness: PASS (worst {worst:.2e} of tol, {elapsed:.1f}s)")


def test_c02_diagonal_equals_alias_for_n1():
    # 100 random n=1 series, m in 2..16: grid values of the two engines
    # agree within 1e-10.
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(100):
        series = random_series(rng, 1, max_modes=40, radius=12)
        m = int(rng.integers(2, 17))
        nodes = q.grid_array(1, m)
        diag = q.diagonal_fold(series, m)
        alias = q.alias_fold(series, m)
        diff = float(
            np.max(np.abs(q.eval_batch(diag, nodes) - q.eval_batch(alias, nodes)))
        )
        worst = max(worst, diff)
        assert diff < 1e-10
    _report(f"C02 diagonal == alias for n=1: PASS (worst {worst:.2e})")


def test_c03_worked_example_cubic_mode():
    # f = z^3, m = 2, z0 = e^{i pi/4}: augmented interpolant is
    # z + z0 (z^2 - 1) and matches f(z0) exactly, all within 1e-12.
    z0 = q.PolyPoint((np.exp(1j * math.pi / 4),))
    w = z0.z[0]
    series = q.FourierSeries(1, {(3,): 1.0})
    aug = q.augmented_interpolant(series, 2, z0, engine="alias")
    assert aug.base.coeffs == {(1,): 1.0 + 0j}
    assert abs(aug.correction - w) < 1e-12
    assert abs(aug.eval(z0) - w**3) < 1e-12
    rng = np.random.default_rng(SEED + 2)
    for _ in range(10):
        p = random_torus_point(rng, 1)
        z = p.z[0]
        assert abs(aug.eval(p) - (z + w * (z * z - 1.0))) < 1e-12
    _report("C03 worked example z^3 at m=2: PASS (1e-12)")


def _series_families():
    out = []
    for n in (1, 2, 3):
        radius = {1: 40, 2: 8, 3: 4}[n]
        out.append(
            (f"analytic a=1 n={n}",
             q.gen_series(q.FamilySpec(kind="analytic", dim=n, radius=radius, decay=1.0)))
        )
        out.append(
            (f"gevrey s=2 n={n}",
             q.gen_series(q.FamilySpec(kind="gevrey", dim=n, radius=radius, exponent=2.0)))
        )
    return out


def test_c04_coefficient_bound_audit_zero_violations():
    # Decay-bound audit: zero violations for every generated family,
    # j in [2n, 2n+4], n <= 3.
    checked = 0
    for name, series in _series_families():
        n = series.dim
        profile = q.build_profile(series, 2 * n + 4)
        for j in range(2 * n, 2 * n + 5):
            report = q.coefficient_bound_audit(series, profile, j)
            assert report.ok, f"{name} j={j}: {report.violations[:3]}"
            checked += report.n_checked
    _report(f"C04 coefficient decay audit: PASS (0 violations over {checked} checks)")


def _profile_families():
    fams = [
        ("factorial profile", q.gen_profile(
            q.FamilySpec(kind="profile", rule="factorial", exponent=1.0, j_max=120))),
        ("gevrey-2 profile", q.gen_profile(
            q.FamilySpec(kind="profile", rule="factorial", exponent=2.0, j_max=120))),
        ("analytic series n=1", q.build_profile(
            q.gen_series(q.FamilySpec(kind="analytic", dim=1, radius=60, decay=1.0)), 60)),
        ("gevrey series n=1", q.build_profile(
            q.gen_series(q.FamilySpec(kind="gevrey", dim=1, radius=2000, exponent=2.0)), 40)),
    ]
    return fams


def test_c05_monotonicity_suite():
    # ln tau non-increasing (exact) and with the min-of-affines curvature in
    # ln r (second differences within float rounding); ln t_m non-increasing
    # in m (exact): all families.
    for name, profile in _profile_families():
        values = [q.log_tau(profile, float(r)) for r in range(1, 201)]
        assert all(b <= a for a, b in zip(values, values[1:])), name

        x = np.linspace(0.0, math.log(200.0), 160)
        y = np.array([-q.log_tau(profile, math.exp(v)) for v in x])
        second = y[2:] - 2.0 * y[1:-1] + y[:-2]
        assert np.all(second >= -1e-9), name  # -ln tau convex in ln r

        t_values = [q.t_m(profile, m, 1) for m in range(1, 160)]
        assert all(b <= a for a, b in zip(t_values, t_values[1:])), name
    _report("C05 monotonicity suite: PASS (exact monotone, curvature at 1e-9)")


def test_c06_chain_inequality():
    # Wherever the r^3 identity holds on the whole grid r <= m
    # (i.e. m is past the r0 estimate), ln t_m >= ln theta(m) holds exactly.
    confirmed = 0
    for name, profile in _profile_families():
        table = q.build_table(profile, range(1, 161))
        r0 = table.r0_estimate
        for m in range(1, 161):
            if m >= r0:
                assert q.t_m(profile, m, 1) >= q.theta(profile, m, 1), (name, m)
                confirmed += 1
    assert confirmed > 0
    _report(f"C06 chain ln t_m >= ln theta(m): PASS (exact, {confirmed} cases)")


def test_c07_classification_separation():
    # factorial profile (j_max=200, r_max=1000): quasianalytic-trend AND
    # divergent witness; gevrey-2: non-quasianalytic AND bounded witness;
    # constant: inconclusive with the saturation flag.  Runtime < 10 s.
    start = time.perf_counter()
    m_grid = range(2, 1001)

    factorial = q.gen_profile(
        q.FamilySpec(kind="profile", rule="factorial", exponent=1.0, j_max=200))
    gevrey2 = q.gen_profile(
        q.FamilySpec(kind="profile", rule="factorial", exponent=2.0, j_max=200))
    constant = q.gen_profile(
        q.FamilySpec(kind="profile", rule="constant", j_max=200))

    c_fact = q.carleman_diagnostic(factorial, 1000)
    c_gev = q.carleman_diagnostic(gevrey2, 1000)
    c_const = q.carleman_diagnostic(constant, 1000)
    assert c_fact.verdict == "quasianalytic-trend"
    assert c_gev.verdict == "non-quasianalytic-trend"
    assert c_const.verdict == "inconclusive"
    assert c_const.saturated_fraction > 0.5  # saturation flag

    w_fact = q.witness(factorial, 1, m_grid)
    w_gev = q.witness(gevrey2, 1, m_grid)
    assert w_fact.classification == "divergent-trend"
    assert w_gev.classification == "bounded-trend"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(f"C07 classification separation: PASS ({elapsed:.1f}s)")


def test_c08_boundedness_on_shrinking_annuli():
    # The computational heart: analytic family (a=1, K=200, n=1), rescaled
    # into the class normalization; sup over m in 2..64 of the sampled max of
    # the augmented interpolant on D(t_m) (512 samples, fixed seed) is finite
    # and the running max stabilizes (last-quartile increase < 5%).
    # Runtime < 60 s.
    start = time.perf_counter()
    spec = q.FamilySpec(kind="analytic", dim=1, radius=200, decay=1.0)
    rescaled = q.rescale_to_class(q.gen_series(spec))
    series = rescaled.series
    profile = q.build_profile(series, 100)
    z0 = q.PolyPoint((np.exp(0.7j),))

    sups = []
    for m in range(2, 65):
        ln_t = q.t_m(profile, m, 1)
        assert ln_t > 0.0  # D(t_m) is a genuine annulus after rescaling
        report = q.bound_audit(
            q.augmented_interpolant(series, m, z0, engine="diagonal"),
            profile, math.exp(ln_t), n_samples=512, seed=SEED,
        )
        sups.append(report.lhs_max)

    running = np.maximum.accumulate(sups)
    assert np.all(np.isfinite(running))
    q3 = running[int(0.75 * (len(running) - 1))]
    increase = (running[-1] - q3) / q3
    assert increase < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        f"C08 boundedness on D(t_m): PASS (sup {running[-1]:.4f}, "
        f"last-quartile +{100 * increase:.2f}%, {elapsed:.1f}s)"
    )


def test_c09_lemma_implication():
    # For h in {sqrt(t), 1, t^0.9}: whenever the decay fit succeeds with
    # alpha in (0,1), the partial integrals of h/t^2 are Cauchy
    # (tail < 1e-3 per decade).  For h = t the fit fails and the integral
    # diverges.  Both directions verified.
    cases = {
        "sqrt(t)": (8, lambda t: np.sqrt(t)),
        "1": (6, lambda t: np.ones_like(t)),
        "t^0.9": (35, lambda t: t**0.9),
    }
    succeeded = []
    for name, (decades, fn) in cases.items():
        t = np.logspace(0, decades, decades * 64 + 1)
        report = q.lemma_check(t, fn(t))
        if report.fit_ok:
            assert 0.0 < report.alpha_fit < 1.0
            assert report.last_decade_increment < 1e-3, name
            succeeded.append(name)
        assert report.verdict == "convergent", name

    t = np.logspace(0, 8, 8 * 64 + 1)
    linear = q.lemma_check(t, t)
    assert not linear.fit_ok
    assert linear.verdict == "divergent"
    assert "sqrt(t)" in succeeded and "t^0.9" in succeeded
    _report(f"C09 lemma implication: PASS (fits ok for {succeeded}; h=t diverges)")


def test_c10_scaling_robustness():
    # rescale_to_class shifts every ln M_j by the same constant and leaves
    # the witness classification unchanged, on all families.
    m_grid = range(2, 601)
    for name, series in [
        ("analytic n=1", q.gen_series(q.FamilySpec(kind="analytic", dim=1, radius=50, decay=1.0))),
        ("gevrey s=2 n=1", q.gen_series(q.FamilySpec(kind="gevrey", dim=1, radius=2000, exponent=2.0))),
        ("analytic n=2", q.gen_series(q.FamilySpec(kind="analytic", dim=2, radius=8, decay=1.0))),
    ]:
        result = q.rescale_to_class(series)
        j_max = 40 if series.dim == 1 else 14
        before = q.build_profile(series, j_max)
        after = q.build_profile(result.series, j_max)
        ln_scale = math.log(result.scale)
        for a, b in zip(before.ln_m, after.ln_m):
            if a == float("-inf"):
                assert b == float("-inf")
            else:
                assert b - a == pytest.approx(ln_scale, abs=1e-12), name
        w_before = q.witness(before, series.dim, m_grid)
        w_after = q.witness(after, series.dim, m_grid)
        assert w_before.classification == w_after.classification, name

    # Synthetic profiles: the same invariance under a direct ln-shift.
    factorial = q.gen_profile(
        q.FamilySpec(kind="profile", rule="factorial", exponent=1.0, j_max=150))
    gevrey = q.gen_profile(
        q.FamilySpec(kind="profile", rule="factorial", exponent=2.0, j_max=150))
    for profile in (factorial, gevrey):
        base = q.witness(profile, 1, m_grid)
        for delta in (-9.0, 4.0):
            shifted = q.witness(q.shift_profile(profile, delta), 1, m_grid)
            assert shifted.classification == base.classification
    _report("C10 scaling robustness: PASS (uniform lnM shift, stable classification)")


def test_c11_cli_determinism(tmp_path):
    # Identical config and seed produce byte-identical outputs.
    def run_and_collect(args, out_dir: Path) -> dict:
        code = cli_main(args + ["--out", str(out_dir)])
        assert code == 0
        return {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
        }

    coeffs = tmp_path / "coeffs.jsonl"
    rng = np.random.default_rng(SEED + 3)
    q.write_coefficients(random_series(rng, 2, max_modes=15, radius=4), coeffs)

    commands = [
        ["norms", "--family", "gevrey:s=2:K=40", "--Jmax", "12"],
        ["tau", "--family", "profile:rule=factorial:s=1:Jmax=60", "--rmax", "30", "--m", "2..25"],
        ["verdict", "--family", "profile:rule=factorial:s=2:Jmax=80", "--rmax", "200", "--m", "2..120"],
        ["interp", "--input", str(coeffs), "--m", "2..5", "--samples", "64", "--seed", "11"],
    ]
    for args in commands:
        out = tmp_path / ("out_" + args[0])
        first = run_and_collect(args, out)
        second = run_and_collect(args, out)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{args[0]}/{name} not byte-identical"
    _report("C11 CLI determinism: PASS (byte-identical reruns, all commands)")
