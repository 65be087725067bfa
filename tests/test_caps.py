"""Every size a library call allocates from its arguments obeys ``QTORUS_GRID_CAP``.

One step past the cap each entry point raises ``GridCapError`` naming the
quantity, before the array it sizes is built (the functions that build it
are patched to fail); at the cap each runs.  The sizes are the r column of
the tau sequences (``associated._fold_weights`` checks it for ``t_m``,
``t_m_sequence``, ``theta`` and ``witness``), the grids, the Carleman grid,
``bound_audit``'s radii and sample components, the profile orders, the
family spectrum and the roots-of-unity grid.
"""

import math
import re
from functools import partial

import numpy as np
import pytest

import qtorus.associated as associated_module
import qtorus.interpolate as interpolate_module
import qtorus.norms as norms_module
import qtorus.series as series_module
from qtorus import (
    DerivativeNormProfile,
    FamilySpec,
    FourierSeries,
    GridCapError,
    PolyPoint,
    augmented_interpolant,
    bound_audit,
    build_profile,
    build_table,
    carleman_diagnostic,
    eval_grid,
    gen_profile,
    gen_series,
    grid_array,
    lemma_check,
    t_m,
    t_m_sequence,
    theta,
    witness,
)
from qtorus.cli import main

CAP = 1000
PROFILE = DerivativeNormProfile(dim=1, ln_m=(0.0, -1.0, -3.0, -6.0, -10.0, -15.0))
SERIES = FourierSeries(1, {(1,): 1.0, (-2,): 0.5})
SERIES_2D = FourierSeries(2, {(1, 0): 1.0, (0, -2): 0.5})
Z0 = PolyPoint((1j,))

#: The builders past the r-column check of the tau sequences.
R_COLUMN = [(associated_module, "_ln"), (associated_module, "_legendre")]

#: (entry point, the call at argument v, the largest v within the cap, the
#: size v + 1 gives and what it counts, the builders that must not run).
#: The call is made before the builders are patched, so it may prepare
#: its inputs; the returned callable does the sized work.
CASES = [
    ("t_m", lambda v: partial(t_m, PROFILE, v, 1), CAP, "1001 radii r = 1..r_max", R_COLUMN),
    ("t_m_sequence", lambda v: partial(t_m_sequence, PROFILE, v, 1), CAP,
     "1001 radii r = 1..r_max", R_COLUMN),
    ("theta", lambda v: partial(theta, PROFILE, v, 1), CAP, "1001 radii r = 1..r_max", R_COLUMN),
    ("witness", lambda v: partial(witness, PROFILE, 1, [v]), CAP, "1001 radii r = 1..r_max",
     R_COLUMN),
    ("build_table", lambda v: partial(build_table, PROFILE, range(1, v + 1)), CAP,
     "1001 entries of r_grid", [(np, "arange"), (associated_module, "_legendre")]),
    ("lemma_check", lambda v: partial(lemma_check, range(1, v + 1), [2.0] * v), CAP,
     "1001 entries of t_grid", [(np, "arange"), (associated_module, "_cumulative_trapezoid")]),
    # At r_max = 10 the grid has points_per_decade + 1 points.
    ("carleman_diagnostic", lambda v: partial(carleman_diagnostic, PROFILE, 10.0, points_per_decade=v),
     CAP - 1, "1001 points of the Carleman grid", [(np, "linspace"), (associated_module, "_legendre")]),
    ("bound_audit-m",
     lambda v: partial(bound_audit, augmented_interpolant(SERIES, v, Z0), PROFILE, 1.01), CAP,
     "1001 radii r = 1..m", [(interpolate_module, "_annulus_points"), (interpolate_module, "_ln")]),
    # n = 2: each sample has two components.
    ("bound_audit-n_samples",
     lambda v: partial(bound_audit, augmented_interpolant(SERIES_2D, 3, PolyPoint((1j, 1j))),
                       DerivativeNormProfile(2, PROFILE.ln_m), 1.01, n_samples=v),
     CAP // 2, "1002 sample components (n_samples x n)",
     [(interpolate_module, "_annulus_points"), (interpolate_module, "_ln")]),
    ("build_profile", lambda v: partial(build_profile, SERIES, v), CAP - 1,
     "1001 profile orders (j_max + 1)", [(norms_module, "_pure_direction_ln_m")]),
    ("gen_profile", lambda v: partial(gen_profile, FamilySpec("profile", rule="factorial", j_max=v)),
     CAP - 1, "1001 profile orders (j_max + 1)", [(math, "lgamma")]),
    # (2K + 1)^1 modes: 999 within the cap, 1001 past it.
    ("gen_series-radius",
     lambda v: partial(gen_series, FamilySpec("analytic", radius=v, decay=1.0)), CAP // 2 - 1,
     "1001 modes of the family spectrum", [(np, "arange"), (math, "exp")]),
    ("gen_series-dim",
     lambda v: partial(gen_series, FamilySpec("analytic", dim=v, radius=0, decay=1.0)), CAP,
     "1001 axes of the family spectrum (--n)", [(np, "arange"), (math, "exp")]),
    ("grid_array", lambda v: partial(grid_array, 1, v), CAP, "1001 grid points",
     [(series_module, "_roots"), (np, "indices")]),
    ("eval_grid", lambda v: partial(eval_grid, SERIES, v), CAP, "1001 grid points",
     [(series_module, "_roots"), (np, "zeros")]),
]


def _must_not_run(*args, **kwargs):
    raise AssertionError("the array was built before the cap check")


@pytest.fixture(autouse=True)
def cap(monkeypatch):
    monkeypatch.setenv("QTORUS_GRID_CAP", str(CAP))


@pytest.mark.parametrize(
    "call, within, message, builders", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_one_step_past_the_cap_refused_before_the_array(monkeypatch, call, within, message, builders):
    sized = call(within + 1)
    text = f"{message} exceed the cap of {CAP} (QTORUS_GRID_CAP)"
    with monkeypatch.context() as patched:
        for owner, attr in builders:
            patched.setattr(owner, attr, _must_not_run)
        with pytest.raises(GridCapError, match=f"^{re.escape(text)}$"):
            sized()


@pytest.mark.parametrize("call, within", [c[1:3] for c in CASES], ids=[c[0] for c in CASES])
def test_at_the_cap_runs(call, within):
    call(within)()


def test_verdict_past_the_carleman_cap_exits_4(tmp_path, capsys):
    # --rmax 10^20 at the default 64 points per decade is 1281 points.
    out = tmp_path / "o"
    argv = ["verdict", "--family", "profile:rule=factorial:Jmax=30", "--rmax", str(10**20),
            "--m", "2..10", "--out", str(out)]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        "error: 1281 points of the Carleman grid exceed the cap of 1000 (QTORUS_GRID_CAP)\n"
    )
    assert not out.exists()
