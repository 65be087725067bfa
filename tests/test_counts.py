"""Every integer argument of the library goes through ``series._count``.

A count is an ``int`` or a numpy integer at or above its floor.  A bool, a
float (NaN and inf too) or a smaller integer is a ``ValueError`` naming the
argument, raised before any fold, kernel or allocation runs.
"""

import numpy as np
import pytest

import qtorus.interpolate as interpolate_module
import qtorus.norms as norms_module
import qtorus.series as series_module
from qtorus import (
    DerivativeNormProfile,
    FamilySpec,
    FourierSeries,
    PolyPoint,
    alias_fold,
    augmented_interpolant,
    bound_audit,
    build_profile,
    coefficient_bound_audit,
    diagonal_fold,
    eval_grid,
    grid_array,
    interpolation_audit,
    m_j,
)
from qtorus.interpolate import _node_factor
from helpers import NOT_COUNTS, fields, refused_count

SERIES = FourierSeries(1, {(1,): 1.0, (-2,): 0.5})
Z0 = PolyPoint((1j,))
PROFILE = DerivativeNormProfile(dim=1, ln_m=(0.0,) * 5)
AUG = augmented_interpolant(SERIES, 3, Z0)

#: (entry point, argument, floor, the call with that argument set to v,
#: the functions past the check, which must not run).
CASES = [
    ("FourierSeries", "dim", 1, lambda v: FourierSeries(v, {}), [(series_module, "_index_array")]),
    ("from_arrays", "dim", 1, lambda v: FourierSeries.from_arrays(v, [], []),
     [(series_module, "_index_array")]),
    ("grid_array", "n", 1, lambda v: grid_array(v, 2), [(series_module, "check_power")]),
    ("grid_array", "m", 1, lambda v: grid_array(1, v), [(series_module, "check_power")]),
    ("eval_grid", "m", 1, lambda v: eval_grid(SERIES, v), [(series_module, "check_power")]),
    ("_node_factor", "n", 1, lambda v: _node_factor(v, 2), [(series_module, "check_power")]),
    ("_node_factor", "m", 1, lambda v: _node_factor(1, v), [(series_module, "check_power")]),
    ("diagonal_fold", "m", 1, lambda v: diagonal_fold(SERIES, v),
     [(interpolate_module, "_targets")]),
    ("alias_fold", "m", 1, lambda v: alias_fold(SERIES, v), [(interpolate_module, "_targets")]),
    ("augmented_interpolant", "m", 1, lambda v: augmented_interpolant(SERIES, v, Z0),
     [(interpolate_module, "_targets")]),
    ("interpolation_audit", "m", 1, lambda v: interpolation_audit(SERIES, v, Z0),
     [(interpolate_module, "_targets")]),
    ("bound_audit", "n_samples", 1, lambda v: bound_audit(AUG, PROFILE, 1.5, n_samples=v),
     [(interpolate_module, "_annulus_points"), (interpolate_module, "_legendre")]),
    ("bound_audit", "seed", 0, lambda v: bound_audit(AUG, PROFILE, 1.5, seed=v),
     [(interpolate_module, "_annulus_points"), (interpolate_module, "_legendre")]),
    ("DerivativeNormProfile", "dim", 1, lambda v: DerivativeNormProfile(v, (0.0,)), []),
    ("m_j", "j", 0, lambda v: m_j(SERIES, v), [(norms_module, "_pure_direction_ln_m")]),
    ("build_profile", "j_max", 0, lambda v: build_profile(SERIES, v),
     [(norms_module, "_pure_direction_ln_m")]),
    ("coefficient_bound_audit", "j", 0, lambda v: coefficient_bound_audit(SERIES, PROFILE, v),
     [(norms_module, "_audit_alpha")]),
    ("FamilySpec", "dim", 1, lambda v: FamilySpec("analytic", dim=v, radius=1, decay=1.0), []),
    ("FamilySpec(analytic)", "radius", 0,
     lambda v: FamilySpec("analytic", radius=v, decay=1.0), []),
    ("FamilySpec(gevrey)", "radius", 0, lambda v: FamilySpec("gevrey", radius=v, exponent=2.0), []),
    ("FamilySpec(profile)", "j_max", 0,
     lambda v: FamilySpec("profile", rule="constant", j_max=v), []),
]


def refused_values(least):
    """NOT_COUNTS, True and least - 1, less those that are counts at this floor."""
    values = [*NOT_COUNTS, True, least - 1]
    return [
        v for i, v in enumerate(values)
        if v not in values[:i] and not (type(v) is int and v >= least)
    ]


def _must_not_run(*args, **kwargs):
    raise AssertionError("work ran before the count check")


@pytest.mark.parametrize(
    "call, name, least, value, guarded",
    [
        pytest.param(call, name, least, value, guarded, id=f"{entry}-{name}-{value!r}")
        for entry, name, least, call, guarded in CASES
        for value in refused_values(least)
    ],
)
def test_count_refused_before_any_work(monkeypatch, call, name, least, value, guarded):
    for module, attr in guarded:
        monkeypatch.setattr(module, attr, _must_not_run)
    with pytest.raises(ValueError, match=refused_count(name, value, least)):
        call(value)


@pytest.mark.parametrize(
    "call, least", [(c[3], c[2]) for c in CASES], ids=[f"{c[0]}-{c[1]}" for c in CASES]
)
def test_numpy_integer_count_gives_the_int_result(call, least):
    np.testing.assert_equal(fields(call(np.int64(least + 2))), fields(call(least + 2)))


def test_huge_int_is_shown_by_its_size():
    # repr of an int past 4300 digits raises a ValueError of its own.
    with pytest.raises(ValueError, match="^m must be an integer >= 1, got an integer of 16610 bits$"):
        alias_fold(SERIES, -(10**5000))
