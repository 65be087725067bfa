"""Every real argument of the library goes through ``series._real``.

A real is an int, a float or a numpy real that is finite and, where the
argument has a floor, at or above it (strictly above for a strict floor).
A bool, NaN, +-inf, an int too large for a float, a string or None is a
``ValueError`` naming the argument, raised before any kernel runs.
"""

import math

import numpy as np
import pytest

import qtorus.associated as associated_module
import qtorus.interpolate as interpolate_module
import qtorus.norms as norms_module
from qtorus import (
    DerivativeNormProfile,
    FamilySpec,
    FourierSeries,
    PolyPoint,
    augmented_interpolant,
    bound_audit,
    carleman_diagnostic,
    log_tau,
    log_tau_shifted,
    shift_profile,
)
from qtorus.series import _real
from helpers import NOT_REALS, fields, refused_real

PROFILE = DerivativeNormProfile(dim=1, ln_m=(0.0, -1.0, -3.0, -6.0, -10.0))
AUG = augmented_interpolant(FourierSeries(1, {(1,): 1.0, (-2,): 0.5}), 3, PolyPoint((1j,)))
LEGENDRE = [(associated_module, "_legendre")]

#: (entry point, argument name, floor, strict, the call with that argument
#: set to v, the functions past the check, which must not run).
CASES = [
    ("log_tau", "r", 1, False, lambda v: log_tau(PROFILE, v), LEGENDRE),
    ("log_tau_shifted", "r", 1, False, lambda v: log_tau_shifted(PROFILE, v), LEGENDRE),
    ("carleman_diagnostic", "r_max", 2, False, lambda v: carleman_diagnostic(PROFILE, v), LEGENDRE),
    ("bound_audit", "t", 1, True, lambda v: bound_audit(AUG, PROFILE, v),
     [(interpolate_module, "_annulus_points"), (interpolate_module, "_legendre")]),
    ("FamilySpec(analytic)", "decay a", 0, True,
     lambda v: FamilySpec("analytic", radius=1, decay=v), []),
    ("FamilySpec(gevrey)", "exponent s", 1, False,
     lambda v: FamilySpec("gevrey", radius=1, exponent=v), []),
    ("FamilySpec(factorial profile)", "exponent s", None, False,
     lambda v: FamilySpec("profile", rule="factorial", j_max=4, exponent=v), []),
    ("shift_profile", "delta", None, False, lambda v: shift_profile(PROFILE, v),
     [(norms_module, "DerivativeNormProfile")]),
]


#: Entry points whose real may be None: a factorial profile without s scales by 1.
OPTIONAL = {"FamilySpec(factorial profile)"}


def refused_values(entry, floor, strict):
    """NOT_REALS (less None where it is the default) and the boundary.

    The boundary is the floor itself when strict, the float just below it else.
    """
    values = [v for v in NOT_REALS if not (v is None and entry in OPTIONAL)]
    if floor is None:
        return values
    return [*values, floor if strict else math.nextafter(floor, -math.inf)]


def _must_not_run(*args, **kwargs):
    raise AssertionError("work ran before the real check")


@pytest.mark.parametrize(
    "call, name, floor, strict, value, guarded",
    [
        pytest.param(call, name, floor, strict, value, guarded, id=f"{entry}-{name}-{value!r:.12}")
        for entry, name, floor, strict, call, guarded in CASES
        for value in refused_values(entry, floor, strict)
    ],
)
def test_real_refused_before_any_work(monkeypatch, call, name, floor, strict, value, guarded):
    for module, attr in guarded:
        monkeypatch.setattr(module, attr, _must_not_run)
    with pytest.raises(ValueError, match=refused_real(name, value, floor, strict)):
        call(value)


@pytest.mark.parametrize(
    "call, floor", [(c[4], c[2]) for c in CASES], ids=[f"{c[0]}-{c[1]}" for c in CASES]
)
def test_int_and_numpy_real_give_the_float_result(call, floor):
    value = 3 if floor is None else floor + 3
    want = call(float(value))
    for same in (value, np.int64(value), np.float64(value)):
        np.testing.assert_equal(fields(call(same)), fields(want))


def test_huge_int_is_shown_by_its_size():
    # repr of an int past 4300 digits raises a ValueError of its own.
    message = "^r_max must be finite and >= 2, got an integer of 16610 bits$"
    with pytest.raises(ValueError, match=message):
        carleman_diagnostic(PROFILE, 10**5000)


def test_real_returns_a_float_and_accepts_the_floor_unless_strict():
    assert type(_real("x", np.int64(2), 1)) is float
    assert _real("x", 1, 1) == 1.0
    assert _real("x", -1e300) == -1e300
    with pytest.raises(ValueError, match=refused_real("x", 1, 1, strict=True)):
        _real("x", 1, 1, strict=True)
    with pytest.raises(ValueError, match=refused_real("x", np.bool_(True))):
        _real("x", np.bool_(True))
