"""Every grid argument of the library goes through ``series._grid``.

A grid is a nonempty, strictly increasing 1-D sequence of finite numbers
>= 1; ``witness``'s m grid holds integers (an integral float passes).  A
bool entry, a string, complex or object entry, NaN, +-inf, an empty or 2-D
grid, a ragged nesting, an entry below 1 or a repeat is a ``ValueError``
naming the argument, raised before any kernel, fold or integral runs.  A grid
longer than ``QTORUS_GRID_CAP`` is a ``GridCapError``, and so is a witness m
grid whose largest m is past the cap (its r column, which
``associated._fold_weights`` checks, has that many radii).
``lemma_check``'s ``h_values`` follow the grids' element-type rule.
"""

import math
import re

import numpy as np
import pytest

import qtorus.associated as associated_module
import qtorus.series as series_module
from qtorus import DerivativeNormProfile, GridCapError, build_table, lemma_check, witness
from qtorus.series import _grid
from helpers import fields

PROFILE = DerivativeNormProfile(dim=1, ln_m=(0.0, -1.0, -3.0, -6.0, -10.0, -15.0))
H_VALUES = [1.0, 2.0, 3.0, 4.0]

#: (entry point, argument, integers, the call with that argument set to v,
#: the functions past the check, which must not run).
CASES = [
    ("witness", "m_grid", True, lambda v: witness(PROFILE, 1, v),
     ["_fold_weights", "_legendre"]),
    ("build_table", "r_grid", False, lambda v: build_table(PROFILE, v), ["_legendre"]),
    ("lemma_check", "t_grid", False, lambda v: lemma_check(v, H_VALUES),
     ["_cumulative_trapezoid", "_fit_line"]),
]

#: Grids refused for every grid argument.  Each has four entries where it
#: can, so that only the grid, not lemma_check's size rule, is at fault.
NOT_GRIDS = [
    ("bool-list", [True, 2, 3, 4]),
    ("bool-among-floats", [True, 2.0, 3.0, 4.0]),
    ("numpy-bool-list", [np.True_, 2, 3, 4]),
    ("bool-array", np.array([True])),
    ("string-list", ["1", "2", "3", "4"]),
    ("huge-int", [1, 2, 3, 10**400]),
    ("complex", [1, 2, 3, 4 + 0j]),
    ("empty", []),
    ("2-D", [[1, 2], [3, 4]]),
    ("ragged", [[1, 2], [3]]),
    ("scalar", 5),
    ("nan", [1.0, 2.0, math.nan, 4.0]),
    ("nan-first", [math.nan, 2.0, 3.0, 4.0]),
    ("inf", [1.0, 2.0, 3.0, math.inf]),
    ("minus-inf", [-math.inf, 2.0, 3.0, 4.0]),
    ("below-1", [0, 2, 3, 4]),
    ("repeat", [1, 2, 2, 4]),
    ("decreasing", [4, 3, 2, 1]),
    ("empty-range", range(3, 3)),
    ("wraps-in-a-difference", np.array([5, 6, 7, -(2**63)])),
]

#: Grids refused only where the entries must be integers.
NOT_INTEGER_GRIDS = [
    ("fraction", [1, 2.5, 3, 4]),
    ("fractions", [1.5, 2.5, 3.9, 10.2]),
    ("past-int64", np.array([1, 2, 3, 2**63 + 5], dtype=np.uint64)),
    ("float-past-int64", [1.0, 2.0, 3.0, 1e300]),
]


def refused_grid(name, integers):
    kind = "integers" if integers else "finite numbers"
    text = f"{name} must be a nonempty, strictly increasing 1-D grid of {kind} >= 1"
    return f"^{re.escape(text)}$"


def _must_not_run(*args, **kwargs):
    raise AssertionError("work ran before the grid check")


@pytest.mark.parametrize(
    "call, name, integers, value, guarded",
    [
        pytest.param(call, name, integers, value, guarded, id=f"{entry}-{row}")
        for entry, name, integers, call, guarded in CASES
        for row, value in NOT_GRIDS + (NOT_INTEGER_GRIDS if integers else [])
    ],
)
def test_grid_refused_before_any_work(monkeypatch, call, name, integers, value, guarded):
    for attr in guarded:
        monkeypatch.setattr(associated_module, attr, _must_not_run)
    with pytest.raises(ValueError, match=refused_grid(name, integers)):
        call(value)


@pytest.mark.parametrize("call", [c[3] for c in CASES], ids=[c[0] for c in CASES])
def test_grid_kinds_give_the_same_result(call):
    # A range, a list, a tuple, an int array and an integral-float array.
    grids = [range(1, 5), [1, 2, 3, 4], (1.0, 2.0, 3.0, 4.0), np.arange(1, 5), np.arange(1.0, 5.0)]
    first = fields(call(grids[0]))
    for grid in grids[1:]:
        np.testing.assert_equal(fields(call(grid)), first)


@pytest.mark.parametrize("integers, dtype", [(False, np.float64), (True, np.int64)])
def test_grid_is_a_new_array_of_its_dtype(integers, dtype):
    for given in (np.arange(1, 6), np.arange(1.0, 6.0), [1, 2, 3, 4, 5], range(1, 6)):
        grid = _grid("g", given, integers)
        assert grid.dtype == dtype and grid.tolist() == [1, 2, 3, 4, 5]
        assert not (isinstance(given, np.ndarray) and np.shares_memory(grid, given))
        assert grid.flags.writeable


def test_real_grid_keeps_fractions_and_large_entries():
    grid = _grid("r_grid", [1, 1.5, 2**63, 1e300])
    assert grid.tolist() == [1.0, 1.5, 2.0**63, 1e300]


#: h_values refused by the element-type rule of the grids.
NOT_H_VALUES = [
    ("strings-and-bool", ["1", "2", "3", True]),
    ("bool-among-floats", [True, 2.0, 3.0, 4.0]),
    ("bool-array", np.array([True, True, True, True])),
    ("strings", ["1", "2", "3", "4"]),
    ("complex", [1.0, 2.0, 3.0, 4 + 0j]),
    ("huge-int", [1, 2, 3, 10**400]),
    ("ragged", [[1.0, 2.0], [3.0]]),
]


@pytest.mark.parametrize("value", [v for _, v in NOT_H_VALUES], ids=[r for r, _ in NOT_H_VALUES])
def test_h_values_refused_before_any_work(monkeypatch, value):
    for attr in ("_cumulative_trapezoid", "_fit_line"):
        monkeypatch.setattr(associated_module, attr, _must_not_run)
    with pytest.raises(ValueError, match="^h_values must be real numbers$"):
        lemma_check([1.0, 10.0, 100.0, 1000.0], value)


@pytest.mark.parametrize("kind", [range, np.arange, lambda *a: list(range(*a))], ids=["range", "array", "list"])
@pytest.mark.parametrize(
    "call, name", [(c[3], c[1]) for c in CASES], ids=[c[0] for c in CASES]
)
def test_grid_longer_than_the_cap_refused(monkeypatch, call, name, kind):
    monkeypatch.setenv("QTORUS_GRID_CAP", "1000")
    grid = kind(1, 5001)
    with monkeypatch.context() as patched:
        # A range is sized before it becomes an array.
        patched.setattr(series_module.np, "arange", _must_not_run)
        with pytest.raises(GridCapError, match=rf"^5000 entries of {name} exceed the cap of 1000 \(QTORUS_GRID_CAP\)$"):
            call(grid)
    assert build_table(PROFILE, range(1, 1001)).r_grid.size == 1000  # at the cap


@pytest.mark.parametrize("cap, m_grid", [("1000", [2, 1001]), ("1000000", [2, 10**9])])
def test_witness_refuses_an_r_column_past_the_cap(monkeypatch, cap, m_grid):
    monkeypatch.setenv("QTORUS_GRID_CAP", cap)
    # _fold_weights checks the r column before it builds ln r.
    for attr in ("_ln", "_legendre"):
        monkeypatch.setattr(associated_module, attr, _must_not_run)
    with pytest.raises(GridCapError, match=rf"^{m_grid[-1]} radii r = 1\.\.r_max exceed the cap of {cap} "):
        witness(PROFILE, 1, m_grid)
