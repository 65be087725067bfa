"""Records behave like frozen dataclasses, without being dataclasses.

Every ``Record`` type of the package is checked against a twin made by
``dataclasses.make_dataclass(..., frozen=True)`` from the same field names,
defaults and ``__post_init__``.
"""

from __future__ import annotations

import dataclasses
import inspect
import math

import numpy as np
import pytest

import qtorus
from qtorus import DerivativeNormProfile, FamilySpec
from qtorus.associated import (
    FIT_MARGIN,
    MIN_FIT_POINTS,
    RESIDUAL_THRESHOLD,
    SATURATION_FRACTION,
    SLOPE_THRESHOLD,
    TAIL_THRESHOLD,
)
from qtorus.series import Record

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)

#: Two sets of field values each, for the records whose __post_init__ validates.
VALID = {
    "PolyPoint": ({"z": (1j, 2.0)}, {"z": (1j, -2.0)}),
    "DerivativeNormProfile": (
        {"dim": 1, "ln_m": (0.0, -1.5, -math.inf)},
        {"dim": 1, "ln_m": (0.0, -1.5, -2.0)},
    ),
    "FamilySpec": (
        {"kind": "analytic", "dim": 1, "radius": 3, "decay": 1.0},
        {"kind": "analytic", "dim": 1, "radius": 3, "decay": 2.0},
    ),
}


def twin(cls):
    """A frozen dataclass with the record's fields, defaults and __post_init__."""
    specs = [
        (name, object, dataclasses.field(default=cls._defaults[name]))
        if name in cls._defaults
        else (name, object)
        for name in cls._fields
    ]
    namespace = {}
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, namespace=namespace)


def sample_kwargs(cls, salt: int = 0) -> dict:
    """Valid field values for ``cls``; salt 0 and 1 give records that differ."""
    if cls.__name__ in VALID:
        return dict(VALID[cls.__name__][salt])
    pool = (lambda i: i + salt, lambda i: 0.5 * i - salt, lambda i: f"s{i}{salt}", lambda i: (i, salt))
    return {name: pool[i % len(pool)](i) for i, name in enumerate(cls._fields)}


def outcome(fn):
    """The value of ``fn()``, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


def test_every_exported_record_is_covered_and_no_class_is_a_dataclass():
    exported = [obj for obj in vars(qtorus).values() if inspect.isclass(obj)]
    assert {c for c in exported if issubclass(c, Record)} <= set(RECORDS)
    assert len(RECORDS) == 14
    for cls in [*exported, *RECORDS]:
        assert not dataclasses.is_dataclass(cls), cls


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestAgainstDataclass:
    def test_repr_eq_hash(self, cls):
        other = twin(cls)
        kwargs = sample_kwargs(cls)
        a, b = cls(**kwargs), cls(*kwargs.values())
        ta, tb = other(**kwargs), other(*kwargs.values())
        assert repr(a) == repr(ta)
        assert (a == b) is (ta == tb) is True
        assert (a != b) is (ta != tb) is False
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(ta))
        assert outcome(lambda: hash(a) == hash(b)) == outcome(lambda: hash(ta) == hash(tb))
        assert a != ta and ta != a
        assert (a == object()) is False

    def test_unequal_when_a_field_differs(self, cls):
        other = twin(cls)
        first, second = sample_kwargs(cls, 0), sample_kwargs(cls, 1)
        assert (cls(**first) == cls(**second)) is (other(**first) == other(**second)) is False

    def test_assignment_and_deletion_raise_attribute_error(self, cls):
        record = cls(**sample_kwargs(cls))
        dc = twin(cls)(**sample_kwargs(cls))
        for name in (cls._fields[0], "not_a_field"):
            for obj in (record, dc):
                with pytest.raises(AttributeError):
                    setattr(obj, name, 1)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        assert repr(record) == repr(dc)

    def test_missing_unknown_and_repeated_fields_raise_type_error(self, cls):
        other = twin(cls)
        kwargs = sample_kwargs(cls)
        required = [name for name in cls._fields if name not in cls._defaults]
        calls = [{**kwargs, "not_a_field": 1}]  # unknown
        if required:
            calls.append({k: v for k, v in kwargs.items() if k != required[-1]})  # missing
        for call in calls:
            with pytest.raises(TypeError):
                cls(**call)
            with pytest.raises(TypeError):
                other(**call)
        values = list(kwargs.values())
        for make in (cls, other):
            with pytest.raises(TypeError):
                make(*values, *([0] * (len(cls._fields) - len(values) + 1)))  # too many
            with pytest.raises(TypeError):
                make(values[0], **{cls._fields[0]: values[0]})  # given twice


def test_defaults_match_the_dataclass():
    fields = {"kind": "profile", "rule": "constant", "j_max": 1}
    record = FamilySpec(**fields)
    assert (record.dim, record.radius, record.decay, record.exponent) == (1, None, None, None)
    assert record == FamilySpec(**fields, dim=1, radius=None)
    assert repr(record) == repr(twin(FamilySpec)(**fields))
    assert hash(record) == hash(twin(FamilySpec)(**fields))
    assert FamilySpec(**fields, dim=3).dim == 3


def test_trend_cutoffs_are_constants():
    cutoffs = (SLOPE_THRESHOLD, FIT_MARGIN, SATURATION_FRACTION, MIN_FIT_POINTS)
    assert cutoffs == (0.05, 0.9, 0.5, 8)
    assert (RESIDUAL_THRESHOLD, TAIL_THRESHOLD) == (0.1, 1e-3)


def test_post_init_normalises():
    point = qtorus.PolyPoint((7, -1.5))
    assert point.z == (7 + 0j, -1.5 + 0j) and all(type(v) is complex for v in point.z)
    assert repr(point) == repr(twin(qtorus.PolyPoint)((7, -1.5)))
    profile = DerivativeNormProfile(1, [0, -1, -2, -3])
    assert profile.ln_m == (0.0, -1.0, -2.0, -3.0)
    assert profile == DerivativeNormProfile(1, (0.0, -1.0, -2.0, -3.0))


def test_field_without_default_after_a_default_is_refused():
    with pytest.raises(TypeError):

        class Broken(Record):
            a: int = 0
            b: int

    for mutable in ([], {}, set()):
        # One default object would be shared by every instance.
        with pytest.raises(TypeError, match="mutable default"):

            class Shared(Record):
                a: object = mutable

    class Base(Record):
        a: int
        b: int = 2

    class Child(Base):
        c: int = 3

    assert Child._fields == ("a", "b", "c")
    assert repr(Child(1, c=4)).endswith(".Child(a=1, b=2, c=4)")
    assert Child(1) != Base(1)


class Slots(Record):
    """A record with a dict field; defined after RECORDS, so not one of the package's."""

    m: int
    dim: int
    terms: dict
    covered: frozenset
    collisions: tuple


def test_unhashable_field_makes_hash_raise_like_the_dataclass():
    fold = Slots(m=2, dim=1, terms={}, covered=frozenset(), collisions=())
    dc = twin(Slots)(2, 1, {}, frozenset(), ())
    assert outcome(lambda: hash(fold)) is outcome(lambda: hash(dc)) is TypeError
    assert repr(fold) == repr(dc)


_PROFILE = qtorus.gen_profile(qtorus.parse_family_spec("profile:rule=factorial:Jmax=30"))
_T = np.logspace(0.0, 3.0, 40)

#: One build of each report with per-point columns, from small inputs.
REPORTS = {
    "WitnessSeries": lambda: qtorus.witness(_PROFILE, 1, range(2, 40)),
    "AssociatedTable": lambda: qtorus.build_table(_PROFILE, range(1, 20)),
    "CarlemanReport": lambda: qtorus.carleman_diagnostic(_PROFILE, 100.0),
    "LemmaReport": lambda: qtorus.lemma_check(_T, _T**0.5),
    "InterpolationAudit": lambda: qtorus.interpolation_audit(
        qtorus.FourierSeries(2, {(1, 0): 1.0, (1, 1): 0.5}), 2, qtorus.PolyPoint((1j, -1j)), "diagonal"
    ),
}

#: Each report's per-point columns and their dtype kinds.
COLUMNS = {
    "WitnessSeries": {"m_grid": "i", "ln_t": "f", "ln_theta": "f", "witness": "f",
                      "theta_positive": "b", "argmin_r": "i", "argmin_saturated": "b"},
    "AssociatedTable": {"r_grid": "f", "ln_tau": "f", "ln_tau_shifted": "f"},
    "CarlemanReport": {"r_grid": "f", "neg_ln_tau": "f", "saturated": "b", "partial_integral": "f"},
    "LemmaReport": {"partial_integrals": "f"},
    "InterpolationAudit": {"uncovered_modes": "i"},
}


@pytest.mark.parametrize("name", sorted(COLUMNS))
def test_every_per_point_column_is_a_read_only_array(name):
    report = REPORTS[name]()
    assert type(report).__name__ == name
    for field, kind in COLUMNS[name].items():
        column = getattr(report, field)
        assert isinstance(column, np.ndarray) and column.dtype.kind == kind, field
        assert column.size > 1 and not column.flags.writeable, field
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]
    # An array column has no single truth value, so == on two equal reports
    # refuses, and an array is unhashable.
    assert outcome(lambda: report == REPORTS[name]()) is ValueError
    assert outcome(lambda: hash(report)) is TypeError
