import math
import re

import numpy as np
import pytest

from qtorus import (
    FamilySpec,
    FourierSeries,
    GridCapError,
    build_profile,
    gen_profile,
    gen_series,
    m_j,
    parse_family_spec,
    rescale_to_class,
)
from qtorus.logspace import NEG_INF
from helpers import loop_gen_series


class TestGenSeries:
    def test_analytic_small_instance(self):
        spec = FamilySpec(kind="analytic", dim=1, radius=2, decay=1.0)
        s = gen_series(spec)
        expected = {
            (0,): 1.0,
            (1,): math.exp(-1),
            (-1,): math.exp(-1),
            (2,): math.exp(-2),
            (-2,): math.exp(-2),
        }
        assert set(s.coeffs) == set(expected)
        for k, v in expected.items():
            assert s.coeffs[k] == pytest.approx(v)

    def test_gevrey_one_matches_analytic(self):
        a = gen_series(FamilySpec(kind="analytic", dim=2, radius=3, decay=1.0))
        g = gen_series(FamilySpec(kind="gevrey", dim=2, radius=3, exponent=1.0))
        assert set(a.coeffs) == set(g.coeffs)
        for k in a.coeffs:
            assert a.coeffs[k] == pytest.approx(g.coeffs[k])

    def test_symmetry_in_l1_norm(self):
        s = gen_series(FamilySpec(kind="gevrey", dim=2, radius=4, exponent=2.0))
        for k, c in s.coeffs.items():
            mirrored = tuple(-x for x in k)
            assert s.coeffs[mirrored] == pytest.approx(c)
            l1 = sum(abs(x) for x in k)
            assert c == pytest.approx(math.exp(-math.sqrt(l1)) if l1 else 1.0)

    def test_deterministic(self):
        spec = FamilySpec(kind="gevrey", dim=1, radius=50, exponent=2.0)
        assert gen_series(spec).coeffs == gen_series(spec).coeffs

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec(kind="analytic", dim=1, radius=40, decay=0.37),
            FamilySpec(kind="analytic", dim=2, radius=9, decay=3.3),
            FamilySpec(kind="gevrey", dim=3, radius=4, exponent=2.7),
            FamilySpec(kind="gevrey", dim=2, radius=0, exponent=1.0),
            # exp(-l1) falls below the 1e-300 pruning threshold past l1 = 690.
            FamilySpec(kind="analytic", dim=1, radius=800, decay=1.0),
        ],
    )
    def test_bit_identical_to_mode_loop(self, spec):
        s = gen_series(spec)
        want = loop_gen_series(spec)
        assert list(s.coeffs) == list(want)
        got_bits = np.array(list(s.coeffs.values())).tobytes()
        assert got_bits == np.array(list(want.values()), dtype=complex).tobytes()

    def test_box_past_cap_refused_before_allocating(self, monkeypatch):
        spec = FamilySpec(kind="gevrey", dim=3, radius=2, exponent=2.0)  # 125 modes
        monkeypatch.setenv("QTORUS_GRID_CAP", "124")

        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the cap check")

        monkeypatch.setattr(np, "indices", refuse)
        with pytest.raises(GridCapError, match="125 modes"):
            gen_series(spec)
        monkeypatch.undo()
        monkeypatch.setenv("QTORUS_GRID_CAP", "125")
        assert gen_series(spec).n_modes == 125

    def test_dimension_past_cap_refused_before_the_box_size(self, monkeypatch):
        # 3^(10^9) would take minutes to compute; 10^9 axes are refused first.
        monkeypatch.delenv("QTORUS_GRID_CAP", raising=False)
        spec = FamilySpec(kind="analytic", dim=10**9, radius=1, decay=1.0)
        with pytest.raises(GridCapError, match=r"^1000000000 axes of the family spectrum"):
            gen_series(spec)

    def test_profile_kind_has_no_spectrum(self):
        spec = FamilySpec(kind="profile", rule="factorial", j_max=10)
        with pytest.raises(ValueError):
            gen_series(spec)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FamilySpec(kind="analytic", dim=1, radius=5, decay=-1.0)
        with pytest.raises(ValueError):
            FamilySpec(kind="gevrey", dim=1, radius=5, exponent=0.5)
        with pytest.raises(ValueError):
            FamilySpec(kind="profile", rule="mystery", j_max=5)

    @pytest.mark.parametrize(
        "kind, field, value",
        [("analytic", "decay", v) for v in (math.nan, math.inf, 0.0, None)]
        + [("gevrey", "exponent", v) for v in (math.nan, math.inf, 0.5, None)],
    )
    def test_decay_and_exponent_must_be_finite_and_in_range(self, kind, field, value):
        with pytest.raises(ValueError, match=f"^{field} [as] must be finite and >=? [01], got {value!r}$"):
            FamilySpec(kind=kind, radius=3, **{field: value})


#: A valid value and the family-spec key of each optional FamilySpec field.
FIELDS = {"decay": (1.0, "a"), "exponent": (2.0, "s"), "radius": (3, "K"),
          "rule": ("constant", "rule"), "j_max": (5, "Jmax")}

#: Each family, its fixed fields and the optional fields it reads.
FAMILIES = {
    "analytic": ({"kind": "analytic"}, ("decay", "radius")),
    "gevrey": ({"kind": "gevrey"}, ("exponent", "radius")),
    "factorial profile": ({"kind": "profile", "rule": "factorial"}, ("rule", "exponent", "j_max")),
    "constant profile": ({"kind": "profile", "rule": "constant"}, ("rule", "j_max")),
}


class TestFamilyFields:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_field_the_family_reads_is_accepted(self, family):
        fixed, reads = FAMILIES[family]
        spec = FamilySpec(**{field: FIELDS[field][0] for field in reads} | fixed)
        assert spec.kind == fixed["kind"]

    @pytest.mark.parametrize(
        "family, field",
        [(family, field) for family, (_, reads) in FAMILIES.items()
         for field in FIELDS if field not in reads],
    )
    def test_field_the_family_does_not_read_refused_naming_its_key(self, family, field):
        fixed, reads = FAMILIES[family]
        given = {f: FIELDS[f][0] for f in reads} | fixed | {field: FIELDS[field][0]}
        key = FIELDS[field][1]
        with pytest.raises(ValueError, match=f"^the {family} family does not read parameter '{key}'$"):
            FamilySpec(**given)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_factorial_exponent_refused(self, s):
        with pytest.raises(ValueError, match=f"^exponent s must be finite, got {s!r}$"):
            FamilySpec(kind="profile", rule="factorial", exponent=s, j_max=5)

    @pytest.mark.parametrize("s", [0.0, -1.5])
    def test_finite_factorial_exponent_at_or_below_zero_still_runs(self, s):
        prof = gen_profile(FamilySpec(kind="profile", rule="factorial", exponent=s, j_max=5))
        assert prof.ln_m[5] == s * math.lgamma(6)


class TestGenProfile:
    def test_factorial_rule(self):
        spec = FamilySpec(kind="profile", rule="factorial", j_max=100)
        prof = gen_profile(spec)
        assert prof.ln_m[5] == pytest.approx(math.log(120))

    def test_gevrey_two_rule(self):
        spec = FamilySpec(kind="profile", rule="factorial", exponent=2.0, j_max=50)
        prof = gen_profile(spec)
        assert prof.ln_m[4] == pytest.approx(2 * math.log(24))

    def test_constant_rule(self):
        spec = FamilySpec(kind="profile", rule="constant", j_max=20)
        assert all(v == 0.0 for v in gen_profile(spec).ln_m)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: gen_profile(FamilySpec("analytic", radius=2, decay=1.0)), ValueError,
         "gen_profile needs a synthetic-profile spec"),
        (lambda: gen_profile(FamilySpec("gevrey", radius=2, exponent=2.0)), ValueError,
         "gen_profile needs a synthetic-profile spec"),
    ],
    ids=["analytic-spec", "gevrey-spec"],
)
def test_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestRescaleToClass:
    def test_scale_for_m3_of_four(self):
        # Single mode at k=2 with c=1/2: M_3 = |c| * 2^3 = 4.
        s = FourierSeries(1, {(2,): 0.5})
        assert m_j(s, 3) == pytest.approx(math.log(4))
        result = rescale_to_class(s)
        assert result.normalized
        assert result.scale == pytest.approx(0.125 * (1 - 1e-6))
        assert m_j(result.series, 3) < math.log(0.5)

    def test_already_small_unchanged(self):
        s = FourierSeries(1, {(1,): 0.1})
        result = rescale_to_class(s)
        assert result.scale == 1.0
        assert result.series.coeffs == s.coeffs

    def test_constant_series_flagged(self):
        s = FourierSeries(1, {(0,): 5.0})
        result = rescale_to_class(s)
        assert not result.normalized
        assert result.scale == 1.0
        assert result.series.coeffs == s.coeffs

    def test_preserves_support_and_shifts_profile_uniformly(self):
        spec = FamilySpec(kind="analytic", dim=1, radius=20, decay=1.0)
        s = gen_series(spec)
        result = rescale_to_class(s)
        assert set(result.series.coeffs) == set(s.coeffs)
        before = build_profile(s, 6)
        after = build_profile(result.series, 6)
        for a, b in zip(before.ln_m, after.ln_m):
            if a == NEG_INF:
                assert b == NEG_INF
            else:
                assert b - a == pytest.approx(math.log(result.scale), abs=1e-12)

    def test_zero_series_rejected(self):
        with pytest.raises(ValueError):
            rescale_to_class(FourierSeries(1, {}))


class TestParseFamilySpec:
    def test_analytic_syntax(self):
        spec = parse_family_spec("analytic:a=1.0:K=100", dim=2)
        assert spec.kind == "analytic" and spec.decay == 1.0
        assert spec.radius == 100 and spec.dim == 2

    def test_profile_syntax(self):
        spec = parse_family_spec("profile:rule=factorial:s=2:Jmax=200")
        assert spec.rule == "factorial" and spec.exponent == 2.0
        assert spec.j_max == 200

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_family_spec("analytic:a=1:qqq=3")

    @pytest.mark.parametrize(
        "text, family, key",
        [
            ("analytic:a=1:K=3:Jmax=5", "analytic", "Jmax"),
            ("gevrey:s=2:rule=constant:K=3", "gevrey", "rule"),
            ("profile:rule=constant:Jmax=5:s=9", "constant profile", "s"),
            ("profile:rule=factorial:K=2:Jmax=5", "factorial profile", "K"),
        ],
    )
    def test_key_the_family_does_not_read_rejected_naming_it(self, text, family, key):
        with pytest.raises(ValueError, match=f"^the {family} family does not read parameter '{key}'$"):
            parse_family_spec(text)

    @pytest.mark.parametrize(
        "text, key, kind, value, wants",
        [
            ("analytic:a=1:K=1.5", "K", "analytic", "1.5", "an integer"),
            ("analytic:a=x:K=1", "a", "analytic", "x", "a number"),
            ("gevrey:s=:K=3", "s", "gevrey", "", "a number"),
            ("profile:rule=factorial:Jmax=ten", "Jmax", "profile", "ten", "an integer"),
        ],
    )
    def test_value_that_does_not_convert_refused_naming_key_family_and_text(
        self, text, key, kind, value, wants
    ):
        message = f"^parameter '{key}' of the {kind} family must be {wants}, got '{value}'$"
        with pytest.raises(ValueError, match=message):
            parse_family_spec(text)

    def test_file_kind_is_gone(self):
        # JSONL coefficients come in through --input only.
        with pytest.raises(ValueError, match="'path'"):
            parse_family_spec("file:path=coeffs.jsonl")
        with pytest.raises(ValueError, match="unknown family kind 'file'"):
            FamilySpec(kind="file")
