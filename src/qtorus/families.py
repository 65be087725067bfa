"""Test-function families with known growth behavior.

Series generators use |k|_1 (sum of absolute components) as the decay
argument, which keeps the coefficients symmetric and the estimates uniform
in the dimension.  Profile generators bypass the spectrum entirely for
large-order studies.  ``rescale_to_class`` multiplies a series by a constant
so that M_3 < 1/2, the normalization the inequality chain presumes.
"""

from __future__ import annotations

import math

import numpy as np

from .associated import CLASS_MARGIN
from .logspace import NEG_INF
from .norms import DerivativeNormProfile, m_j
from .series import FourierSeries, Record, _count, _real, check_power, check_size

_KINDS = ("analytic", "gevrey", "profile")
_RULES = ("factorial", "constant")

#: The FamilySpec field and type each family parameter sets.
_PARAMETERS = {"a": ("decay", float), "s": ("exponent", float), "K": ("radius", int),
               "rule": ("rule", str), "Jmax": ("j_max", int)}

#: The parameters each family reads.
_READS = {"analytic": ("a", "K"), "gevrey": ("s", "K"),
          "factorial profile": ("rule", "s", "Jmax"), "constant profile": ("rule", "Jmax")}


class FamilySpec(Record):
    """Description of one generated family member.

    kind "analytic": c_k = exp(-a |k|_1), needs finite decay a > 0 and radius.
    kind "gevrey":   c_k = exp(-|k|_1^{1/s}), needs finite exponent s >= 1
                     and radius.
    kind "profile":  synthetic ln M_j rule ("factorial" scaled by a finite
                     exponent s, default 1, or "constant"), needs rule and j_max.
    A field the family does not read (:data:`_READS`) is a ValueError naming its key.
    """

    kind: str
    dim: int = 1
    radius: int | None = None
    decay: float | None = None
    exponent: float | None = None
    rule: str | None = None
    j_max: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        object.__setattr__(self, "dim", _count("dim", self.dim))
        if self.kind == "profile" and self.rule not in _RULES:
            raise ValueError(f"profile rule must be one of {_RULES}")
        family = f"{self.rule} profile" if self.kind == "profile" else self.kind
        for key, (field, _) in _PARAMETERS.items():
            if getattr(self, field) is not None and key not in _READS[family]:
                raise ValueError(f"the {family} family does not read parameter {key!r}")
        if self.kind == "analytic":
            object.__setattr__(self, "decay", _real("decay a", self.decay, 0, strict=True))
        elif self.kind == "gevrey" or self.exponent is not None:
            floor = 1 if self.kind == "gevrey" else None
            object.__setattr__(self, "exponent", _real("exponent s", self.exponent, floor))
        size = "j_max" if self.kind == "profile" else "radius"
        object.__setattr__(self, size, _count(size, getattr(self, size), least=0))


def gen_series(spec: FamilySpec) -> FourierSeries:
    """Deterministically generate the family's coefficient spectrum.

    The (2K+1)^n modes of the sup-norm box |k_p| <= K, in index order.  A
    coefficient depends on |k|_1 only, so each of the n K + 1 distinct
    values is computed once and gathered.  A box of more modes than the
    cap raises :class:`GridCapError` (:func:`check_power`) before anything
    is allocated.
    """
    if spec.kind == "profile":
        raise ValueError("profile families have no spectrum; use gen_profile")
    n, radius = spec.dim, spec.radius
    side = 2 * radius + 1
    # The box is count x n entries: with one mode (K = 0) n alone sizes it.
    check_size(n, "axes of the family spectrum (--n)")
    count = check_power(side, n, "modes of the family spectrum")
    if spec.kind == "analytic":
        by_l1 = [math.exp(-spec.decay * l1) for l1 in range(n * radius + 1)]
    else:  # gevrey
        by_l1 = [math.exp(-float(l1) ** (1.0 / spec.exponent)) for l1 in range(n * radius + 1)]
    # Mode i's index is the base-side digits of i (first axis most
    # significant) minus K: index order, for any number of axes.
    place = side ** np.arange(n - 1, -1, -1, dtype=np.int64)
    k = np.arange(count)[:, None] // place % side - radius
    return FourierSeries.from_arrays(n, k, np.array(by_l1)[np.abs(k).sum(axis=1)])


def gen_profile(spec: FamilySpec) -> DerivativeNormProfile:
    """Fill ln M_j from a closed-form rule up to j_max.

    j_max + 1 orders past the cap is a :class:`GridCapError` before any is made.
    """
    if spec.kind != "profile":
        raise ValueError("gen_profile needs a synthetic-profile spec")
    check_size(spec.j_max + 1, "profile orders (j_max + 1)")
    s = 1.0 if spec.exponent is None else spec.exponent
    if spec.rule == "factorial":
        vals = tuple(s * math.lgamma(j + 1) for j in range(spec.j_max + 1))
    else:  # constant
        vals = tuple(0.0 for _ in range(spec.j_max + 1))
    return DerivativeNormProfile(dim=spec.dim, ln_m=vals)


class RescaleResult(Record):
    series: FourierSeries
    scale: float
    normalized: bool


def rescale_to_class(series: FourierSeries) -> RescaleResult:
    """Multiply by a constant c <= 1 so that M_3(c f) < 1/2.

    c = min(1, (1/2) e^{-ln M_3} (1 - CLASS_MARGIN)), the margin :func:`witness`
    normalizes with.  A series whose third-order derivatives vanish
    identically (ln M_3 = -inf, e.g. constants) has nothing to normalize and
    is returned unchanged with ``normalized=False``.
    """
    if not series.n_modes:
        raise ValueError("cannot rescale the zero series")
    ln_m3 = m_j(series, 3)
    if ln_m3 == NEG_INF:
        return RescaleResult(series=series, scale=1.0, normalized=False)
    scale = min(1.0, 0.5 * math.exp(-ln_m3) * (1.0 - CLASS_MARGIN))
    if scale == 1.0:
        return RescaleResult(series=series, scale=1.0, normalized=True)
    return RescaleResult(series=series * scale, scale=scale, normalized=True)


def parse_family_spec(text: str, dim: int = 1) -> FamilySpec:
    """Parse the CLI family syntax, e.g. ``analytic:a=1.0:K=100``.

    Recognized keys: a (decay), s (exponent), K (radius), rule, Jmax.  A
    value that does not convert to its key's type is a ValueError naming the
    key, the family and the text.
    """
    parts = text.split(":")
    kind = parts[0].strip()
    given: dict = {}
    for part in parts[1:]:
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed family parameter {part!r}")
        key, value = (side.strip() for side in part.split("=", 1))
        if key not in _PARAMETERS:
            raise ValueError(f"unknown family parameter {key!r}")
        field, convert = _PARAMETERS[key]
        try:
            given[field] = convert(value)
        except ValueError:
            wants = "an integer" if convert is int else "a number"
            message = f"parameter {key!r} of the {kind} family must be {wants}, got {value!r}"
            raise ValueError(message) from None
    return FamilySpec(kind=kind, dim=dim, **given)
