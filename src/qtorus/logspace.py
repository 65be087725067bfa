"""Log-domain arithmetic helpers.

Norm and associated-function computations run on natural-log values so that
factorially growing sequences stay representable.  Conventions: ln 0 = -inf,
(-inf) + finite = -inf, max(-inf, x) = x.  +inf and NaN are never legal.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")


def log_sum_exp(values) -> float:
    """ln(sum(exp(v))) computed stably.

    Returns -inf for an empty input or when every entry is -inf.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return NEG_INF
    hi = float(np.max(arr))
    if hi == NEG_INF:
        return NEG_INF
    if math.isinf(hi) or math.isnan(hi):
        raise ValueError("log_sum_exp input must be finite or -inf")
    shifted = arr - hi
    return hi + math.log(float(np.sum(np.exp(shifted, out=shifted))))
