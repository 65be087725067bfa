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
    """ln(sum(exp(v))) computed stably, on a copy: ``values`` is left as it was.

    Returns -inf for an empty input or when every entry is -inf.
    """
    return _log_sum_exp_in_place(np.array(values, dtype=float))


def _log_sum_exp_in_place(arr: np.ndarray) -> float:
    """:func:`log_sum_exp` of a float array the caller gives up: it is overwritten.

    The entries are shifted by their max and exponentiated in ``arr`` itself,
    then summed, so the reduction allocates no array of its own.
    """
    if arr.size == 0:
        return NEG_INF
    hi = float(np.max(arr))
    if hi == NEG_INF:
        return NEG_INF
    if math.isinf(hi) or math.isnan(hi):
        raise ValueError("log_sum_exp input must be finite or -inf")
    arr -= hi
    return hi + math.log(float(np.sum(np.exp(arr, out=arr))))
