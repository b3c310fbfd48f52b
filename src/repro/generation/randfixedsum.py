"""Randfixedsum: unbiased utilization vectors with a fixed total.

The paper (Table 3, citing Emberson, Stafford & Davis, WATERS 2010) draws
per-task utilizations with the Randfixedsum algorithm: ``n`` values, each in
``[0, 1]``, that sum *exactly* to a target ``u`` and are uniformly
distributed over that simplex slice.  Compared to the naive
"draw-and-normalise" approach this avoids biasing individual utilizations
toward ``u / n``.

:func:`randfixedsum` is a NumPy implementation of Roger Stafford's
original MATLAB ``randfixedsum`` restricted to the unit interval (which is
all the taskset generator needs), following the structure of Paul
Emberson's Python port; it draws any number of vectors at once.

:func:`randfixedsum_vector` is the single-vector draw the taskset
generator makes per task population: the same algorithm in Python
scalars, where NumPy would spend most of its time on 1-element arrays.
It consumes the generator exactly like ``randfixedsum(..., num_sets=1)``
and returns bit-identical floats.  The ``w`` recurrence and the walk
repeat NumPy's operations in NumPy's order; of the transition table the
walk reads one entry per row, so only those entries are computed, when
the walk reaches them, by the table's own operations.  Each step's
``sx = r ** (1 / i)`` is still NumPy's own ``**`` on a 1-element slice,
because libm ``pow`` (and a vectorised power call, which NumPy routes
through ``sqrt`` for the ``i = 2`` step) rounds differently.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

__all__ = ["randfixedsum", "randfixedsum_vector"]

_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)


def _check_arguments(num_values: int, total: float) -> None:
    if num_values < 1:
        raise ValueError(f"num_values must be >= 1, got {num_values}")
    if not 0.0 <= total <= num_values:
        raise ValueError(
            f"total={total} must lie in [0, {num_values}] for values bounded by [0, 1]"
        )


def randfixedsum(
    num_values: int,
    total: float,
    num_sets: int = 1,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Draw ``num_sets`` vectors of ``num_values`` values in [0, 1] summing to ``total``.

    Parameters
    ----------
    num_values:
        Number of values per vector (``n >= 1``).
    total:
        Required sum ``u`` with ``0 <= u <= n``.
    num_sets:
        Number of independent vectors to draw.
    rng:
        NumPy random generator; a fresh default generator is used when
        omitted (pass one explicitly for reproducibility).

    Returns
    -------
    numpy.ndarray
        Array of shape ``(num_sets, num_values)``; every row sums to
        ``total`` (up to floating-point rounding) and every entry lies in
        ``[0, 1]``.

    Examples
    --------
    >>> values = randfixedsum(4, 1.5, num_sets=3, rng=np.random.default_rng(1))
    >>> values.shape
    (3, 4)
    >>> bool(np.allclose(values.sum(axis=1), 1.5))
    True
    """
    if num_values < 1:
        raise ValueError(f"num_values must be >= 1, got {num_values}")
    if num_sets < 1:
        raise ValueError(f"num_sets must be >= 1, got {num_sets}")
    _check_arguments(num_values, total)
    if rng is None:
        rng = np.random.default_rng()

    n = num_values
    if n == 1:
        return np.full((num_sets, 1), float(total))

    # --- build the transition-probability table -------------------------------
    k = int(np.floor(total))
    k = min(max(k, 0), n - 1)
    s = float(total)
    s1 = s - np.arange(k, k - n, -1, dtype=float)
    s2 = np.arange(k + n, k, -1, dtype=float) - s

    tiny = np.finfo(float).tiny
    huge = np.finfo(float).max

    w = np.zeros((n, n + 1))
    w[0, 1] = huge
    t = np.zeros((n - 1, n))

    for i in range(2, n + 1):
        tmp1 = w[i - 2, 1 : i + 1] * s1[:i] / float(i)
        tmp2 = w[i - 2, 0:i] * s2[n - i : n] / float(i)
        w[i - 1, 1 : i + 1] = tmp1 + tmp2
        tmp3 = w[i - 1, 1 : i + 1] + tiny
        tmp4 = s2[n - i : n] > s1[:i]
        t[i - 2, 0:i] = (tmp2 / tmp3) * tmp4 + (1 - tmp1 / tmp3) * (~tmp4)

    # --- walk the table to produce the samples ----------------------------------
    x = np.zeros((n, num_sets))
    rt = rng.uniform(size=(n - 1, num_sets))  # for transition decisions
    rs = rng.uniform(size=(n - 1, num_sets))  # for simplex coordinates
    s_vec = np.full(num_sets, s)
    j_vec = np.full(num_sets, k + 1, dtype=int)
    sm = np.zeros(num_sets)
    pr = np.ones(num_sets)

    for i in range(n - 1, 0, -1):
        e = (rt[n - i - 1, :] <= t[i - 1, j_vec - 1]).astype(int)
        sx = rs[n - i - 1, :] ** (1.0 / i)
        sm = sm + (1.0 - sx) * pr * s_vec / (i + 1)
        pr = sx * pr
        x[n - i - 1, :] = sm + pr * e
        s_vec = s_vec - e
        j_vec = j_vec - e

    x[n - 1, :] = sm + pr * s_vec

    # The walk fills dimensions in a fixed order; shuffle each column so the
    # marginal distribution is exchangeable across positions.
    for column in range(num_sets):
        x[:, column] = x[rng.permutation(n), column]

    result = x.T
    # Guard against tiny negative values / overshoots from rounding.
    np.clip(result, 0.0, 1.0, out=result)
    return result


def randfixedsum_vector(
    num_values: int,
    total: float,
    rng: np.random.Generator | None = None,
) -> List[float]:
    """One vector of ``num_values`` values in [0, 1] summing to ``total``.

    Bit-identical to ``randfixedsum(num_values, total, 1, rng)[0]``, with
    the generator left in the same state (``tests/generation`` pins both).

    Examples
    --------
    >>> values = randfixedsum_vector(4, 1.5, rng=np.random.default_rng(1))
    >>> len(values), abs(sum(values) - 1.5) < 1e-12
    (4, True)
    """
    _check_arguments(num_values, total)
    if rng is None:
        rng = np.random.default_rng()

    n = num_values
    if n == 1:
        return [float(total)]

    # --- the w recurrence, row by row ------------------------------------------
    # Rows 0..n-2 of randfixedsum's ``w``: row i - 1 of its transition table
    # ``t`` (built at i + 1) blends rows i - 1 and i, and the walk reads only
    # one entry of each table row, so it computes that entry when it needs it.
    k = min(max(math.floor(total), 0), n - 1)
    s = float(total)
    s1 = [s - float(k - j) for j in range(n)]
    s2 = [float(k + n - j) - s for j in range(n)]
    w_prev = [0.0] * (n + 1)
    w_prev[1] = _HUGE
    w_rows = [w_prev]
    for i in range(2, n):
        fi = float(i)
        offset = n - i
        w_row = [0.0] * (n + 1)
        for j in range(i):
            w_row[j + 1] = (
                w_prev[j + 1] * s1[j] / fi + w_prev[j] * s2[offset + j] / fi
            )
        w_rows.append(w_row)
        w_prev = w_row

    # --- walk the table ----------------------------------------------------------
    rt = rng.uniform(size=n - 1).tolist()  # for transition decisions
    rs = rng.uniform(size=n - 1)  # for simplex coordinates
    x = [0.0] * n
    s_val = s
    j = k + 1
    sm = 0.0
    pr = 1.0
    for i in range(n - 1, 0, -1):
        step = n - i - 1
        # t[i - 1][j - 1]: the row has n columns, filled for 0..i.  A
        # negative column wraps around as NumPy's fancy indexing does, and
        # an unfilled one reads 0.0.
        column = j - 1
        if column < 0:
            column += n
        if column <= i:
            fi = float(i + 1)
            s1j = s1[column]
            s2j = s2[step + column]
            w_prev = w_rows[i - 1]
            tmp1 = w_prev[column + 1] * s1j / fi
            tmp2 = w_prev[column] * s2j / fi
            tmp3 = tmp1 + tmp2 + _TINY
            # NumPy blends both branches with 0/1 weights, so a non-finite
            # value in the unselected branch still poisons the entry.
            if s2j > s1j:
                threshold = tmp2 / tmp3 + (1 - tmp1 / tmp3) * 0.0
            else:
                threshold = (tmp2 / tmp3) * 0.0 + (1 - tmp1 / tmp3)
        else:
            threshold = 0.0
        e = 1 if rt[step] <= threshold else 0
        sx = (rs[step : step + 1] ** (1.0 / i)).item()
        sm = sm + (1.0 - sx) * pr * s_val / (i + 1)
        pr = sx * pr
        x[step] = sm + pr * e
        s_val = s_val - e
        j = j - e
    x[n - 1] = sm + pr * s_val

    # Shuffle, then clamp rounding overshoots as ``np.clip`` does (``-0.0``
    # and NaN pass through unchanged).
    values = []
    for index in rng.permutation(n).tolist():
        value = x[index]
        if value < 0.0:
            value = 0.0
        elif value > 1.0:
            value = 1.0
        values.append(value)
    return values
