"""Shared clamped interference-term kernels (paper Eq. 2, 4, 5).

Both per-window engines -- the migrating-security-task `_OmegaMemo`
(:mod:`repro.rta.migrating`) and the global fixed-priority engine
(:mod:`repro.rta.global_fp`) -- evaluate the same clamped
non-carry-in/carry-in terms per higher-priority task:

* ``NC = min(W(x), cap)`` with ``W(x) = floor(x/T) C + min(x mod T, C)``
  (Eq. 2, clamped per Eq. 5);
* ``CI = min(W(max(x - xbar, 0)) + min(x, C - 1), cap)`` with
  ``xbar = C - 1 + T - R`` precomputed as the per-task ``shift`` (Eq. 4,
  clamped per Eq. 5).

The task parameters are fixed for one fixed-point solve, so both engines
precompute per-task ``(C, T, shift)`` descriptors and the kernels here
reduce to inline integer arithmetic (scalar loop) or one NumPy pass
(vector form, used by the global engine for large higher-priority sets).  Keeping the arithmetic in
one module means a future fix to the clamping or the shift handling
cannot silently miss an engine; the third copy in
:mod:`repro.batch.reference` is deliberately frozen and must *not* be
redirected here.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["scalar_terms", "vector_terms", "greedy_positive_sum"]


def scalar_terms(
    window: int, cap: int, tasks: Sequence[Tuple[int, int, int]]
) -> Tuple[int, List[int]]:
    """Clamped NC sum and per-task ``CI - NC`` deltas, scalar path.

    ``tasks`` holds ``(wcet, period, shift)`` per higher-priority task.
    """
    nc_sum = 0
    deltas: List[int] = []
    for wcet, period, shift in tasks:
        quotient, remainder = divmod(window, period)
        nc = quotient * wcet + (remainder if remainder < wcet else wcet)
        if nc > cap:
            nc = cap
        shifted = window - shift
        if shifted < 0:
            shifted = 0
        quotient, remainder = divmod(shifted, period)
        ci = quotient * wcet + (remainder if remainder < wcet else wcet)
        ci += window if window < wcet - 1 else wcet - 1
        if ci > cap:
            ci = cap
        nc_sum += nc
        deltas.append(ci - nc)
    return nc_sum, deltas


def vector_terms(
    window: int,
    cap: int,
    wcets: np.ndarray,
    periods: np.ndarray,
    shifts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Clamped NC and CI term vectors, one NumPy pass.

    The scalar ``window`` broadcasts over the divisions, avoiding a
    ``full_like`` allocation per call.  Returns the clamped ``(nc, ci)``
    arrays; callers reduce them as they need (sum + deltas, greedy top-k).
    """
    nc = (window // periods) * wcets + np.minimum(window % periods, wcets)
    shifted = np.maximum(window - shifts, 0)
    ci = (shifted // periods) * wcets + np.minimum(shifted % periods, wcets)
    ci += np.minimum(window, wcets - 1)
    np.minimum(nc, cap, out=nc)
    np.minimum(ci, cap, out=ci)
    return nc, ci


def greedy_positive_sum(deltas: Sequence[int], max_carry_in: int) -> int:
    """Sum of the largest ``max_carry_in`` positive deltas (Lemma 2 bound)."""
    if max_carry_in <= 0 or not deltas:
        return 0
    positive = sorted((delta for delta in deltas if delta > 0), reverse=True)
    return sum(positive[:max_carry_in])
