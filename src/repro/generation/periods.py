"""Log-uniform period generation.

Table 3 specifies a log-uniform period distribution for both RT tasks
(10-1000 ms) and the maximum periods of security tasks (1500-3000 ms).
A log-uniform draw spreads periods evenly across orders of magnitude, which
is the standard recipe for synthetic real-time tasksets (Emberson et al.,
WATERS 2010).
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["log_uniform_periods"]


def log_uniform_periods(
    count: int,
    minimum: int,
    maximum: int,
    rng: np.random.Generator | None = None,
    granularity: int = 1,
) -> List[int]:
    """Draw ``count`` integer periods log-uniformly from ``[minimum, maximum]``.

    Parameters
    ----------
    count:
        Number of periods to draw (may be zero).
    minimum, maximum:
        Inclusive bounds in ticks, ``0 < minimum <= maximum``.
    rng:
        NumPy random generator (a fresh default generator when omitted).
    granularity:
        Round each period to a multiple of this value (>= 1).  The paper's
        parameters are millisecond-granular, so the default of 1 tick = 1 ms
        is what the experiments use.

    Returns
    -------
    A list of ``count`` integers, each in ``[minimum, maximum]`` and a
    multiple of ``granularity`` (as far as the bounds allow).

    Examples
    --------
    >>> periods = log_uniform_periods(5, 10, 1000, rng=np.random.default_rng(0))
    >>> all(10 <= p <= 1000 for p in periods)
    True
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if minimum <= 0:
        raise ValueError(f"minimum must be positive, got {minimum}")
    if maximum < minimum:
        raise ValueError(
            f"maximum={maximum} must be at least minimum={minimum}"
        )
    if granularity < 1:
        raise ValueError(f"granularity must be >= 1, got {granularity}")
    if count == 0:
        return []
    if rng is None:
        rng = np.random.default_rng()

    samples = np.exp(rng.uniform(np.log(minimum), np.log(maximum), size=count))
    periods: List[int] = []
    # Python floats round half to even like NumPy's and skip the per-element
    # NumPy scalar arithmetic.
    for sample in samples.tolist():
        period = int(round(sample / granularity)) * granularity
        period = max(minimum, min(maximum, period))
        periods.append(period)
    return periods
