"""Kernel engine for migrating security tasks (paper Eq. 6-8).

This is the HYDRA-C response-time engine that previously lived in
:mod:`repro.core.analysis` (which now re-exports it, so the historical
public API is unchanged).  It implements Section 4.1-4.4 of the paper: the
response time of a security task that may run on any core, at a priority
below every RT task, while the RT tasks stay statically partitioned.

The busy-window recurrence (Eq. 6-7) combines two interference sources:

1. **Partitioned RT tasks** (Eq. 2-3).  On each core the RT workload is
   maximised by a synchronous release (Lemma 1); the per-core workload is
   clamped to ``x - C_s + 1`` and the clamped per-core terms are summed over
   all cores.
2. **Higher-priority security tasks** (Eq. 4-5).  These migrate like the
   task under analysis, so they are treated exactly as in global
   response-time analysis: at most ``M - 1`` of them are carry-in tasks
   (Lemma 2), the carry-in workload uses the task's own known response
   time, and each task's workload is clamped to ``x - C_s + 1``.

The final response time is the maximum over admissible carry-in sets of the
per-set fixed point (Eq. 8), or the greedy per-iteration bound;
:class:`CarryInStrategy` selects between them.

Kernel integration: callers that evaluate many tasks/periods against the
same RT partition share a :class:`RtWorkloadCache`; with an
:class:`~repro.rta.context.RtaContext` the cache is sourced from (and
shared through) the context, keyed by the partition's ``(wcet, period)``
layout, so every consumer of one task set -- period selection, the batch
service's phases, ad-hoc analyses -- prices each RT workload window once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.model.tasks import RealTimeTask
from repro.rta.compiled import INT31_LIMIT
from repro.rta.terms import greedy_positive_sum, scalar_terms
from repro.schedulability.carry_in import (
    count_carry_in_sets,
    enumerate_carry_in_sets,
)

__all__ = [
    "CarryInStrategy",
    "GREEDY_SEED",
    "RtWorkloadCache",
    "SecurityTaskState",
    "security_response_time",
    "DEFAULT_EXACT_ENUMERATION_LIMIT",
]

#: Seed-map key under which the greedy-strategy fixed point is recorded
#: (exact carry-in sets are keyed by their enumeration index).
GREEDY_SEED = "greedy"

#: Above this many carry-in sets the AUTO strategy switches from exact
#: enumeration (Eq. 8) to the greedy per-iteration bound.  The greedy bound
#: is never optimistic, so this is purely a speed/accuracy knob.
DEFAULT_EXACT_ENUMERATION_LIMIT = 32


class CarryInStrategy(str, enum.Enum):
    """How the worst-case carry-in set of Eq. 8 is searched.

    * ``EXACT``  -- enumerate every admissible carry-in set and take the
      maximum of the per-set fixed points (the paper's Eq. 8, exact but
      exponential in the number of higher-priority security tasks).
    * ``GREEDY`` -- inside each fixed-point iteration pick the ``M - 1``
      tasks whose carry-in delta is largest (Guan-style).  Never optimistic
      with respect to ``EXACT``; much faster.
    * ``AUTO``   -- use ``EXACT`` while the number of carry-in sets is below
      a threshold, otherwise ``GREEDY``.
    """

    EXACT = "exact"
    GREEDY = "greedy"
    AUTO = "auto"


@dataclass(frozen=True)
class SecurityTaskState:
    """Snapshot of a higher-priority security task as seen by the analysis.

    ``period`` is the period currently assigned to the task (either its
    final adapted period or, earlier in Algorithm 1, its maximum period);
    ``response_time`` is its already-computed WCRT, needed by the carry-in
    workload bound (Eq. 4).
    """

    name: str
    wcet: int
    period: int
    response_time: int

    def __post_init__(self) -> None:
        if self.wcet <= 0 or self.period <= 0:
            raise ValueError("wcet and period must be positive")
        if self.response_time < self.wcet:
            raise ValueError(
                f"response_time={self.response_time} smaller than wcet={self.wcet} "
                f"for {self.name!r}"
            )


class RtWorkloadCache:
    """Memoised, vectorised per-core RT workload sums.

    The RT tasks and their partition never change while security periods are
    being explored, so the per-core synchronous-release workload (Eq. 2
    summed per core) is a pure function of the window length.  Period
    selection evaluates many windows repeatedly (the binary search
    re-analyses every lower-priority task for each candidate period), which
    makes this cache worthwhile; the evaluation itself is a single NumPy
    pass over all RT tasks with a ``bincount`` reduction per core.
    """

    def __init__(
        self, rt_tasks_by_core: Mapping[int, Sequence[RealTimeTask]]
    ) -> None:
        core_ids: List[int] = []
        wcets: List[int] = []
        periods: List[int] = []
        core_indices = sorted(rt_tasks_by_core)
        position_of = {core: position for position, core in enumerate(core_indices)}
        for core, tasks in rt_tasks_by_core.items():
            for task in tasks:
                core_ids.append(position_of[core])
                wcets.append(task.wcet)
                periods.append(task.period)
        self._num_cores = len(core_indices)
        self._core_ids = np.asarray(core_ids, dtype=np.int64)
        self._wcets = np.asarray(wcets, dtype=np.int64)
        self._periods = np.asarray(periods, dtype=np.int64)
        self._cache: Dict[int, np.ndarray] = {}
        self._interference_cache: Dict[Tuple[int, int], int] = {}
        self._compiled_fit: Optional[bool] = None

    def compiled_fit(self) -> bool:
        """Whether the RT operands satisfy the compiled kernel's guards.

        Requires every period below :data:`~repro.rta.compiled.INT31_LIMIT`
        and ``wcet <= period`` (the task model guarantees the latter; it is
        re-checked because the C per-core accumulation relies on it to stay
        within ``int64``).  Computed once -- the arrays never change.
        """
        if self._compiled_fit is None:
            if self._wcets.size == 0:
                self._compiled_fit = True
            else:
                self._compiled_fit = bool(
                    int(self._periods.max()) < INT31_LIMIT
                    and bool((self._wcets <= self._periods).all())
                )
        return self._compiled_fit

    def partition_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """``(core positions, wcets, periods, core count)`` of the partition
        -- the RT operands of the compiled period selector."""
        return self._core_ids, self._wcets, self._periods, self._num_cores

    def per_core_workloads(self, window: int) -> np.ndarray:
        """Un-clamped RT workload on each core for the given window."""
        cached = self._cache.get(window)
        if cached is not None:
            return cached
        if self._wcets.size == 0:
            workloads = np.zeros(self._num_cores, dtype=np.int64)
        else:
            per_task = (window // self._periods) * self._wcets + np.minimum(
                window % self._periods, self._wcets
            )
            workloads = np.bincount(
                self._core_ids, weights=per_task, minlength=self._num_cores
            ).astype(np.int64)
        self._cache[window] = workloads
        return workloads

    def interference(self, window: int, security_wcet: int) -> int:
        """Clamped and summed RT interference (first summand of Eq. 6).

        Scalar results are memoised per ``(window, security_wcet)``: a
        period-selection run analyses the same task (fixed ``C_s``) at the
        same windows many times while exploring candidate periods of the
        tasks above it, and the RT partition never changes.
        """
        cap = window - security_wcet + 1
        if cap <= 0:
            return 0
        key = (window, security_wcet)
        cached = self._interference_cache.get(key)
        if cached is not None:
            return cached
        workloads = self.per_core_workloads(window)
        result = int(np.minimum(workloads, cap).sum())
        self._interference_cache[key] = result
        return result


class _OmegaMemo:
    """Per-window memo of the total interference ``Omega(x)`` of Eq. 6.

    One memo serves a single :func:`security_response_time` call, where the
    task under analysis (hence ``C_s`` and the higher-priority states) is
    fixed.  The fixed-point iterations of *every* carry-in set of Eq. 8 walk
    largely overlapping window trajectories, so the expensive part -- the
    clamped RT workload plus the non-carry-in/carry-in security terms
    (Eq. 2-5) -- is computed once per distinct window and the per-set
    totals reduce to a dictionary lookup plus a handful of scalar adds.

    The terms are evaluated with plain integer arithmetic: Table 3 caps a
    task's higher-priority security set at 19 tasks, where the per-call
    overhead of NumPy ufuncs exceeds the loop cost.
    """

    def __init__(
        self,
        rt_cache: RtWorkloadCache,
        states: Sequence[SecurityTaskState],
        security_wcet: int,
        max_carry_in: int,
    ) -> None:
        self._rt_cache = rt_cache
        self._security_wcet = security_wcet
        self._max_carry_in = max_carry_in
        # (wcet, period, xbar shift of Eq. 4: C - 1 + T - R)
        self._tasks: List[Tuple[int, int, int]] = [
            (s.wcet, s.period, s.wcet - 1 + s.period - s.response_time)
            for s in states
        ]
        #: window -> (RT interference + sum of clamped non-carry-in terms)
        self._base: Dict[int, int] = {}
        #: window -> per-task carry-in minus non-carry-in delta
        self._deltas: Dict[int, List[int]] = {}
        #: window -> greedy total (base + top max_carry_in positive deltas)
        self._greedy: Dict[int, int] = {}

    def _materialise(self, window: int) -> Tuple[int, List[int]]:
        base = self._base.get(window)
        if base is not None:
            return base, self._deltas[window]
        rt = self._rt_cache.interference(window, self._security_wcet)
        if self._tasks:
            cap = max(window - self._security_wcet + 1, 0)
            nc_sum, deltas = scalar_terms(window, cap, self._tasks)
            base = rt + nc_sum
        else:
            deltas = []
            base = rt
        self._base[window] = base
        self._deltas[window] = deltas
        return base, deltas

    def total_for_set(self, window: int, carry_in_indices: Tuple[int, ...]) -> int:
        """``Omega(x)`` with an explicitly fixed carry-in set (Eq. 8)."""
        base, deltas = self._materialise(window)
        total = base
        for index in carry_in_indices:
            total += deltas[index]
        return total

    def greedy_total(self, window: int) -> int:
        """``Omega(x)`` maximised greedily per window (Lemma 2 bound)."""
        cached = self._greedy.get(window)
        if cached is not None:
            return cached
        base, deltas = self._materialise(window)
        total = base + greedy_positive_sum(deltas, self._max_carry_in)
        self._greedy[window] = total
        return total


# ---------------------------------------------------------------------------
# Fixed-point searches (Eq. 7)
# ---------------------------------------------------------------------------


def _solve_fixed_point(
    security_wcet: int,
    limit: int,
    num_cores: int,
    omega,
    seed: Optional[int] = None,
) -> Optional[int]:
    """Iterate Eq. 7 (``x = floor(Omega(x)/M) + C_s``) from ``x = C_s``.

    ``omega(window)`` must return the total interference (RT plus
    higher-priority security) for the given window.  Returns the least fixed
    point, or ``None`` once the iterate exceeds ``limit``.

    ``seed`` optionally warm-starts the iteration.  It must be a *sound
    lower bound* on the least fixed point (e.g. the same task/carry-in
    set's fixed point under pointwise smaller interference -- longer
    higher-priority periods or smaller higher-priority response times).
    Starting anywhere in ``[C_s, lfp]`` converges to the identical least
    fixed point: for any ``x`` in that range, ``Omega(x)//M + C_s < x``
    would imply (the map moves by at most -1 per unit step, so its graph
    cannot cross the diagonal without touching it) a fixed point strictly
    below ``x``, contradicting leastness.  A seed *above* the least fixed
    point would be unsound -- the iteration would settle on a higher fixed
    point -- which is why seeds must only ever travel along the monotone
    directions above; ``tests/rta/test_vectorized_screen.py`` pins the
    equality on randomized workloads.
    """
    window = security_wcet
    if seed is not None and seed > window:
        window = seed
    while True:
        candidate = omega(window) // num_cores + security_wcet
        if candidate == window:
            return window
        if candidate > limit:
            return None
        window = candidate


def security_response_time(
    security_wcet: int,
    limit: int,
    rt_tasks_by_core: Mapping[int, Sequence[RealTimeTask]],
    higher_security: Sequence[SecurityTaskState],
    num_cores: int,
    strategy: CarryInStrategy = CarryInStrategy.AUTO,
    exact_enumeration_limit: int = DEFAULT_EXACT_ENUMERATION_LIMIT,
    rt_cache: Optional[RtWorkloadCache] = None,
    rta_context=None,
    set_seeds: Optional[Mapping] = None,
    set_uppers: Optional[Mapping] = None,
    seed_sink: Optional[Dict] = None,
    response_floor: Optional[int] = None,
    blocking: int = 0,
) -> Optional[int]:
    """WCRT of a migrating security task (paper Eq. 6-8).

    Parameters
    ----------
    security_wcet:
        WCET ``C_s`` of the task under analysis.  A non-zero ``blocking``
        term ``B`` (resource protocols; see
        :func:`repro.platform.blocking.blocking_terms`) is folded in as
        ``C_s + B`` at entry -- the Eq. 6-8 fixed point with an additive
        self-demand constant is identical to one with an inflated WCET, and
        every downstream consumer (warm-start seeds, pins, certification)
        then sees the inflated value, keeping reuse machinery
        automatically blocking-aware.
    limit:
        Abort threshold, normally ``T^max_s``: if the response time exceeds
        it the task is trivially unschedulable and ``None`` is returned.
    rt_tasks_by_core:
        The statically partitioned RT tasks, grouped by core index.
    higher_security:
        States (period + known WCRT) of the security tasks with higher
        priority than the task under analysis, in any order.
    num_cores:
        Number of identical cores ``M``.
    strategy:
        How the carry-in set of Eq. 8 is explored (see
        :class:`CarryInStrategy`).
    rt_cache:
        Optional pre-built :class:`RtWorkloadCache` for the same
        ``rt_tasks_by_core`` partition; callers that analyse many tasks or
        periods against the same RT partition should share one.
    rta_context:
        Optional :class:`~repro.rta.context.RtaContext`; when given (and no
        explicit ``rt_cache``), the cache is sourced from the context so
        every consumer of the task set shares it.
    set_seeds:
        Optional warm-start seeds: a mapping from carry-in-set enumeration
        index (or :data:`GREEDY_SEED` for the greedy strategy) to a sound
        lower bound on that set's fixed point.  Seeds must come from the
        *same* ``(task, carry-in set)`` solved under pointwise weaker
        interference -- longer higher-priority periods and/or smaller
        higher-priority response times -- as period selection's monotone
        exploration produces; see :func:`_solve_fixed_point` for why such
        seeds cannot change the result.  Unknown keys are ignored.
    set_uppers:
        Optional sound *upper* bounds on the per-set fixed points, keyed
        like ``set_seeds``: fixed points of the same ``(task, carry-in
        set)`` solved under pointwise *stronger* interference (shorter
        higher-priority periods and/or larger higher-priority response
        times).  A set whose seed equals its upper bound is **pinned** --
        the least fixed point is sandwiched to that exact integer and the
        iteration is skipped outright (cross-probe reuse in Algorithm 2;
        ``dedup_pinned_sets`` counts them).
        Pinning only fires when both bounds name the value the iteration
        would converge to, so it can never change a result.
    seed_sink:
        Optional dictionary collecting the per-set fixed points of this
        call (same keys as ``set_seeds``), so the caller can seed future,
        more-interfered solves of the same set.  Only sets whose fixed
        point is known exactly (solved or pinned) are recorded; certified
        sets and a set that exceeds ``limit`` record nothing.
    response_floor:
        Optional sound lower bound on the *whole* response (the Eq. 8
        maximum over carry-in sets): a completed response of the same task
        solved under pointwise weaker interference, as Algorithm 2's
        larger probed candidates produce.  Only consulted by the exact
        strategy, where it primes the certification incumbent -- like
        seeding, it can never change a result.

    Returns
    -------
    The worst-case response time in ticks, or ``None`` if it exceeds
    ``limit``.
    """
    if security_wcet <= 0:
        raise ValueError("security_wcet must be positive")
    if limit <= 0:
        raise ValueError("limit must be positive")
    if num_cores <= 0:
        raise ValueError("num_cores must be positive")
    if blocking < 0:
        raise ValueError("blocking must be >= 0")
    security_wcet += blocking
    if security_wcet > limit:
        return None
    if rt_cache is None:
        if rta_context is not None:
            rt_cache = rta_context.rt_workload_cache(rt_tasks_by_core)
        else:
            rt_cache = RtWorkloadCache(rt_tasks_by_core)

    stats = rta_context.stats if rta_context is not None else None
    if set_seeds and stats is not None:
        stats.seeded_solves += 1

    max_carry_in = num_cores - 1

    if strategy is CarryInStrategy.AUTO:
        sets = count_carry_in_sets(len(higher_security), max_carry_in)
        strategy = (
            CarryInStrategy.EXACT
            if sets <= exact_enumeration_limit
            else CarryInStrategy.GREEDY
        )

    memo = _OmegaMemo(rt_cache, higher_security, security_wcet, max_carry_in)

    if strategy is CarryInStrategy.GREEDY:
        seed = set_seeds.get(GREEDY_SEED) if set_seeds else None
        if (
            seed is not None
            and set_uppers is not None
            and set_uppers.get(GREEDY_SEED) == seed
        ):
            result = seed
            if stats is not None:
                stats.dedup_pinned_sets += 1
        else:
            result = _solve_fixed_point(
                security_wcet, limit, num_cores, memo.greedy_total, seed=seed
            )
        if result is not None and seed_sink is not None:
            seed_sink[GREEDY_SEED] = result
        return result

    # Exact (Eq. 8) with incumbent certification.  Eq. 8 only needs the
    # *maximum* of the per-set least fixed points, so once an incumbent
    # ``worst`` is on the table most sets need no iteration at all: the
    # solve map ``h(x) = Omega_set(x)//M + C_s`` is monotone, so
    # ``h(worst) <= worst`` proves a descending iteration from ``worst``
    # reaches a fixed point at or below it -- that set's least fixed point
    # cannot raise the maximum and its solve is skipped after a single
    # Omega evaluation (all checks share the one materialised window at
    # ``worst``).  Sets failing the check (the true maximum, plus
    # occasional near-ties) are solved in full from their own sound seeds,
    # so the result equals the exhaustive enumeration of the frozen
    # :func:`repro.batch.reference.reference_security_response_time`.  If
    # any solved set exceeds the limit, so does the maximum.
    #
    # The incumbent starts as the largest *sound lower bound on the
    # maximum* on the table -- the caller's whole-response floor
    # (``response_floor``) and every per-set seed (each seed is <= its
    # set's least fixed point, which is <= the maximum) -- so a call whose
    # response did not move past its bounds certifies every set against
    # that bound and performs no iteration at all.  The final ``worst`` is
    # sound both ways: it only ever holds sound lower bounds on the
    # maximum, and every set was certified, solved or pinned at or below
    # it, so it *is* the maximum.  Sandwich-pinned sets (seed == upper
    # bound) fold their exact value in.  Certified sets are *not* recorded
    # in the sink (their exact fixed point is never computed); solved and
    # pinned sets are, keeping the seed_sink contract sound.
    worst = 0
    have_incumbent = False
    if response_floor is not None:
        worst = response_floor
        have_incumbent = True
    pending = []
    for set_index, carry_in_indices in enumerate(
        enumerate_carry_in_sets(len(higher_security), max_carry_in)
    ):
        seed = set_seeds.get(set_index) if set_seeds else None
        if (
            seed is not None
            and set_uppers is not None
            and set_uppers.get(set_index) == seed
        ):
            if stats is not None:
                stats.dedup_pinned_sets += 1
            if seed_sink is not None:
                seed_sink[set_index] = seed
            if seed > worst:
                worst = seed
            have_incumbent = True
        else:
            if seed is not None:
                if seed > worst:
                    worst = seed
                have_incumbent = True
            pending.append((set_index, carry_in_indices, seed))
    # Try best-seeded sets first: the max attainer usually carries the
    # largest seed, and solving it first raises the incumbent so the
    # remaining sets certify instead of solving.  (Stable sort: equal
    # seeds keep enumeration order.)
    pending.sort(
        key=lambda entry: -1 if entry[2] is None else entry[2],
        reverse=True,
    )
    # The certification window is the incumbent itself, so every check
    # shares one materialised (base, deltas) pair; ``h(worst) <= worst``
    # rearranges to ``Omega < M * (worst - C_s + 1)``, turning each check
    # into delta adds and a compare.
    cert_window = -1
    cert_base = cert_budget = 0
    cert_deltas: Sequence[int] = ()
    for set_index, carry_in_indices, seed in pending:
        if have_incumbent:
            if cert_window != worst:
                cert_base, cert_deltas = memo._materialise(worst)
                cert_budget = (worst - security_wcet + 1) * num_cores
                cert_window = worst
            total = cert_base
            for carry_index in carry_in_indices:
                total += cert_deltas[carry_index]
            if total < cert_budget:
                if stats is not None:
                    stats.dedup_certified_sets += 1
                continue
        response = _solve_fixed_point(
            security_wcet,
            limit,
            num_cores,
            lambda window, chosen=carry_in_indices: memo.total_for_set(
                window, chosen
            ),
            seed=seed,
        )
        if response is None:
            return None
        if seed_sink is not None:
            seed_sink[set_index] = response
        if response > worst:
            worst = response
        have_incumbent = True
    return worst
