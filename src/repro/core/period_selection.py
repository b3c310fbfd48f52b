"""Period adaptation for security tasks (paper Algorithms 1 and 2).

Given a task set whose RT tasks are already partitioned, HYDRA-C chooses the
*minimum* period for every security task -- maximising monitoring frequency
-- while keeping every security task schedulable within its designer-given
maximum period ``T^max_s``:

* **Algorithm 1** walks the security tasks from highest to lowest priority.
  It first verifies that the task set is schedulable with every period at
  its maximum (otherwise no adaptation can help and the set is rejected).
  It then fixes, for each task in turn, the smallest period that keeps all
  *lower-priority* security tasks schedulable, and propagates the updated
  interference to those tasks' response times.
* **Algorithm 2** performs the per-task search: a logarithmic (binary)
  search over the integer range ``[R_s, T^max_s]``.  Feasibility is monotone
  in the period (a longer period can only reduce the interference a task
  imposes), which is what makes binary search sound; a linear search mode is
  kept for the ablation benchmark.

The same monotonicity powers the selector's *warm-start ledger*: every
fixed point solved during Algorithm 1 is a sound lower bound on any later
solve of the same ``(task, carry-in set)`` under pointwise stronger
interference (periods only ever shrink as Algorithm 1 fixes them, response
times only ever grow).  The ledger seeds each Eq. 7 iteration from the
best applicable earlier fixed point instead of from ``C_s``, cutting the
iteration count by an order of magnitude on the synthetic sweeps while
producing bit-identical responses; the merge rules -- which earlier states
may seed which later ones -- are documented on :class:`_SeedLedger`.

Exact solve-skipping rides on the same ordering: whole-task probe pinning
(:meth:`PeriodSelector._probe_pins`), certification floors, and verbatim
reuse of the chosen probe's chain for Algorithm 1's Line-8 refresh.  Those
reduce ``analysis_calls`` below the cold loop of the frozen
:func:`repro.batch.reference.reference_select_periods`; every result field
stays byte-identical (``tests/rta/test_vectorized_screen.py`` pins both).

On the compiled kernel tier :meth:`PeriodSelector.select` runs the whole
of Algorithms 1-2 in one C call (``hydra_select_periods`` in
:mod:`repro.rta.compiled`), keeping the seed ledger, the Line-8 chain
reuse, the per-window RT workload memo and incumbent certification (its
incumbent starts at the first solved carry-in set, not at the seeds);
the probe pins and durable floors stay python-tier layers.  Task sets
whose operands fail the kernel's guards run the python selector below
(``tests/rta/test_selector_differential.py`` pins the equality).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, UnschedulableError
from repro.model.platform import Platform
from repro.model.tasks import RealTimeTask, SecurityTask
from repro.model.taskset import TaskSet
from repro.core.analysis import (
    DEFAULT_EXACT_ENUMERATION_LIMIT,
    CarryInStrategy,
    RtWorkloadCache,
    SecurityTaskState,
    security_response_time,
)
from repro.rta.compiled import INT31_LIMIT, MAX_COMPILED_SETS
from repro.schedulability.carry_in import count_carry_in_sets

__all__ = [
    "SearchMode",
    "normalise_search_mode",
    "PeriodSelectionResult",
    "PeriodSelector",
    "select_periods",
    "minimum_feasible_period",
]


class SearchMode(str, enum.Enum):
    """How Algorithm 2 scans the candidate period range."""

    BINARY = "binary"
    LINEAR = "linear"


def normalise_search_mode(value) -> SearchMode:
    """Coerce a ``SearchMode`` or its string value, with a one-line error.

    The single validator behind ``ExperimentConfig.search_mode`` and
    ``BatchDesignService(search_mode=...)``, so every surface rejects an
    unknown mode with the same message.
    """
    try:
        return SearchMode(value)
    except ValueError:
        raise ConfigurationError(
            f"unknown search mode {value!r}; expected one of "
            f"{', '.join(mode.value for mode in SearchMode)}"
        )


class _SeedLedger:
    """Durable warm-start bounds for the selector's fixed-point solves.

    One ledger spans one Algorithm 1 run.  It stores, per security-task
    index, the largest fixed point observed per carry-in set (and per the
    greedy bound) among states the *current and every future* state
    dominates in interference.  Three sources qualify:

    * the initial all-maximum-periods pass (weakest interference of all);
    * *feasible* Algorithm 2 probes -- their candidate period is at least
      the finally chosen one, so every later state has pointwise smaller
      periods / larger responses;
    * the line-8 response refresh (exactly the post-selection state).

    Infeasible probes do **not** feed the ledger: their candidate period is
    *below* the chosen one, so later states have weaker interference and
    their fixed points would overshoot.  Within a single Algorithm 2
    search, however, any probe may seed probes of *smaller* candidates;
    that shorter-lived ordering is handled by the per-search probe cache in
    :meth:`PeriodSelector._minimum_feasible_period`, not by the ledger.
    """

    __slots__ = ("_bounds",)

    def __init__(self) -> None:
        self._bounds: Dict[int, Dict] = {}

    def seeds_for(self, index: int) -> Optional[Dict]:
        return self._bounds.get(index)

    def merge(self, index: int, solved: Mapping) -> None:
        """Fold the per-set fixed points of one solve into the bounds."""
        if not solved:
            return
        bounds = self._bounds.setdefault(index, {})
        for key, fixed_point in solved.items():
            if bounds.get(key, 0) < fixed_point:
                bounds[key] = fixed_point


@dataclass(frozen=True)
class PeriodSelectionResult:
    """Outcome of running Algorithm 1 on a task set.

    Attributes
    ----------
    schedulable:
        True if a period assignment within the designer bounds exists.
    periods:
        Selected period ``T*_s`` for every security task (empty when
        unschedulable).
    response_times:
        WCRT of every security task under the selected periods (or under the
        maximum periods, up to the first failing task, when unschedulable).
    unschedulable_task:
        Name of the first security task whose WCRT exceeded its maximum
        period, if any.
    analysis_calls:
        Number of WCRT computations performed -- exposed for the
        binary-vs-linear search ablation benchmark.
    """

    schedulable: bool
    periods: Dict[str, int] = field(default_factory=dict)
    response_times: Dict[str, Optional[int]] = field(default_factory=dict)
    unschedulable_task: Optional[str] = None
    analysis_calls: int = 0

    def apply(self, taskset: TaskSet) -> TaskSet:
        """Return *taskset* with the selected periods assigned.

        Raises :class:`~repro.errors.UnschedulableError` when no feasible
        assignment was found.
        """
        if not self.schedulable:
            raise UnschedulableError(
                "cannot apply periods: the task set is unschedulable "
                f"(first failure: {self.unschedulable_task!r})"
            )
        return taskset.with_security_periods(self.periods)


class PeriodSelector:
    """Stateful implementation of Algorithms 1 and 2.

    The selector pre-groups the partitioned RT tasks by core and keeps the
    security tasks in priority order; :meth:`select` then runs Algorithm 1.
    A fresh selector is cheap to build, so callers normally use the
    module-level :func:`select_periods` convenience function.
    """

    def __init__(
        self,
        taskset: TaskSet,
        rt_allocation: Mapping[str, int],
        platform: Platform,
        strategy: CarryInStrategy = CarryInStrategy.AUTO,
        search_mode: SearchMode = SearchMode.BINARY,
        rta_context=None,
    ) -> None:
        self._taskset = taskset
        self._platform = platform
        self._strategy = strategy
        self._search_mode = search_mode
        self._rta_context = rta_context
        #: The compiled backend running :meth:`select` in one call, or
        #: ``None`` on the python tier.
        self._kernel = getattr(rta_context, "compiled_kernel", None)
        if rta_context is not None and hasattr(rta_context, "prime_blocking"):
            # No-op unless the context carries a lock-using platform model
            # and the task set declares resource claims.
            rta_context.prime_blocking(taskset)
        self._stats = rta_context.stats if rta_context is not None else None
        self._security: List[SecurityTask] = taskset.security_by_priority()
        self._rt_by_core: Dict[int, List[RealTimeTask]] = {
            core.index: [] for core in platform.cores
        }
        for task in taskset.rt_tasks:
            if task.name not in rt_allocation:
                raise KeyError(f"RT task {task.name!r} has no core allocation")
            core_index = rt_allocation[task.name]
            if core_index not in self._rt_by_core:
                raise ValueError(
                    f"RT task {task.name!r} allocated to core {core_index} outside "
                    f"the {platform.num_cores}-core platform"
                )
            self._rt_by_core[core_index].append(task)
        # With a shared kernel context the per-partition RT workload cache
        # is sourced from (and shared through) it; standalone selectors
        # keep their private cache, as before the kernel existed.
        if rta_context is not None:
            self._rt_cache = rta_context.rt_workload_cache(self._rt_by_core)
        else:
            self._rt_cache = RtWorkloadCache(self._rt_by_core)
        self._analysis_calls = 0
        self._ledger = _SeedLedger()
        #: Durable whole-response floors per task index: the latest
        #: Algorithm 1 refresh response, a sound lower bound on every later
        #: solve of that task (see :meth:`_probe_pins`).
        self._task_floors: Dict[int, int] = {}

    # -- compiled tier ----------------------------------------------------------

    def _select_compiled(self) -> Optional[PeriodSelectionResult]:
        """Algorithms 1-2 in one compiled call; ``None`` when an operand
        falls outside the kernel's guards (the python selector then runs).

        Same arithmetic as :meth:`_response_time`: the analysed task's
        demand is ``wcet + B``, higher-priority tasks interfere with their
        raw ``wcet``, and AUTO resolves per task exactly as
        :func:`~repro.rta.migrating.security_response_time` does.
        """
        if not self._rt_cache.compiled_fit():
            return None
        max_carry_in = self._platform.num_cores - 1
        demands: List[int] = []
        set_counts: List[int] = []
        for index, task in enumerate(self._security):
            demand = task.wcet + self._blocking(task)
            if demand >= INT31_LIMIT or task.max_period >= INT31_LIMIT:
                return None
            sets = count_carry_in_sets(index, max_carry_in)
            if self._strategy is CarryInStrategy.GREEDY or (
                self._strategy is CarryInStrategy.AUTO
                and sets > DEFAULT_EXACT_ENUMERATION_LIMIT
            ):
                sets = 0
            elif sets > MAX_COMPILED_SETS:
                return None
            demands.append(demand)
            set_counts.append(sets)
        status, periods, responses, counters = self._kernel.select_periods(
            self._platform.num_cores,
            self._rt_cache.partition_arrays(),
            demands,
            [task.wcet for task in self._security],
            [task.max_period for task in self._security],
            set_counts,
            self._search_mode is SearchMode.LINEAR,
        )
        analysis_calls, solves, seeded, certified = counters
        self._stats.compiled_solves += solves
        self._stats.seeded_solves += seeded
        self._stats.dedup_certified_sets += certified
        names = [task.name for task in self._security]
        if status < len(names):
            reported: Dict[str, Optional[int]] = dict(
                zip(names[:status], responses[:status])
            )
            reported[names[status]] = None
            return PeriodSelectionResult(
                schedulable=False,
                response_times=reported,
                unschedulable_task=names[status],
                analysis_calls=analysis_calls,
            )
        return PeriodSelectionResult(
            schedulable=True,
            periods=dict(zip(names, periods)),
            response_times=dict(zip(names, responses)),
            analysis_calls=analysis_calls,
        )

    # -- low-level response-time plumbing -------------------------------------

    def _blocking(self, task: SecurityTask) -> int:
        """Blocking term ``B`` of *task* under the context's protocol (or 0)."""
        context = self._rta_context
        if context is not None and getattr(context, "has_blocking", False):
            return context.blocking_of(task.name)
        return 0

    def _states_above(
        self,
        index: int,
        periods: Mapping[str, int],
        response_times: Mapping[str, int],
    ) -> List[SecurityTaskState]:
        """Build the higher-priority states for the task at *index*."""
        states: List[SecurityTaskState] = []
        for task in self._security[:index]:
            states.append(
                SecurityTaskState(
                    name=task.name,
                    wcet=task.wcet,
                    period=periods[task.name],
                    response_time=response_times[task.name],
                )
            )
        return states

    def _response_time(
        self,
        index: int,
        periods: Mapping[str, int],
        response_times: Mapping[str, int],
        seeds: Optional[Mapping] = None,
        sink: Optional[Dict] = None,
        uppers: Optional[Mapping] = None,
        floor: Optional[int] = None,
    ) -> Optional[int]:
        """WCRT of the security task at *index* (limit = its ``T^max``).

        ``seeds``/``sink`` carry the warm-start ledger's per-carry-in-set
        fixed-point bounds into and out of the kernel solve (see
        :class:`_SeedLedger`); ``uppers`` carries the matching upper bounds
        from already-probed *smaller* candidates (see :meth:`_probe_uppers`)
        and ``floor`` a whole-response lower bound from larger ones (see
        :meth:`_probe_pins`).
        """
        task = self._security[index]
        self._analysis_calls += 1
        return security_response_time(
            security_wcet=task.wcet,
            limit=task.max_period,
            rt_tasks_by_core=self._rt_by_core,
            higher_security=self._states_above(index, periods, response_times),
            num_cores=self._platform.num_cores,
            strategy=self._strategy,
            rt_cache=self._rt_cache,
            rta_context=self._rta_context,
            set_seeds=seeds,
            set_uppers=uppers,
            seed_sink=sink,
            response_floor=floor,
            blocking=self._blocking(task),
        )

    def _lower_priority_schedulable(
        self,
        index: int,
        periods: Mapping[str, int],
        response_times: Mapping[str, int],
        probe_seeds: Mapping[int, Mapping],
        probe_sink: Dict[int, Dict],
        probe_uppers: Optional[Mapping[int, Mapping]],
        probe_pins: Optional[Mapping[int, int]],
        probe_floors: Optional[Mapping[int, int]],
        probe_responses: Dict[int, int],
    ) -> bool:
        """Check ``R_j <= T^max_j`` for every task below *index*.

        ``periods`` must already contain the candidate period of the task at
        *index*.  Response times of tasks between *index* and *j* are
        recomputed on the fly (they depend on the candidate period), using a
        scratch copy so the caller's bookkeeping is untouched.

        ``probe_seeds``/``probe_sink`` map each lower task index to
        warm-start seed maps (see :meth:`_response_time`); Algorithm 2
        uses them to share fixed points across the probes of one search.
        ``probe_uppers`` maps the same indices to upper-bound maps from
        smaller probed candidates, enabling sandwich pinning in the kernel.
        ``probe_pins`` maps lower task indices to *exact* whole-task
        responses sandwiched by earlier probes of this search (see
        :meth:`_probe_pins`); a pinned task's kernel call is skipped
        outright.  ``probe_floors`` maps them to sound whole-response
        lower bounds from larger probed candidates, priming the kernel's
        certification incumbent.  ``probe_responses`` collects the
        completed per-task responses of this chain (pinned or solved) for
        future pinning.
        """
        scratch: Dict[str, int] = dict(response_times)
        for j in range(index + 1, len(self._security)):
            pinned = probe_pins.get(j) if probe_pins else None
            if pinned is not None:
                if self._stats is not None:
                    self._stats.dedup_pinned_solves += 1
                probe_responses[j] = pinned
                scratch[self._security[j].name] = pinned
                continue
            sink: Dict = {}
            response = self._response_time(
                j,
                periods,
                scratch,
                seeds=probe_seeds.get(j),
                sink=sink,
                uppers=probe_uppers.get(j) if probe_uppers else None,
                floor=probe_floors.get(j) if probe_floors else None,
            )
            probe_sink[j] = sink
            if response is None:
                return False
            probe_responses[j] = response
            scratch[self._security[j].name] = response
        return True

    # -- Algorithm 2 ------------------------------------------------------------

    def _probe_seeds(
        self,
        index: int,
        candidate: int,
        probes: Dict[int, Dict[int, Dict]],
    ) -> Dict[int, Dict]:
        """Merged warm-start seeds for one Algorithm 2 probe.

        Valid seed sources for probing *candidate*: the durable ledger
        (states every probe dominates) plus fixed points from already-probed
        *larger* candidates of this same search -- a larger candidate means
        weaker interference, so its per-set fixed points lower-bound this
        probe's (see :class:`_SeedLedger` for the ordering argument).
        """
        merged: Dict[int, Dict] = {}
        for j in range(index + 1, len(self._security)):
            durable = self._ledger.seeds_for(j)
            merged[j] = dict(durable) if durable else {}
        for probed, chain in probes.items():
            if probed <= candidate:
                continue
            for j, solved in chain.items():
                seeds = merged[j]
                for key, fixed_point in solved.items():
                    if seeds.get(key, 0) < fixed_point:
                        seeds[key] = fixed_point
        return merged

    def _probe_uppers(
        self,
        candidate: int,
        probes: Dict[int, Dict[int, Dict]],
    ) -> Optional[Dict[int, Dict]]:
        """Per-set upper bounds for one Algorithm 2 probe.

        The mirror image of :meth:`_probe_seeds`: fixed points from
        already-probed *smaller* candidates of this search -- a smaller
        candidate means pointwise stronger interference down the whole
        chain, so its per-set fixed points upper-bound this probe's.
        Where a seed and an upper bound agree the kernel pins the set's
        fixed point without iterating (``set_uppers`` in
        :func:`~repro.rta.migrating.security_response_time`).
        """
        merged: Dict[int, Dict] = {}
        for probed, chain in probes.items():
            if probed >= candidate:
                continue
            for j, solved in chain.items():
                uppers = merged.setdefault(j, {})
                for key, fixed_point in solved.items():
                    current = uppers.get(key)
                    if current is None or fixed_point < current:
                        uppers[key] = fixed_point
        return merged or None

    def _probe_pins(
        self,
        candidate: int,
        chain_responses: Dict[int, Dict[int, int]],
    ) -> Tuple[Optional[Dict[int, int]], Optional[Dict[int, int]]]:
        """Whole-task response pins and floors from earlier probes
        (returns ``(pins, floors)``).

        The per-set sandwich argument of :meth:`_probe_seeds` /
        :meth:`_probe_uppers` lifts to whole responses: down the chain of
        one search, ``R_j`` is monotone nonincreasing in the probed
        candidate.  So for each lower task ``j``, any completed response
        from a *larger* probed candidate lower-bounds ``R_j(candidate)``
        and any from a *smaller* one upper-bounds it -- where the tightest
        two agree, ``R_j(candidate)`` is exactly that value and the task's
        kernel call is skipped outright (``dedup_pinned_solves`` counts
        them).  The lower-bound map alone is returned as *floors*: the
        kernel primes its certification incumbent with them (see
        ``response_floor`` in
        :func:`~repro.rta.migrating.security_response_time`).  Only
        completed responses participate (a chain that failed at ``j``
        records nothing for ``j``), so pins can never mask an infeasible
        task: a pinned value was a feasible response at stronger
        interference.
        """
        # Durable floors first: each Algorithm 1 Line-8 refresh response
        # was computed at the strongest state so far, so it lower-bounds
        # every later solve of the same task (later searches only shrink
        # higher-priority periods further).  Search-local probes overlay.
        lower: Dict[int, int] = dict(self._task_floors)
        upper: Dict[int, int] = {}
        for probed, responses in chain_responses.items():
            if probed > candidate:
                for j, response in responses.items():
                    if lower.get(j, -1) < response:
                        lower[j] = response
            else:
                for j, response in responses.items():
                    current = upper.get(j)
                    if current is None or response < current:
                        upper[j] = response
        pins = {
            j: response
            for j, response in lower.items()
            if upper.get(j) == response
        }
        return pins or None, lower or None

    def _minimum_feasible_period(
        self,
        index: int,
        periods: Dict[str, int],
        response_times: Mapping[str, int],
        own_response: int,
    ) -> Tuple[int, Optional[Dict[int, int]]]:
        """Algorithm 2: smallest ``T_s`` in ``[R_s, T^max_s]`` keeping every
        lower-priority security task schedulable.

        ``T^max_s`` is always feasible (guaranteed by Algorithm 1 line 1), so
        the search never fails.  Returns ``(chosen, chain)`` where *chain*
        is the completed per-task response map of the feasible probe at
        *chosen* (``None`` when *chosen* was never probed) -- the probe's
        trial state is identical to the state Algorithm 1's Line 8 refresh
        re-analyses, so the caller can reuse those responses outright.
        """
        task = self._security[index]
        low = own_response
        high = task.max_period
        best = task.max_period
        #: candidate -> per-lower-task per-set fixed points of that probe.
        probes: Dict[int, Dict[int, Dict]] = {}
        #: candidate -> completed whole-task responses of that probe's
        #: chain (the :meth:`_probe_pins` sandwich sources).
        chain_responses: Dict[int, Dict[int, int]] = {}

        def feasible(candidate: int) -> bool:
            trial = dict(periods)
            trial[task.name] = candidate
            sink: Dict[int, Dict] = {}
            responses: Dict[int, int] = {}
            pins, floors = self._probe_pins(candidate, chain_responses)
            verdict = self._lower_priority_schedulable(
                index,
                trial,
                response_times,
                probe_seeds=self._probe_seeds(index, candidate, probes),
                probe_sink=sink,
                probe_uppers=self._probe_uppers(candidate, probes),
                probe_pins=pins,
                probe_floors=floors,
                probe_responses=responses,
            )
            probes[candidate] = sink
            chain_responses[candidate] = responses
            return verdict

        if self._search_mode is SearchMode.LINEAR:
            chosen = best
            for candidate in range(low, high + 1):
                if feasible(candidate):
                    chosen = candidate
                    break
            self._merge_feasible_probes(chosen, probes)
            return chosen, chain_responses.get(chosen)

        while low <= high:
            mid = (low + high) // 2
            if feasible(mid):
                best = mid
                high = mid - 1
            else:
                low = mid + 1
        self._merge_feasible_probes(best, probes)
        return best, chain_responses.get(best)

    def _merge_feasible_probes(
        self,
        chosen: int,
        probes: Dict[int, Dict[int, Dict]],
    ) -> None:
        """Fold probes at candidates >= *chosen* into the durable ledger.

        Only those probes' states are dominated by every later Algorithm 1
        state (the task's period is about to be fixed at *chosen*).
        """
        for candidate, chain in probes.items():
            if candidate < chosen:
                continue
            for j, solved in chain.items():
                self._ledger.merge(j, solved)

    # -- Algorithm 1 ------------------------------------------------------------

    def select(self) -> PeriodSelectionResult:
        """Run Algorithm 1 and return the selected periods."""
        if self._kernel is not None:
            compiled = self._select_compiled()
            if compiled is not None:
                return compiled
        self._analysis_calls = 0
        self._ledger = _SeedLedger()
        self._task_floors = {}
        periods: Dict[str, int] = {
            task.name: task.max_period for task in self._security
        }
        response_times: Dict[str, int] = {}
        reported: Dict[str, Optional[int]] = {}

        # Line 1-4: all tasks at T^max must be schedulable.  This is the
        # weakest-interference state of the whole run, so its per-set fixed
        # points seed every later solve.
        for index, task in enumerate(self._security):
            sink: Dict = {}
            response = self._response_time(
                index, periods, response_times, sink=sink
            )
            reported[task.name] = response
            if response is None:
                return PeriodSelectionResult(
                    schedulable=False,
                    response_times=reported,
                    unschedulable_task=task.name,
                    analysis_calls=self._analysis_calls,
                )
            self._ledger.merge(index, sink)
            self._task_floors[index] = response
            response_times[task.name] = response

        # Lines 5-9: fix periods from highest to lowest priority.
        for index, task in enumerate(self._security):
            chosen, chain = self._minimum_feasible_period(
                index, periods, response_times, own_response=response_times[task.name]
            )
            periods[task.name] = chosen
            # Line 8: refresh the response times of all lower-priority tasks
            # under the newly fixed interference.  The feasible probe at
            # *chosen* already analysed exactly this state (same periods,
            # same scratch progression down the chain), so its completed
            # responses are reused verbatim instead of re-solved; their
            # per-set fixed points entered the ledger via
            # :meth:`_merge_feasible_probes`.
            for j in range(index + 1, len(self._security)):
                lower = self._security[j]
                response = chain.get(j) if chain is not None else None
                if response is not None:
                    if self._stats is not None:
                        self._stats.dedup_refresh_reuses += 1
                else:
                    sink = {}
                    response = self._response_time(
                        j,
                        periods,
                        response_times,
                        seeds=self._ledger.seeds_for(j),
                        sink=sink,
                    )
                    if response is None:  # pragma: no cover - guarded by Algorithm 2
                        raise UnschedulableError(
                            f"internal inconsistency: {lower.name!r} became "
                            "unschedulable after a feasible period was selected"
                        )
                    self._ledger.merge(j, sink)
                self._task_floors[j] = response
                response_times[lower.name] = response
                reported[lower.name] = response

        return PeriodSelectionResult(
            schedulable=True,
            periods=periods,
            response_times=dict(response_times),
            analysis_calls=self._analysis_calls,
        )


def select_periods(
    taskset: TaskSet,
    rt_allocation: Mapping[str, int],
    platform: Platform,
    strategy: CarryInStrategy = CarryInStrategy.AUTO,
    search_mode: SearchMode = SearchMode.BINARY,
    rta_context=None,
) -> PeriodSelectionResult:
    """Run HYDRA-C period adaptation (Algorithm 1) on a task set.

    Parameters
    ----------
    taskset:
        The combined RT + security task set.  Any already-assigned security
        periods are ignored; the algorithm starts from the maximum periods.
    rt_allocation:
        Mapping from RT task name to core index (the legacy partition).
    platform:
        The multicore platform.
    strategy:
        Carry-in exploration strategy for the underlying WCRT analysis.
    search_mode:
        Binary (default, Algorithm 2) or linear period search.
    rta_context:
        Optional shared :class:`repro.rta.RtaContext` of this task set.

    Examples
    --------
    >>> from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet
    >>> taskset = TaskSet.create(
    ...     [RealTimeTask(name="rt", wcet=2, period=10)],
    ...     [SecurityTask(name="ids", wcet=3, max_period=50)],
    ... )
    >>> result = select_periods(taskset, {"rt": 0}, Platform(num_cores=2))
    >>> result.schedulable, result.periods["ids"]
    (True, 3)
    """
    selector = PeriodSelector(
        taskset,
        rt_allocation,
        platform,
        strategy=strategy,
        search_mode=search_mode,
        rta_context=rta_context,
    )
    return selector.select()


def minimum_feasible_period(
    taskset: TaskSet,
    rt_allocation: Mapping[str, int],
    platform: Platform,
    task_name: str,
    strategy: CarryInStrategy = CarryInStrategy.AUTO,
) -> Optional[int]:
    """Algorithm 2 for a single named security task.

    Higher-priority security tasks use their *effective* periods (assigned
    period if present, otherwise the maximum); lower-priority tasks are
    required to remain schedulable at their maximum periods.  Returns the
    minimum feasible period, or ``None`` when the task set is unschedulable
    even with every period at its maximum.
    """
    selector = PeriodSelector(taskset, rt_allocation, platform, strategy=strategy)
    order = selector._security
    names = [task.name for task in order]
    if task_name not in names:
        raise KeyError(f"no security task named {task_name!r}")
    target_index = names.index(task_name)

    periods: Dict[str, int] = {}
    response_times: Dict[str, int] = {}
    for index, task in enumerate(order):
        periods[task.name] = (
            task.effective_period if index < target_index else task.max_period
        )
    for index, task in enumerate(order):
        response = selector._response_time(index, periods, response_times)
        if response is None:
            return None
        response_times[task.name] = response

    chosen, _ = selector._minimum_feasible_period(
        target_index,
        periods,
        response_times,
        own_response=response_times[task_name],
    )
    return chosen
