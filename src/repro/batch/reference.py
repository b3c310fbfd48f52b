"""The seed (pre-batch) evaluation path, frozen for benchmarking and oracles.

This module preserves, verbatim in behaviour, the per-scheme sweep path the
repository shipped with before the batched service existed:

* the response-time analysis inner loop *without* the per-window
  interference memo (every fixed-point iteration recomputes the clamped
  Eq. 2-5 terms, one small-array NumPy pass per carry-in set per window);
* the cold Algorithm 1-2 loop on top of it: binary search, every Eq. 8
  carry-in set solved from ``C_s``, no warm seeds, pins, certification or
  Line-8 reuse -- its own loop, sharing no code with the live
  :class:`~repro.core.period_selection.PeriodSelector`;
* the per-task-set orchestration that runs the four schemes independently,
  re-deriving the Eq. 1 RT analysis and the greedy security allocation for
  each scheme that needs them;
* the pre-kernel packing paths (frozen when the :mod:`repro.rta` kernel
  took over the live layers): RT bin packing whose fit predicate re-runs
  the full per-core analysis on every probe
  (:func:`reference_partition_rt_tasks`), the HYDRA greedy best-fit
  security allocation that rebuilds the higher-priority view list per
  probe, and the GLOBAL-TMax design on the frozen
  :mod:`repro.schedulability.global_rta` analysis.

It exists for two reasons:

1. **Benchmarking** -- ``benchmarks/test_bench_batch_service.py`` asserts
   the batched service beats this path by >= 2x on the Fig. 7a workload.
   Benchmarks against "the seed" need the seed's compute profile to stay
   available after the hot path was optimised.
2. **Cross-validation** -- the optimised analysis is an exact refactor, so
   its results must be *identical* to this frozen implementation on every
   input; ``tests/batch`` pins that equivalence over seeded batches.

Do not "fix" or optimise this module; it is intentionally slow.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.batch.results import SCHEME_NAMES, TasksetEvaluation
from repro.core.analysis import (
    DEFAULT_EXACT_ENUMERATION_LIMIT,
    CarryInStrategy,
    SecurityTaskState,
)
from repro.core.framework import SchedulingPolicy, SystemDesign
from repro.core.period_selection import PeriodSelectionResult
from repro.errors import AllocationError, UnschedulableError
from repro.generation.taskset_generator import (
    TasksetGenerationConfig,
    TasksetGenerator,
)
from repro.model.platform import Platform
from repro.model.tasks import RealTimeTask, SecurityTask
from repro.model.taskset import TaskSet
from repro.partitioning.allocation import Allocation
from repro.schedulability.carry_in import (
    count_carry_in_sets,
    enumerate_carry_in_sets,
)
from repro.schedulability.global_rta import global_taskset_schedulable
from repro.schedulability.partitioned import (
    partitioned_rt_schedulable,
    rt_tasks_by_core,
)
from repro.schedulability.uniprocessor import (
    UniprocessorTask,
    core_is_schedulable,
    uniprocessor_response_time,
)

__all__ = [
    "reference_security_response_time",
    "reference_select_periods",
    "reference_design_hydra_c",
    "reference_partition_rt_tasks",
    "reference_design_hydra",
    "reference_design_global_tmax",
    "reference_evaluate_one",
]


class _SeedRtWorkloadCache:
    """The seed's per-core RT workload cache (array memo, no scalar memo)."""

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

    def per_core_workloads(self, window: int) -> np.ndarray:
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
        cap = window - security_wcet + 1
        if cap <= 0:
            return 0
        workloads = self.per_core_workloads(window)
        return int(np.minimum(workloads, cap).sum())


class _SeedSecurityInterference:
    """The seed's per-iteration interference terms (Eq. 4-5), unmemoised."""

    def __init__(self, states: Sequence[SecurityTaskState]) -> None:
        self._wcets = np.asarray([s.wcet for s in states], dtype=np.int64)
        self._periods = np.asarray([s.period for s in states], dtype=np.int64)
        responses = np.asarray([s.response_time for s in states], dtype=np.int64)
        self._shifts = self._wcets - 1 + self._periods - responses

    def _workload_nc(self, windows: np.ndarray) -> np.ndarray:
        return (windows // self._periods) * self._wcets + np.minimum(
            windows % self._periods, self._wcets
        )

    def terms(self, window: int, security_wcet: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._wcets.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        cap = max(window - security_wcet + 1, 0)
        window_vec = np.full_like(self._wcets, window)
        nc = self._workload_nc(window_vec)
        shifted = np.maximum(window_vec - self._shifts, 0)
        ci = self._workload_nc(shifted) + np.minimum(window_vec, self._wcets - 1)
        return np.minimum(nc, cap), np.minimum(ci, cap)

    def greedy_total(self, window: int, security_wcet: int, max_carry_in: int) -> int:
        nc, ci = self.terms(window, security_wcet)
        if nc.size == 0:
            return 0
        total = int(nc.sum())
        if max_carry_in <= 0:
            return total
        deltas = ci - nc
        positive = deltas[deltas > 0]
        if positive.size == 0:
            return total
        if positive.size <= max_carry_in:
            return total + int(positive.sum())
        top = np.partition(positive, positive.size - max_carry_in)[
            positive.size - max_carry_in :
        ]
        return total + int(top.sum())

    def total_for_set(
        self, window: int, security_wcet: int, carry_in_indices: Tuple[int, ...]
    ) -> int:
        nc, ci = self.terms(window, security_wcet)
        if nc.size == 0:
            return 0
        total = int(nc.sum())
        for index in carry_in_indices:
            total += int(ci[index] - nc[index])
        return total


def _seed_solve_fixed_point(
    security_wcet: int,
    limit: int,
    num_cores: int,
    rt_cache: _SeedRtWorkloadCache,
    omega_security,
) -> Optional[int]:
    window = security_wcet
    while True:
        omega = rt_cache.interference(window, security_wcet) + omega_security(window)
        candidate = omega // num_cores + security_wcet
        if candidate == window:
            return window
        if candidate > limit:
            return None
        window = candidate


def reference_security_response_time(
    security_wcet: int,
    limit: int,
    rt_tasks_by_core: Mapping[int, Sequence[RealTimeTask]],
    higher_security: Sequence[SecurityTaskState],
    num_cores: int,
    strategy: CarryInStrategy = CarryInStrategy.AUTO,
    exact_enumeration_limit: int = DEFAULT_EXACT_ENUMERATION_LIMIT,
    rt_cache: Optional[_SeedRtWorkloadCache] = None,
) -> Optional[int]:
    """The seed's :func:`repro.core.analysis.security_response_time`."""
    if security_wcet <= 0:
        raise ValueError("security_wcet must be positive")
    if limit <= 0:
        raise ValueError("limit must be positive")
    if num_cores <= 0:
        raise ValueError("num_cores must be positive")
    if security_wcet > limit:
        return None
    if rt_cache is None:
        rt_cache = _SeedRtWorkloadCache(rt_tasks_by_core)

    interference = _SeedSecurityInterference(higher_security)
    max_carry_in = num_cores - 1

    if strategy is CarryInStrategy.AUTO:
        sets = count_carry_in_sets(len(higher_security), max_carry_in)
        strategy = (
            CarryInStrategy.EXACT
            if sets <= exact_enumeration_limit
            else CarryInStrategy.GREEDY
        )

    if strategy is CarryInStrategy.GREEDY:
        return _seed_solve_fixed_point(
            security_wcet,
            limit,
            num_cores,
            rt_cache,
            lambda window: interference.greedy_total(
                window, security_wcet, max_carry_in
            ),
        )

    worst: int = 0
    for carry_in_indices in enumerate_carry_in_sets(
        len(higher_security), max_carry_in
    ):
        response = _seed_solve_fixed_point(
            security_wcet,
            limit,
            num_cores,
            rt_cache,
            lambda window, chosen=carry_in_indices: interference.total_for_set(
                window, security_wcet, chosen
            ),
        )
        if response is None:
            return None
        worst = max(worst, response)
    return worst


def reference_select_periods(
    taskset: TaskSet,
    rt_allocation: Mapping[str, int],
    platform: Platform,
    strategy: CarryInStrategy = CarryInStrategy.AUTO,
) -> PeriodSelectionResult:
    """HYDRA-C period adaptation (Algorithms 1-2) through the frozen seed
    analysis: the cold binary-search loop, one full solve per analysis."""
    rt_by_core = rt_tasks_by_core(taskset, rt_allocation, platform)
    rt_cache = _SeedRtWorkloadCache(rt_by_core)
    security = taskset.security_by_priority()
    analysis_calls = 0

    def response_time(
        index: int,
        periods: Mapping[str, int],
        response_times: Mapping[str, int],
    ) -> Optional[int]:
        nonlocal analysis_calls
        analysis_calls += 1
        task = security[index]
        return reference_security_response_time(
            security_wcet=task.wcet,
            limit=task.max_period,
            rt_tasks_by_core=rt_by_core,
            higher_security=[
                SecurityTaskState(
                    name=hp.name,
                    wcet=hp.wcet,
                    period=periods[hp.name],
                    response_time=response_times[hp.name],
                )
                for hp in security[:index]
            ],
            num_cores=platform.num_cores,
            strategy=strategy,
            rt_cache=rt_cache,
        )

    periods: Dict[str, int] = {task.name: task.max_period for task in security}
    response_times: Dict[str, int] = {}
    # Lines 1-4: every task must be schedulable at its maximum period.
    for index, task in enumerate(security):
        response = response_time(index, periods, response_times)
        if response is None:
            return PeriodSelectionResult(
                schedulable=False,
                response_times={**response_times, task.name: None},
                unschedulable_task=task.name,
                analysis_calls=analysis_calls,
            )
        response_times[task.name] = response

    # Lines 5-9: Algorithm 2 per task, then the Line-8 refresh.
    for index, task in enumerate(security):

        def lower_priority_ok(candidate: int) -> bool:
            trial = dict(periods)
            trial[task.name] = candidate
            scratch = dict(response_times)
            for j in range(index + 1, len(security)):
                response = response_time(j, trial, scratch)
                if response is None:
                    return False
                scratch[security[j].name] = response
            return True

        low, high = response_times[task.name], task.max_period
        best = task.max_period
        while low <= high:
            mid = (low + high) // 2
            if lower_priority_ok(mid):
                best = mid
                high = mid - 1
            else:
                low = mid + 1
        periods[task.name] = best
        for j in range(index + 1, len(security)):
            response = response_time(j, periods, response_times)
            if response is None:  # pragma: no cover - guarded by Algorithm 2
                raise UnschedulableError(
                    f"internal inconsistency: {security[j].name!r} became "
                    "unschedulable after a feasible period was selected"
                )
            response_times[security[j].name] = response

    return PeriodSelectionResult(
        schedulable=True,
        periods=periods,
        response_times=dict(response_times),
        analysis_calls=analysis_calls,
    )


def reference_design_hydra_c(
    platform: Platform,
    taskset: TaskSet,
    rt_allocation: Mapping[str, int],
) -> SystemDesign:
    """The seed ``HydraC.design`` path (frozen analysis, no shared caches)."""
    rt_check = partitioned_rt_schedulable(taskset, rt_allocation, platform)
    if not rt_check.schedulable:
        raise UnschedulableError(
            "legacy RT tasks are not schedulable under the given partition: "
            f"{rt_check.unschedulable_tasks}"
        )
    selection = reference_select_periods(taskset, rt_allocation, platform)
    response_times: Dict[str, Optional[int]] = dict(rt_check.response_times)
    response_times.update(selection.response_times)

    if not selection.schedulable:
        return SystemDesign(
            scheme="HYDRA-C",
            policy=SchedulingPolicy.SEMI_PARTITIONED,
            taskset=taskset,
            platform=platform,
            schedulable=False,
            response_times=response_times,
            metadata={
                "unschedulable_task": selection.unschedulable_task,
                "analysis_calls": selection.analysis_calls,
            },
        )
    return SystemDesign(
        scheme="HYDRA-C",
        policy=SchedulingPolicy.SEMI_PARTITIONED,
        taskset=selection.apply(taskset),
        platform=platform,
        schedulable=True,
        response_times=response_times,
        metadata={"analysis_calls": selection.analysis_calls},
    )


# ---------------------------------------------------------------------------
# Frozen pre-kernel packing and baseline paths
# ---------------------------------------------------------------------------
#
# These are verbatim behavioural copies of the live layers as they stood
# before the repro.rta kernel took them over: every "does it fit?" probe
# re-runs the full per-core analysis, every allocation probe rebuilds the
# higher-priority view list, nothing is shared between schemes.  They are
# the compute profile the kernel benchmarks gate against and the oracle the
# differential suites compare with.


def _reference_rt_view(task: RealTimeTask) -> UniprocessorTask:
    return UniprocessorTask(
        name=task.name, wcet=task.wcet, period=task.period, deadline=task.deadline
    )


def _reference_security_view(task: SecurityTask, period: int) -> UniprocessorTask:
    return UniprocessorTask(
        name=task.name, wcet=task.wcet, period=period, deadline=period
    )


def _reference_fits_on_core(
    candidate: RealTimeTask, existing: Sequence[RealTimeTask]
) -> bool:
    """The seed fit predicate: full per-core Eq. 1 re-analysis per probe."""
    combined = sorted(
        list(existing) + [candidate], key=lambda t: (t.priority, t.name)
    )
    return core_is_schedulable([_reference_rt_view(task) for task in combined])


def reference_partition_rt_tasks(
    taskset: TaskSet, platform: Platform
) -> Allocation:
    """The seed best-fit RT partitioner (pre-kernel, probe = full re-check)."""
    if not taskset.rt_tasks:
        return Allocation.empty()

    order = sorted(taskset.rt_tasks, key=lambda t: (-t.utilization, t.name))
    per_core: Dict[int, List[RealTimeTask]] = {
        core.index: [] for core in platform.cores
    }
    utilizations = [0.0] * platform.num_cores
    mapping: Dict[str, int] = {}

    for task in order:
        feasible = [
            core_index
            for core_index in range(platform.num_cores)
            if _reference_fits_on_core(task, per_core[core_index])
        ]
        if not feasible:
            raise AllocationError(
                f"RT task {task.name!r} (U={task.utilization:.3f}) does not fit "
                f"on any of the {platform.num_cores} cores under best-fit packing"
            )
        chosen = max(feasible, key=lambda core: (utilizations[core], -core))
        per_core[chosen].append(task)
        utilizations[chosen] += task.utilization
        mapping[task.name] = chosen

    return Allocation(mapping)


def _reference_feasible_cores(
    task: SecurityTask,
    rt_by_core: Mapping[int, Sequence[RealTimeTask]],
    security_by_core: Mapping[int, Sequence[Tuple[SecurityTask, int]]],
    num_cores: int,
) -> List[Tuple[int, int, float]]:
    """The seed feasibility predicate (view lists rebuilt per probe)."""
    feasible: List[Tuple[int, int, float]] = []
    for core_index in range(num_cores):
        rt_views = [_reference_rt_view(rt) for rt in rt_by_core.get(core_index, ())]
        security_views = [
            _reference_security_view(sec, period)
            for sec, period in security_by_core.get(core_index, ())
        ]
        higher = rt_views + security_views
        response = uniprocessor_response_time(
            task.wcet, higher, limit=task.max_period
        )
        if response is None:
            continue
        utilization = sum(view.utilization for view in higher)
        feasible.append((core_index, response, utilization))
    return feasible


def _reference_allocate_security(
    platform: Platform,
    taskset: TaskSet,
    rt_by_core: Mapping[int, Sequence[RealTimeTask]],
) -> Tuple[Dict[str, int], Optional[str]]:
    """The seed greedy best-fit allocation at the maximum periods."""
    security_by_core: Dict[int, List[Tuple[SecurityTask, int]]] = {
        core.index: [] for core in platform.cores
    }
    mapping: Dict[str, int] = {}
    for task in taskset.security_by_priority():
        best: Optional[Tuple[float, int, int]] = None  # (-util, response, core)
        for core_index, response, utilization in _reference_feasible_cores(
            task, rt_by_core, security_by_core, platform.num_cores
        ):
            key = (-utilization, response, core_index)
            if best is None or key < best:
                best = key
        if best is None:
            return mapping, task.name
        core_index = best[2]
        mapping[task.name] = core_index
        security_by_core[core_index].append((task, task.max_period))
    return mapping, None


def _reference_core_aware_periods(
    core_tasks: Sequence[SecurityTask],
    rt_views: Sequence[UniprocessorTask],
) -> Dict[str, int]:
    """The seed per-core period minimisation (HYDRA's CORE_AWARE policy)."""
    periods: Dict[str, int] = {task.name: task.max_period for task in core_tasks}

    for position, task in enumerate(core_tasks):
        higher = list(rt_views) + [
            _reference_security_view(hp, periods[hp.name])
            for hp in core_tasks[:position]
        ]
        own_response = uniprocessor_response_time(
            task.wcet, higher, limit=task.max_period
        )
        if own_response is None:  # pragma: no cover - allocation guarantees fit
            continue

        def lower_priority_ok(candidate: int) -> bool:
            trial = dict(periods)
            trial[task.name] = candidate
            for lower_position in range(position + 1, len(core_tasks)):
                lower = core_tasks[lower_position]
                interference = list(rt_views) + [
                    _reference_security_view(hp, trial[hp.name])
                    for hp in core_tasks[:lower_position]
                ]
                response = uniprocessor_response_time(
                    lower.wcet, interference, limit=lower.max_period
                )
                if response is None:
                    return False
            return True

        low, high, best = own_response, task.max_period, task.max_period
        while low <= high:
            mid = (low + high) // 2
            if lower_priority_ok(mid):
                best = mid
                high = mid - 1
            else:
                low = mid + 1
        periods[task.name] = best

    return periods


def reference_design_hydra(
    platform: Platform,
    taskset: TaskSet,
    rt_allocation: Mapping[str, int],
    pin_periods_to_max: bool = False,
) -> SystemDesign:
    """The seed HYDRA design path (``pin_periods_to_max`` -> HYDRA-TMax)."""
    scheme = "HYDRA-TMax" if pin_periods_to_max else "HYDRA"
    rt_check = partitioned_rt_schedulable(taskset, rt_allocation, platform)
    if not rt_check.schedulable:
        raise UnschedulableError(
            "legacy RT tasks are not schedulable under the given partition: "
            f"{rt_check.unschedulable_tasks}"
        )
    rt_by_core = rt_tasks_by_core(taskset, rt_allocation, platform)
    mapping, failed_task = _reference_allocate_security(
        platform, taskset, rt_by_core
    )
    if failed_task is not None:
        return SystemDesign(
            scheme=scheme,
            policy=SchedulingPolicy.PARTITIONED,
            taskset=taskset,
            platform=platform,
            schedulable=False,
            metadata={"unschedulable_task": failed_task},
        )

    periods: Dict[str, int] = {}
    for core_index in range(platform.num_cores):
        core_tasks = [
            task
            for task in taskset.security_by_priority()
            if mapping.get(task.name) == core_index
        ]
        if not core_tasks:
            continue
        if pin_periods_to_max:
            periods.update(
                {task.name: task.max_period for task in core_tasks}
            )
        else:
            rt_views = [
                _reference_rt_view(rt) for rt in rt_by_core.get(core_index, ())
            ]
            periods.update(_reference_core_aware_periods(core_tasks, rt_views))

    return SystemDesign(
        scheme=scheme,
        policy=SchedulingPolicy.PARTITIONED,
        taskset=taskset.with_security_periods(periods),
        platform=platform,
        schedulable=True,
    )


def reference_design_global_tmax(
    platform: Platform, taskset: TaskSet
) -> SystemDesign:
    """The seed GLOBAL-TMax design path (frozen global analysis)."""
    pinned = taskset.with_security_at_max_period()
    analysis = global_taskset_schedulable(pinned, platform)
    return SystemDesign(
        scheme="GLOBAL-TMax",
        policy=SchedulingPolicy.GLOBAL,
        taskset=pinned,
        platform=platform,
        schedulable=analysis.schedulable,
        response_times=dict(analysis.response_times),
    )


def reference_evaluate_one(
    num_cores: int,
    group_index: int,
    normalized_range: Tuple[float, float],
    seed: int,
    max_generation_attempts: int = 50,
    scheme_names: Optional[Sequence[str]] = None,
) -> Optional[TasksetEvaluation]:
    """The seed sweep's per-slot evaluation: independent scheme runs.

    ``scheme_names`` restricts the evaluated columns (default: the paper's
    four); only the canonical schemes have frozen seed paths.
    """
    platform = Platform(num_cores=num_cores)
    generator = TasksetGenerator(
        TasksetGenerationConfig(num_cores=num_cores), seed=seed
    )
    rng = np.random.default_rng(seed)

    taskset: Optional[TaskSet] = None
    rt_allocation = None
    for _attempt in range(max_generation_attempts):
        normalized = float(rng.uniform(*normalized_range))
        candidate = generator.generate_normalized(normalized)
        try:
            rt_allocation = reference_partition_rt_tasks(candidate, platform)
        except AllocationError:
            continue
        taskset = candidate
        break
    if taskset is None or rt_allocation is None:
        return None

    def design_for(name: str) -> SystemDesign:
        if name == "HYDRA-C":
            return reference_design_hydra_c(platform, taskset, rt_allocation.mapping)
        if name == "GLOBAL-TMax":
            return reference_design_global_tmax(platform, taskset)
        if name in ("HYDRA", "HYDRA-TMax"):
            return reference_design_hydra(
                platform,
                taskset,
                rt_allocation.mapping,
                pin_periods_to_max=(name == "HYDRA-TMax"),
            )
        raise KeyError(f"no frozen seed path for scheme {name!r}")

    selected = tuple(scheme_names) if scheme_names is not None else SCHEME_NAMES
    schedulable: Dict[str, bool] = {}
    periods: Dict[str, Optional[Dict[str, int]]] = {}
    for name in selected:
        try:
            design = design_for(name)
        except UnschedulableError:
            schedulable[name] = False
            periods[name] = None
            continue
        schedulable[name] = design.schedulable
        if design.schedulable:
            periods[name] = {
                task: period
                for task, period in design.security_periods().items()
                if period is not None
            }
        else:
            periods[name] = None

    return TasksetEvaluation(
        group_index=group_index,
        normalized_utilization=taskset.normalized_utilization(num_cores),
        num_rt_tasks=taskset.num_rt_tasks,
        num_security_tasks=taskset.num_security_tasks,
        max_periods=taskset.security_max_period_vector(),
        schedulable=schedulable,
        periods=periods,
    )
