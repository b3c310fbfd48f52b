"""Worst-case response-time analysis for migrating security tasks.

The Eq. 6-8 engine itself now lives in the unified RTA kernel
(:mod:`repro.rta.migrating`); this module keeps the historical public API
-- every name importable here before the kernel existed still is -- plus
the whole-task-set conveniences that sit naturally above the engine.

See :mod:`repro.rta` for the kernel's layout and
:class:`repro.rta.RtaContext` for how consumers of one task set share
their workload arithmetic.  Passing ``rta_context`` to the helpers below
routes their RT workload caches through that shared context; omitting it
preserves the historical per-call behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.model.platform import Platform
from repro.model.tasks import RealTimeTask
from repro.model.taskset import TaskSet
from repro.rta.migrating import (
    DEFAULT_EXACT_ENUMERATION_LIMIT,
    CarryInStrategy,
    RtWorkloadCache,
    SecurityTaskState,
    _OmegaMemo,  # noqa: F401  (historical import path for tests/tools)
    security_response_time,
)
from repro.schedulability.workload import interference_bound, periodic_workload

__all__ = [
    "CarryInStrategy",
    "RtWorkloadCache",
    "SecurityTaskState",
    "rt_interference",
    "security_response_time",
    "analyze_security_tasks",
    "hydra_c_taskset_schedulable",
    "DEFAULT_EXACT_ENUMERATION_LIMIT",
]


def rt_interference(
    rt_tasks_by_core: Mapping[int, Sequence[RealTimeTask]],
    window: int,
    security_wcet: int,
) -> int:
    """Total interference from partitioned RT tasks in a window (Eq. 3 summed).

    For each core the workloads of the RT tasks bound to it are summed
    (synchronous release, Eq. 2) and the per-core total is clamped to
    ``window - security_wcet + 1``; the clamped per-core terms are then
    summed over all cores (first summand of Eq. 6).
    """
    total = 0
    for _core, tasks in rt_tasks_by_core.items():
        core_workload = sum(
            periodic_workload(task.wcet, task.period, window) for task in tasks
        )
        total += interference_bound(core_workload, window, security_wcet)
    return total


# ---------------------------------------------------------------------------
# Whole-task-set helpers
# ---------------------------------------------------------------------------


def _group_rt_tasks(
    taskset: TaskSet, rt_allocation: Mapping[str, int], platform: Platform
) -> Dict[int, List[RealTimeTask]]:
    groups: Dict[int, List[RealTimeTask]] = {
        core.index: [] for core in platform.cores
    }
    for task in taskset.rt_tasks:
        if task.name not in rt_allocation:
            raise KeyError(f"RT task {task.name!r} has no core allocation")
        core_index = rt_allocation[task.name]
        if core_index not in groups:
            raise ValueError(
                f"RT task {task.name!r} allocated to core {core_index} outside "
                f"the {platform.num_cores}-core platform"
            )
        groups[core_index].append(task)
    return groups


def analyze_security_tasks(
    taskset: TaskSet,
    rt_allocation: Mapping[str, int],
    platform: Platform,
    periods: Optional[Mapping[str, int]] = None,
    strategy: CarryInStrategy = CarryInStrategy.AUTO,
    rta_context=None,
) -> Dict[str, Optional[int]]:
    """Compute the WCRT of every security task, in priority order.

    ``periods`` optionally overrides the period used for each security task
    (by name); tasks not mentioned use their effective period (assigned
    period if present, else ``T^max``).  The analysis proceeds from the
    highest-priority security task downwards so that the response times
    needed by the carry-in bound are always available.

    The returned mapping contains an entry for every security task; a value
    of ``None`` means the task's response time exceeds its maximum period
    (i.e. it is unschedulable even at the lowest admissible monitoring
    frequency).  Once a task fails, lower-priority tasks are still analysed
    -- treating the failed task's response time as its maximum period --
    so that callers get a complete (if pessimistic) picture.
    """
    rt_by_core = _group_rt_tasks(taskset, rt_allocation, platform)
    if rta_context is not None:
        if hasattr(rta_context, "prime_blocking"):
            rta_context.prime_blocking(taskset)
        rt_cache = rta_context.rt_workload_cache(rt_by_core)
    else:
        rt_cache = RtWorkloadCache(rt_by_core)
    overrides = dict(periods or {})
    results: Dict[str, Optional[int]] = {}
    states: List[SecurityTaskState] = []

    for task in taskset.security_by_priority():
        period = overrides.get(task.name, task.effective_period)
        blocking = (
            rta_context.blocking_of(task.name)
            if rta_context is not None
            and getattr(rta_context, "has_blocking", False)
            else 0
        )
        response = security_response_time(
            security_wcet=task.wcet,
            limit=task.max_period,
            rt_tasks_by_core=rt_by_core,
            higher_security=states,
            num_cores=platform.num_cores,
            strategy=strategy,
            rt_cache=rt_cache,
            blocking=blocking,
        )
        results[task.name] = response
        effective_response = response if response is not None else task.max_period
        states.append(
            SecurityTaskState(
                name=task.name,
                wcet=task.wcet,
                period=period,
                response_time=effective_response,
            )
        )
    return results


def hydra_c_taskset_schedulable(
    taskset: TaskSet,
    rt_allocation: Mapping[str, int],
    platform: Platform,
    strategy: CarryInStrategy = CarryInStrategy.AUTO,
    rta_context=None,
) -> bool:
    """True if every security task meets ``R_s <= T^max_s`` under HYDRA-C.

    This is the acceptance test used for Fig. 7a: the security periods are
    pinned to their maxima (the least demanding configuration); if even that
    fails, no period adaptation can help (Algorithm 1, lines 1-4).
    """
    at_max = taskset.with_security_at_max_period()
    responses = analyze_security_tasks(
        at_max, rt_allocation, platform, strategy=strategy, rta_context=rta_context
    )
    return all(response is not None for response in responses.values())
