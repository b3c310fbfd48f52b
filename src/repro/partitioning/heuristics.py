"""Bin-packing heuristics for partitioning RT tasks onto cores.

The paper's synthetic evaluation allocates RT tasks with a *best-fit*
strategy (Table 3) and only keeps task sets whose RT tasks pass Eq. 1 on
every core.  We therefore drive the heuristics with the exact uniprocessor
response-time analysis as the "does the task fit on this core?" predicate
(a pure utilization cap would accept partitions that later fail Eq. 1).

Three classic strategies are provided:

* ``FIRST_FIT``  -- place the task on the lowest-indexed core where it fits;
* ``BEST_FIT``   -- place it on the *fullest* core (highest utilization)
  where it still fits, keeping slack concentrated on the remaining cores;
* ``WORST_FIT``  -- place it on the *emptiest* core where it fits,
  balancing load across cores.

Tasks are considered in decreasing-utilization order (the usual "-decreasing"
variants), which both improves packing and makes the outcome deterministic.

The fit predicate runs on the RTA kernel (:mod:`repro.rta`).  On the
compiled kernel tier the whole packing of a task set is one C call
(``hydra_partition_rt``): each probe inserts the candidate at its priority
position and solves it and every task below it with the exact Eq. 1 fixed
point.  On the python tier each core is an incremental
:class:`~repro.rta.CoreState`, a probe re-analyses only the candidate and
the tasks below its priority position, and the accept-only Liu & Layland
/ Bini-bound shortcuts skip the exact fixed point where they already
prove admissibility (flip-free, so both tiers reach the same verdicts).
Placement decisions are identical to the frozen full-re-analysis
predicate (:func:`repro.batch.reference.reference_partition_rt_tasks`
pins this in ``tests/rta/`` and ``tests/partitioning/``).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AllocationError, ConfigurationError
from repro.model.platform import Platform
from repro.model.tasks import RealTimeTask
from repro.model.taskset import TaskSet
from repro.partitioning.allocation import Allocation
from repro.rta import Admission, CoreState, RtaContext, rt_task_view
from repro.rta.compiled import UNSUPPORTED

__all__ = [
    "FitStrategy",
    "normalise_fit_strategy",
    "partition_rt_tasks",
    "partition_utilizations",
]


class FitStrategy(str, enum.Enum):
    """Which core to prefer among those a task fits on."""

    FIRST_FIT = "first-fit"
    BEST_FIT = "best-fit"
    WORST_FIT = "worst-fit"


#: ``hydra_partition_rt``'s strategy codes.
_STRATEGY_CODES = {
    FitStrategy.FIRST_FIT: 0,
    FitStrategy.BEST_FIT: 1,
    FitStrategy.WORST_FIT: 2,
}


def normalise_fit_strategy(value) -> FitStrategy:
    """Coerce a ``FitStrategy`` or its string value, with a one-line error.

    Every packing entry point validates its strategy with this before the
    first probe (mirrors :func:`repro.core.period_selection.normalise_search_mode`).
    """
    try:
        return FitStrategy(value)
    except ValueError:
        raise ConfigurationError(
            f"unknown fit strategy {value!r}; expected one of "
            f"{', '.join(strategy.value for strategy in FitStrategy)}"
        )


def _choose_core(
    feasible: List[int], utilizations: List[float], strategy: FitStrategy
) -> int:
    """Pick one core index from *feasible* according to *strategy*."""
    if strategy is FitStrategy.FIRST_FIT:
        return feasible[0]
    if strategy is FitStrategy.BEST_FIT:
        return max(feasible, key=lambda core: (utilizations[core], -core))
    return min(feasible, key=lambda core: (utilizations[core], core))


def _unplaceable(
    task: RealTimeTask, num_cores: int, strategy: FitStrategy
) -> AllocationError:
    return AllocationError(
        f"RT task {task.name!r} (U={task.utilization:.3f}) does not fit "
        f"on any of the {num_cores} cores under {strategy.value} packing"
    )


def _partition_compiled(
    taskset: TaskSet,
    order: List[RealTimeTask],
    num_cores: int,
    strategy: FitStrategy,
    context: RtaContext,
):
    """The packing loop below in one ``hydra_partition_rt`` call, or
    UNSUPPORTED when an operand falls outside the kernel's guard.

    Tasks are indexed in ``(priority, name)`` order, the core-local
    priority of :func:`~repro.rta.rt_task_view`; the analysed task's
    demand is ``wcet + B`` and the tasks above interfere with their raw
    ``wcet``, as in :meth:`~repro.rta.core_state.CoreState._solve`.  The
    final Eq. 1 responses are recorded on *context* for
    :func:`~repro.rta.partitioned.partitioned_rt_check`.
    """
    tasks = sorted(taskset.rt_tasks, key=lambda t: (t.priority, t.name))
    index_of = {task.name: index for index, task in enumerate(tasks)}
    solved = context.compiled_kernel.partition_rt(
        num_cores,
        [task.wcet for task in tasks],
        [task.period for task in tasks],
        [task.deadline for task in tasks],
        [task.wcet + context.blocking_of(task.name) for task in tasks],
        [task.utilization for task in tasks],
        [index_of[task.name] for task in order],
        _STRATEGY_CODES[strategy],
    )
    if solved is UNSUPPORTED:
        return UNSUPPORTED
    status, cores, responses, solves = solved
    context.stats.compiled_solves += solves
    if status < len(order):
        raise _unplaceable(order[status], num_cores, strategy)
    allocation = Allocation(
        {task.name: cores[index_of[task.name]] for task in order}
    )
    context.record_rt_responses(
        taskset,
        allocation.mapping,
        {task.name: response for task, response in zip(tasks, responses)},
    )
    return allocation


def partition_rt_tasks(
    taskset: TaskSet,
    platform: Platform,
    strategy: FitStrategy = FitStrategy.BEST_FIT,
    rta_context: Optional[RtaContext] = None,
) -> Allocation:
    """Partition the RT tasks of *taskset* onto the platform's cores.

    Tasks are placed in decreasing-utilization order; a placement is only
    admissible if the exact response-time analysis still passes for every
    task already on the core (and for the newcomer) -- answered
    incrementally by the kernel :class:`~repro.rta.CoreState` per core,
    or by one ``hydra_partition_rt`` call on the compiled kernel tier.
    ``rta_context`` optionally supplies the task set's shared kernel
    context (the batch service threads one through all phases).
    ``strategy`` may be a :class:`FitStrategy` or its string value.

    Raises
    ------
    AllocationError
        If some task cannot be placed on any core.  In the paper's
        experiments such task sets are discarded as "trivially
        unschedulable" (Section 5.2.1).
    ConfigurationError
        If ``strategy`` names no :class:`FitStrategy` (before any probe).
    """
    strategy = normalise_fit_strategy(strategy)
    if not taskset.rt_tasks:
        return Allocation.empty()

    context = rta_context if rta_context is not None else RtaContext(platform)
    context.prime_blocking(taskset)
    order = sorted(
        taskset.rt_tasks, key=lambda t: (-t.utilization, t.name)
    )
    if context.compiled_kernel is not None:
        allocation = _partition_compiled(
            taskset, order, platform.num_cores, strategy, context
        )
        if allocation is not UNSUPPORTED:
            return allocation
    states: List[CoreState] = [
        context.core_state() for _ in range(platform.num_cores)
    ]
    utilizations = [0.0] * platform.num_cores
    mapping: Dict[str, int] = {}

    for task in order:
        view = rt_task_view(task)
        admissions: List[Admission] = [
            states[core_index].admit(view)
            for core_index in range(platform.num_cores)
        ]
        feasible = [
            core_index
            for core_index, admission in enumerate(admissions)
            if admission.admitted
        ]
        if not feasible:
            raise _unplaceable(task, platform.num_cores, strategy)
        chosen = _choose_core(feasible, utilizations, strategy)
        states[chosen] = admissions[chosen].state
        utilizations[chosen] += task.utilization
        mapping[task.name] = chosen

    return Allocation(mapping)


def partition_utilizations(
    items: Sequence[Tuple[str, float]],
    num_bins: int,
    capacity: float = 1.0,
    strategy: FitStrategy = FitStrategy.BEST_FIT,
) -> Dict[str, int]:
    """Generic utilization-only bin packing.

    A lighter-weight helper (no response-time analysis) used by tests, by
    quick feasibility screens and by extensions that partition abstract
    load.  ``items`` is a sequence of ``(name, utilization)`` pairs.

    Raises
    ------
    AllocationError
        If an item does not fit in any bin.
    """
    strategy = normalise_fit_strategy(strategy)
    if num_bins <= 0:
        raise ValueError("num_bins must be positive")
    if capacity <= 0:
        raise ValueError("capacity must be positive")

    loads = [0.0] * num_bins
    assignment: Dict[str, int] = {}
    for name, utilization in sorted(items, key=lambda pair: (-pair[1], pair[0])):
        if utilization < 0:
            raise ValueError(f"utilization of {name!r} must be non-negative")
        feasible = [
            index
            for index in range(num_bins)
            if loads[index] + utilization <= capacity + 1e-12
        ]
        if not feasible:
            raise AllocationError(
                f"item {name!r} (U={utilization:.3f}) does not fit in any bin"
            )
        chosen = _choose_core(feasible, loads, strategy)
        loads[chosen] += utilization
        assignment[name] = chosen
    return assignment
