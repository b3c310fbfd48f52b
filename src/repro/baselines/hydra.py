"""HYDRA: fully partitioned security-task integration (prior work, ref [26]).

HYDRA statically binds each security task to one core and never migrates it
(paper Section 5.1.2).  Its allocation is greedy and best-fit: processing
security tasks from highest to lowest priority, each task is bound to the
core on which it achieves the shortest worst-case response time (i.e. the
highest achievable monitoring frequency) without breaking the tasks already
bound to that core.  Periods are then adapted per core.

The HYDRA-C paper describes HYDRA's period handling only qualitatively
("minimizes the periods of higher priority tasks first without considering
the global state"), so this module implements two interpretations and makes
the choice explicit:

* :attr:`PeriodPolicy.CORE_AWARE` (default) -- after allocation, each core
  runs a per-core analogue of HYDRA-C's Algorithm 1: tasks are visited in
  priority order and each period is minimised subject to every
  lower-priority security task *on the same core* staying schedulable.
  This is the non-degenerate reading consistent with the original HYDRA
  formulation (an optimisation with schedulability constraints) and is what
  the experiments use.
* :attr:`PeriodPolicy.GREEDY_MIN` -- the literal reading: each task's period
  is set to its own response time on the chosen core, ignoring any task that
  might be allocated later.  On lightly loaded cores this drives a core's
  utilization to one and starves every subsequently allocated task; it is
  retained as an ablation (see ``benchmarks/test_bench_ablation.py``) and to
  document why the literal reading cannot be what the original system did.

Acceptance (Fig. 7a) is decided by the allocation phase: a task set is
schedulable under HYDRA iff every security task finds a core where its
response time stays within its maximum period.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.framework import SchedulingPolicy, SystemDesign
from repro.errors import ConfigurationError, UnschedulableError
from repro.model.platform import Platform
from repro.model.tasks import RealTimeTask, SecurityTask
from repro.model.taskset import TaskSet
from repro.partitioning.allocation import Allocation
from repro.partitioning.heuristics import FitStrategy, partition_rt_tasks
from repro.rta import CorePeriodAssigner, RtaContext, SecurityPacker
from repro.rta.compiled import UNSUPPORTED
from repro.schedulability.partitioned import (
    PartitionedAnalysisResult,
    partitioned_rt_schedulable,
    rt_tasks_by_core,
)

__all__ = [
    "Hydra",
    "PeriodPolicy",
    "SecurityAllocation",
    "best_core_for_security_task",
    "build_security_packer",
    "choose_best_fit_core",
    "feasible_cores_for_security_task",
]


class PeriodPolicy(str, enum.Enum):
    """How HYDRA assigns periods after allocating a security task."""

    CORE_AWARE = "core-aware"
    GREEDY_MIN = "greedy-min"
    TMAX = "tmax"


@dataclass(frozen=True)
class SecurityAllocation:
    """Outcome of HYDRA's greedy best-fit security-task allocation phase.

    The allocation is performed at the maximum periods (every non-greedy
    period policy occupies cores at ``T^max`` until the per-core
    minimisation pass), so the result is *identical* for the CORE_AWARE and
    TMAX policies on the same task set and RT partition.  The batch
    evaluation service exploits this by computing the allocation once and
    sharing it between HYDRA and HYDRA-TMax.

    Attributes
    ----------
    mapping:
        Security task name -> core index, for every task allocated before
        the first failure.
    response_times:
        Uniprocessor WCRT observed for each task on its chosen core during
        allocation (``None`` for the failed task).
    failed_task:
        Name of the first security task that fit on no core, or ``None``
        when every task was placed.
    greedy:
        True when the allocation assumed the literal GREEDY_MIN periods;
        such a result must not be shared with non-greedy policies.
    """

    mapping: Dict[str, int] = field(default_factory=dict)
    response_times: Dict[str, Optional[int]] = field(default_factory=dict)
    failed_task: Optional[str] = None
    greedy: bool = False

    @property
    def schedulable(self) -> bool:
        return self.failed_task is None


def build_security_packer(
    rt_by_core: Mapping[int, Sequence[RealTimeTask]],
    security_by_core: Mapping[int, Sequence[Tuple[SecurityTask, int]]],
    num_cores: int,
    rta_context: Optional[RtaContext] = None,
) -> SecurityPacker:
    """A kernel packer reflecting the given per-core occupancy snapshot."""
    context = rta_context if rta_context is not None else RtaContext(num_cores)
    packer = SecurityPacker(context, rt_by_core, num_cores)
    for core_index in range(num_cores):
        for sec, period in security_by_core.get(core_index, ()):
            packer.place(sec, core_index, period)
    return packer


def feasible_cores_for_security_task(
    task: SecurityTask,
    rt_by_core: Mapping[int, Sequence[RealTimeTask]],
    security_by_core: Mapping[int, Sequence[Tuple[SecurityTask, int]]],
    num_cores: int,
) -> List[Tuple[int, int, float]]:
    """Every core on which *task*'s response time stays within ``T^max``.

    This is the single feasibility predicate every allocation policy
    (best-fit here, random-fit in :mod:`repro.schemes.variants`) chooses
    from -- policies differ only in which feasible core they pick, so the
    predicate must not be duplicated per policy.  It is answered by the
    kernel's :class:`~repro.rta.SecurityPacker`; allocation loops keep a
    live packer instead of calling this per-probe snapshot wrapper.

    Parameters
    ----------
    security_by_core:
        Already-bound higher-priority security tasks per core, as
        ``(task, period)`` pairs (the period each is currently assumed to
        run at).

    Returns
    -------
    One ``(core_index, response_time, utilization)`` triple per feasible
    core, in core order; ``utilization`` is the load already bound there
    (RT plus assumed-period security tasks).
    """
    packer = build_security_packer(rt_by_core, security_by_core, num_cores)
    return packer.feasible_cores(task)


def choose_best_fit_core(
    feasible: Sequence[Tuple[int, int, float]],
) -> Optional[Tuple[int, int]]:
    """Best-fit rule over ``(core, response, utilization)`` triples.

    Picks the *fullest* core -- the one with the highest current
    utilization -- keeping the remaining cores' slack available for later,
    possibly larger, tasks.  Ties are broken by the smaller response time,
    then by core index, for determinism.
    """
    best: Optional[Tuple[float, int, int]] = None  # (-util, response, core)
    for core_index, response, utilization in feasible:
        key = (-utilization, response, core_index)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    return best[2], best[1]


def best_core_for_security_task(
    task: SecurityTask,
    rt_by_core: Mapping[int, Sequence[RealTimeTask]],
    security_by_core: Mapping[int, Sequence[Tuple[SecurityTask, int]]],
    num_cores: int,
) -> Optional[Tuple[int, int]]:
    """Best-fit core choice for one security task.

    Returns
    -------
    ``(core_index, response_time)`` for the chosen core, or ``None`` if the
    task's response time exceeds ``T^max`` on every core.
    """
    return choose_best_fit_core(
        feasible_cores_for_security_task(
            task, rt_by_core, security_by_core, num_cores
        )
    )


class Hydra:
    """The HYDRA baseline (fully partitioned security tasks).

    Parameters
    ----------
    platform:
        Target multicore platform.
    rt_partition_strategy:
        Used only when the caller does not supply the legacy RT allocation.
    period_policy:
        Period-assignment interpretation; see :class:`PeriodPolicy`.
    """

    scheme_name = "HYDRA"

    def __init__(
        self,
        platform: Platform,
        rt_partition_strategy: FitStrategy = FitStrategy.BEST_FIT,
        period_policy: PeriodPolicy = PeriodPolicy.CORE_AWARE,
    ) -> None:
        self._platform = platform
        self._rt_partition_strategy = rt_partition_strategy
        self._period_policy = period_policy

    @property
    def platform(self) -> Platform:
        return self._platform

    @property
    def period_policy(self) -> PeriodPolicy:
        return self._period_policy

    # -- main entry point ------------------------------------------------------

    def design(
        self,
        taskset: TaskSet,
        rt_allocation: Optional[Mapping[str, int]] = None,
        *,
        rt_check: Optional[PartitionedAnalysisResult] = None,
        security_allocation: Optional[SecurityAllocation] = None,
        rt_by_core: Optional[Mapping[int, Sequence[RealTimeTask]]] = None,
        rta_context: Optional[RtaContext] = None,
    ) -> SystemDesign:
        """Allocate the security tasks, adapt their periods, build the design.

        ``rt_check``, ``security_allocation`` and ``rt_by_core`` optionally
        supply precomputed phases (the Eq. 1 RT analysis, the greedy
        best-fit allocation and the per-core RT grouping of
        :func:`~repro.schedulability.partitioned.rt_tasks_by_core`) for
        exactly this task set and RT partition, so that callers evaluating
        several HYDRA variants can share them; see
        :class:`SecurityAllocation` for the sharing contract.
        ``rta_context`` is the task set's shared kernel context (one is
        created internally when omitted).
        """
        allocation = self._resolve_rt_allocation(taskset, rt_allocation, rta_context)
        if rt_check is None:
            rt_check = partitioned_rt_schedulable(
                taskset, allocation.mapping, self._platform
            )
        if not rt_check.schedulable:
            raise UnschedulableError(
                "legacy RT tasks are not schedulable under the given partition: "
                f"{rt_check.unschedulable_tasks}"
            )

        if rt_by_core is None:
            rt_by_core = rt_tasks_by_core(
                taskset, allocation.mapping, self._platform
            )
        response_times: Dict[str, Optional[int]] = dict(rt_check.response_times)

        if security_allocation is None:
            security_allocation = self.allocate_security(
                taskset, rt_by_core, rta_context=rta_context
            )
        elif security_allocation.greedy != (
            self._period_policy is PeriodPolicy.GREEDY_MIN
        ):
            raise ConfigurationError(
                "precomputed security allocation was produced under a "
                "different period-policy family (greedy vs non-greedy) and "
                "cannot be reused"
            )
        response_times.update(security_allocation.response_times)

        if security_allocation.failed_task is not None:
            return SystemDesign(
                scheme=self.scheme_name,
                policy=SchedulingPolicy.PARTITIONED,
                taskset=taskset,
                platform=self._platform,
                rt_allocation=allocation,
                security_allocation=Allocation(dict(security_allocation.mapping)),
                schedulable=False,
                response_times=response_times,
                metadata={
                    "unschedulable_task": security_allocation.failed_task,
                    "period_policy": self._period_policy.value,
                },
            )

        periods, final_responses = self._assign_periods(
            taskset, rt_by_core, security_allocation.mapping, rta_context
        )
        response_times.update(final_responses)

        adapted = taskset.with_security_periods(periods)
        return SystemDesign(
            scheme=self.scheme_name,
            policy=SchedulingPolicy.PARTITIONED,
            taskset=adapted,
            platform=self._platform,
            rt_allocation=allocation,
            security_allocation=Allocation(dict(security_allocation.mapping)),
            schedulable=True,
            response_times=response_times,
            metadata={"period_policy": self._period_policy.value},
        )

    def is_schedulable(
        self,
        taskset: TaskSet,
        rt_allocation: Optional[Mapping[str, int]] = None,
    ) -> bool:
        """Acceptance test used by the Fig. 7a experiment."""
        try:
            return self.design(taskset, rt_allocation).schedulable
        except UnschedulableError:
            return False

    # -- allocation phase -----------------------------------------------------------

    def allocate_security(
        self,
        taskset: TaskSet,
        rt_by_core: Mapping[int, Sequence[RealTimeTask]],
        rta_context: Optional[RtaContext] = None,
    ) -> SecurityAllocation:
        """Greedy best-fit allocation at the maximum periods.

        ``rt_by_core`` must group the RT tasks exactly as
        :func:`repro.schedulability.partitioned.rt_tasks_by_core` does (one
        entry per platform core, tasks in priority order).  On the compiled
        kernel tier the whole non-greedy allocation is one call
        (:meth:`_allocate_security_compiled`).  Otherwise -- GREEDY_MIN,
        the python tier, operands outside the kernel's guard -- the
        placement loop keeps one kernel :class:`~repro.rta.SecurityPacker`
        alive, so successive probes against an unchanged core share their
        per-window interference arithmetic.  ``rta_context`` optionally
        supplies the task set's shared kernel context.
        """
        context = (
            rta_context
            if rta_context is not None
            else RtaContext(self._platform.num_cores)
        )
        greedy = self._period_policy is PeriodPolicy.GREEDY_MIN
        if context.compiled_kernel is not None and not greedy:
            allocation = self._allocate_security_compiled(
                taskset, rt_by_core, context
            )
            if allocation is not None:
                return allocation

        packer = SecurityPacker(context, rt_by_core, self._platform.num_cores)
        mapping: Dict[str, int] = {}
        responses: Dict[str, Optional[int]] = {}

        for task in taskset.security_by_priority():
            choice = choose_best_fit_core(packer.feasible_cores(task))
            if choice is None:
                responses[task.name] = None
                return SecurityAllocation(
                    mapping=mapping,
                    response_times=responses,
                    failed_task=task.name,
                    greedy=greedy,
                )
            core_index, response = choice
            mapping[task.name] = core_index
            responses[task.name] = response
            # Under the literal greedy policy the task immediately claims the
            # shortest period it can; otherwise it occupies the core at its
            # maximum period until the per-core minimisation pass.
            assumed_period = response if greedy else task.max_period
            packer.place(task, core_index, assumed_period)

        return SecurityAllocation(
            mapping=mapping, response_times=responses, greedy=greedy
        )

    def _allocate_security_compiled(
        self,
        taskset: TaskSet,
        rt_by_core: Mapping[int, Sequence[RealTimeTask]],
        context: RtaContext,
    ) -> Optional[SecurityAllocation]:
        """The non-greedy placement loop above in one compiled call: the
        same probes, Eq. 1 solves and best-fit choices.  ``None`` when an
        operand falls outside the kernel's guard."""
        rt_offsets, rt_wcets, rt_periods = [0], [], []
        for core_index in range(self._platform.num_cores):
            for task in rt_by_core.get(core_index, ()):
                rt_wcets.append(task.wcet)
                rt_periods.append(task.period)
            rt_offsets.append(len(rt_wcets))
        tasks = taskset.security_by_priority()
        solved = context.compiled_kernel.allocate_security(
            rt_offsets,
            rt_wcets,
            rt_periods,
            [task.wcet + context.blocking_of(task.name) for task in tasks],
            [task.wcet for task in tasks],
            [task.max_period for task in tasks],
        )
        if solved is UNSUPPORTED:
            return None
        status, cores, responses, solves = solved
        context.stats.compiled_solves += solves
        names = [task.name for task in tasks]
        mapping = dict(zip(names, cores))
        response_times: Dict[str, Optional[int]] = dict(zip(names, responses))
        if status < len(tasks):
            response_times[names[status]] = None
            return SecurityAllocation(
                mapping=mapping,
                response_times=response_times,
                failed_task=names[status],
            )
        return SecurityAllocation(mapping=mapping, response_times=response_times)

    # -- period assignment phase -------------------------------------------------------

    def _assign_periods(
        self,
        taskset: TaskSet,
        rt_by_core: Mapping[int, Sequence[RealTimeTask]],
        security_mapping: Mapping[str, int],
        rta_context: Optional[RtaContext] = None,
    ) -> Tuple[Dict[str, int], Dict[str, Optional[int]]]:
        """Assign periods per the configured policy and report final WCRTs.

        On the compiled kernel tier CORE_AWARE and TMAX run every core in
        one call (:meth:`_assign_periods_compiled`); GREEDY_MIN, and
        operands outside the kernel's guards, run the per-core assigners.
        """
        context = (
            rta_context
            if rta_context is not None
            else RtaContext(self._platform.num_cores)
        )
        by_priority = taskset.security_by_priority()
        cores = [
            (
                rt_by_core.get(core_index, ()),
                [
                    task
                    for task in by_priority
                    if security_mapping.get(task.name) == core_index
                ],
            )
            for core_index in range(self._platform.num_cores)
        ]
        if (
            context.compiled_kernel is not None
            and self._period_policy is not PeriodPolicy.GREEDY_MIN
        ):
            assigned = self._assign_periods_compiled(context, cores)
            if assigned is not None:
                return assigned

        periods: Dict[str, int] = {}
        responses: Dict[str, Optional[int]] = {}
        for rt_tasks, core_tasks in cores:
            if not core_tasks:
                continue
            assigner = CorePeriodAssigner(context, rt_tasks)
            core_periods, core_responses = self._assign_periods_on_core(
                core_tasks, assigner
            )
            periods.update(core_periods)
            responses.update(core_responses)

        return periods, responses

    def _assign_periods_compiled(
        self,
        context: RtaContext,
        cores: Sequence[Tuple[Sequence[RealTimeTask], Sequence[SecurityTask]]],
    ) -> Optional[Tuple[Dict[str, int], Dict[str, Optional[int]]]]:
        """CORE_AWARE/TMAX for every core in one compiled call: the same
        Eq. 1 solves, in the same order, as :meth:`_assign_periods_on_core`.
        ``None`` when an operand falls outside the kernel's guards."""
        solved = context.compiled_kernel.partitioned_periods(
            [
                (
                    [(task.wcet, task.period) for task in rt_tasks],
                    [(task.wcet, task.max_period) for task in core_tasks],
                )
                for rt_tasks, core_tasks in cores
            ],
            core_aware=self._period_policy is PeriodPolicy.CORE_AWARE,
        )
        if solved is UNSUPPORTED:
            return None
        periods, responses, solves = solved
        context.stats.compiled_solves += solves
        names = [task.name for _rt, core_tasks in cores for task in core_tasks]
        return dict(zip(names, periods)), dict(zip(names, responses))

    def _assign_periods_on_core(
        self,
        core_tasks: Sequence[SecurityTask],
        assigner: CorePeriodAssigner,
    ) -> Tuple[Dict[str, int], Dict[str, Optional[int]]]:
        """Period assignment for the security tasks bound to a single core."""
        periods: Dict[str, int] = {task.name: task.max_period for task in core_tasks}

        if self._period_policy is PeriodPolicy.TMAX:
            pass  # keep maxima
        elif self._period_policy is PeriodPolicy.GREEDY_MIN:
            for position, task in enumerate(core_tasks):
                response = assigner.response_time(
                    task.wcet,
                    task.max_period,
                    [
                        (hp.wcet, periods[hp.name])
                        for hp in core_tasks[:position]
                    ],
                )
                periods[task.name] = (
                    response if response is not None else task.max_period
                )
        else:  # CORE_AWARE
            for position, task in enumerate(core_tasks):
                periods[task.name] = self._core_aware_minimum_period(
                    position, core_tasks, periods, assigner
                )

        responses = self._core_response_times(core_tasks, periods, assigner)
        return periods, responses

    def _core_aware_minimum_period(
        self,
        position: int,
        core_tasks: Sequence[SecurityTask],
        periods: Mapping[str, int],
        assigner: CorePeriodAssigner,
    ) -> int:
        """Smallest period for ``core_tasks[position]`` keeping the core's
        lower-priority security tasks schedulable (per-core Algorithm 2,
        binary search over ``[R_s, T^max_s]``)."""
        task = core_tasks[position]
        own_response = assigner.response_time(
            task.wcet,
            task.max_period,
            [(hp.wcet, periods[hp.name]) for hp in core_tasks[:position]],
        )
        if own_response is None:  # pragma: no cover - allocation guarantees feasibility
            return task.max_period
        if position + 1 == len(core_tasks):
            # No lower-priority tasks to protect: every candidate down to
            # the task's own response time is feasible, which is where the
            # binary search below would converge.
            return own_response

        def lower_priority_ok(candidate: int) -> bool:
            trial = dict(periods)
            trial[task.name] = candidate
            for lower_position in range(position + 1, len(core_tasks)):
                lower = core_tasks[lower_position]
                response = assigner.response_time(
                    lower.wcet,
                    lower.max_period,
                    [
                        (hp.wcet, trial[hp.name])
                        for hp in core_tasks[:lower_position]
                    ],
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
        return best

    def _core_response_times(
        self,
        core_tasks: Sequence[SecurityTask],
        periods: Mapping[str, int],
        assigner: CorePeriodAssigner,
    ) -> Dict[str, Optional[int]]:
        responses: Dict[str, Optional[int]] = {}
        for position, task in enumerate(core_tasks):
            responses[task.name] = assigner.response_time(
                task.wcet,
                task.max_period,
                [(hp.wcet, periods[hp.name]) for hp in core_tasks[:position]],
            )
        return responses

    # -- helpers ------------------------------------------------------------------------

    def _resolve_rt_allocation(
        self,
        taskset: TaskSet,
        rt_allocation: Optional[Mapping[str, int]],
        rta_context: Optional[RtaContext] = None,
    ) -> Allocation:
        if rt_allocation is not None:
            return Allocation(dict(rt_allocation))
        return partition_rt_tasks(
            taskset,
            self._platform,
            strategy=self._rt_partition_strategy,
            rta_context=rta_context,
        )
