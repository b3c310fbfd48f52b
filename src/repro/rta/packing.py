"""Incremental per-core feasibility for the security-allocation phase.

HYDRA-family schemes place security tasks one by one; every placement
decision probes *every* core ("what would this task's response time be
here?").  The frozen path rebuilds the core's full higher-priority view
list per probe; a :class:`SecurityPacker` instead keeps one
:class:`~repro.rta.core_state.CoreState` per core and answers each probe
with :meth:`CoreState.probe_response` -- the candidate is solved at the
bottom of the priority order against the state's per-window demand memo,
which is shared across every probe until the core's contents change.

All allocation *policies* (best-fit, random-fit, ...) choose from the same
:meth:`SecurityPacker.feasible_cores` predicate inside HYDRA's one
placement loop (:meth:`~repro.baselines.hydra.Hydra._pack`); policies
differ only in which feasible core they pick.  The returned
``(core_index, response_time, utilization)`` triples match the frozen
predicate bit for bit, including the left-to-right float utilization
accumulation that downstream tie-breaks compare.

On the compiled kernel tier HYDRA's best-fit allocation and its period
phase each run in one C call per task set
(:meth:`~repro.baselines.hydra.Hydra.allocate_security`,
:meth:`~repro.baselines.hydra.Hydra._assign_periods`), so both classes
here are the python tier of those phases.  :class:`SecurityPacker` also
serves HYDRA-RF's random-fit allocation on both tiers, and HYDRA's when an
operand falls outside the kernel's guard; its probes are always the python
Eq. 1 fixed point of :meth:`CoreState.probe_response`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.model.tasks import RealTimeTask, SecurityTask
from repro.rta.context import RtaContext, rt_task_view
from repro.rta.core_state import CoreState, TaskView

__all__ = ["CorePeriodAssigner", "SecurityPacker", "security_task_view"]


def security_task_view(task: SecurityTask, period: int) -> TaskView:
    """Kernel view of a security task occupying a core at *period*."""
    return TaskView(
        name=task.name,
        wcet=task.wcet,
        period=period,
        deadline=period,
        key=(task.priority, task.name),
    )


class CorePeriodAssigner:
    """Eq. 1 solver for one core's security-period assignment phase.

    The HYDRA per-core period minimisation binary-searches candidate
    periods, re-solving every lower-priority security task per candidate.
    The higher-priority interference splits into a *fixed* RT part (the
    core's partition never changes during the search) and a few
    *varying* security terms (the trial periods).  The RT part is served
    from the core state's per-window demand memo, shared across the whole
    search; the security terms -- at most a handful -- are iterated
    directly.  The fixed-point iterates are identical to the frozen
    :func:`repro.schedulability.uniprocessor.uniprocessor_response_time`.

    This is the pure-python tier of the phase: on the compiled tier
    :class:`~repro.baselines.hydra.Hydra` runs every core in one call
    (:meth:`~repro.rta.compiled.CompiledKernel.partitioned_periods`), so
    only guard fallbacks reach this class there.
    """

    def __init__(self, context: RtaContext, rt_tasks: Sequence[RealTimeTask]) -> None:
        self._state = context.core_state(
            rt_task_view(task) for task in rt_tasks
        )

    def response_time(
        self,
        wcet: int,
        limit: int,
        higher_security: Sequence[Tuple[int, int]],
    ) -> Optional[int]:
        """Exact WCRT under the core's RT tasks plus ``(wcet, period)`` pairs."""
        if wcet > limit:
            return None
        rt_demand = self._state.demand
        response = wcet
        while True:
            total = wcet + rt_demand(response)
            for hp_wcet, hp_period in higher_security:
                total += -(-response // hp_period) * hp_wcet
            if total == response:
                return response
            if total > limit:
                return None
            response = total


class SecurityPacker:
    """Per-core incremental packing state over a fixed RT partition.

    Parameters
    ----------
    context:
        The task set's shared :class:`~repro.rta.context.RtaContext`.
    rt_tasks_by_core:
        The legacy RT partition, grouped per core in priority order (as
        :func:`repro.schedulability.partitioned.rt_tasks_by_core` builds
        it).  Missing cores are treated as empty.
    num_cores:
        Platform size; cores are probed in index order.
    """

    def __init__(
        self,
        context: RtaContext,
        rt_tasks_by_core: Mapping[int, Sequence[RealTimeTask]],
        num_cores: int,
    ) -> None:
        self._context = context
        self._num_cores = num_cores
        self._states: Dict[int, CoreState] = {
            core: context.core_state(
                rt_task_view(task) for task in rt_tasks_by_core.get(core, ())
            )
            for core in range(num_cores)
        }

    def state(self, core_index: int) -> CoreState:
        return self._states[core_index]

    def feasible_cores(self, task: SecurityTask) -> List[Tuple[int, int, float]]:
        """Every core where *task*'s WCRT stays within its maximum period.

        One ``(core_index, response_time, utilization)`` triple per
        feasible core, in core order; ``utilization`` is the load already
        bound there (RT plus assumed-period security tasks).
        """
        feasible: List[Tuple[int, int, float]] = []
        for core_index in range(self._num_cores):
            state = self._states[core_index]
            response = state.probe_response(
                security_task_view(task, task.max_period), task.max_period
            )
            if response is None:
                continue
            feasible.append((core_index, response, state.utilization))
        return feasible

    def place(self, task: SecurityTask, core_index: int, assumed_period: int) -> None:
        """Bind *task* to *core_index*, occupying it at *assumed_period*.

        The placed task is the lowest-priority task on the core (security
        tasks are allocated in priority order below every RT task), so no
        re-analysis of the existing tasks is needed; the core's state and
        utilization accumulator advance incrementally.
        """
        state = self._states[core_index]
        view = security_task_view(task, assumed_period)
        self._states[core_index] = CoreState(
            self._context,
            state.tasks + (view,),
            utilization=state.utilization + view.utilization,
            # Conservative: packed states are only ever probed from below,
            # so the whole-core LL shortcut (which these flags gate) is
            # simply disabled rather than tracked through placements.
            rm_consistent=False,
            implicit_deadlines=False,
        )
