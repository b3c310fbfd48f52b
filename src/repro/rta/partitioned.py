"""Kernel whole-partition Eq. 1 check (frozen-equal, context-backed).

The batch service's ``eq1_rt_check`` phase verifies the legacy RT
partition once per task set.  This kernel version produces the same
:class:`~repro.schedulability.partitioned.PartitionedAnalysisResult` as
the frozen :func:`repro.schedulability.partitioned.partitioned_rt_schedulable`
(same exact fixed point, same grouping and ordering), but runs through the
shared :class:`~repro.rta.context.RtaContext` core states, so its
arithmetic is shared with the packing layers analysing the same task set.

Exact response times are always materialised here -- the result's
``response_times`` feed :class:`~repro.core.framework.SystemDesign`
reports -- so the accept-only shortcuts do not apply to this phase.  On
the compiled kernel tier they usually exist already: the one-call RT
partitioner records every task's final Eq. 1 response on the context
(:meth:`~repro.rta.context.RtaContext.record_rt_responses`), and the check
reads them when it is asked about that very task set and an equal
partition.  Any other task set or partition -- a caller-supplied one, an
earlier regeneration candidate, the python tier, a guard fallback -- is
solved here.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.model.platform import Platform
from repro.model.taskset import TaskSet
from repro.rta.context import RtaContext, rt_task_view
from repro.schedulability.partitioned import (
    PartitionedAnalysisResult,
    rt_tasks_by_core,
)

__all__ = ["partitioned_rt_check"]


def partitioned_rt_check(
    taskset: TaskSet,
    allocation: Mapping[str, int],
    platform: Platform,
    rta_context: Optional[RtaContext] = None,
) -> PartitionedAnalysisResult:
    """Check Eq. 1 for every RT task under the given partition.

    Frozen-equal to
    :func:`repro.schedulability.partitioned.partitioned_rt_schedulable`
    (the differential suites pin the equality); the kernel variant exists
    so the batch service can run the phase through the task set's shared
    context, and read the responses the compiled partitioner recorded
    there.  ``response_times`` lists the tasks in (core, priority) order.
    """
    context = rta_context if rta_context is not None else RtaContext(platform)
    context.prime_blocking(taskset)
    groups = rt_tasks_by_core(taskset, allocation, platform)
    admitted = context.rt_responses(taskset, allocation)
    if admitted is not None:
        return PartitionedAnalysisResult(
            schedulable=True,
            response_times={
                task.name: admitted[task.name]
                for tasks in groups.values()
                for task in tasks
            },
            unschedulable_tasks=(),
        )
    response_times: Dict[str, Optional[int]] = {}
    for _core_index, tasks in groups.items():
        state = context.core_state()
        for task in tasks:
            view = rt_task_view(task)
            admission = state.admit(view, need_response=True)
            response_times[task.name] = admission.response
            if admission.admitted:
                state = admission.state
            else:
                # Keep analysing the remaining tasks on this core exactly
                # as the frozen reference does: the failed task still
                # interferes with lower-priority tasks.
                state = context.core_state(state.tasks + (view,))
    failed = tuple(
        sorted(name for name, response in response_times.items() if response is None)
    )
    return PartitionedAnalysisResult(
        schedulable=not failed,
        response_times=response_times,
        unschedulable_tasks=failed,
    )
