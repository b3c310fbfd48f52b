"""GLOBAL-TMax: global fixed-priority scheduling without period adaptation.

In this baseline (paper Section 5.2.3) *every* task -- the legacy RT tasks
included -- may run on any core under a global fixed-priority scheduler, and
every security task runs at its maximum period.  The scheme exists to show
the cost of binding RT tasks to cores for legacy compatibility: HYDRA-C
keeps the RT tasks partitioned yet achieves a better acceptance ratio,
because partitioning removes the carry-in pessimism the global analysis must
assume for RT tasks.

The analysis runs on the RTA kernel's global engine
(:class:`repro.rta.GlobalRtaEngine`): inline Eq. 2/Eq. 4 workload terms
and the kernel's greedy Lemma 2 carry-in selection -- on the compiled
kernel tier the whole analysis is one C call per task set -- frozen-equal
to :func:`repro.schedulability.global_rta.global_taskset_schedulable`,
which stays as the oracle (pinned in ``tests/rta/`` on both tiers).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.core.framework import SchedulingPolicy, SystemDesign
from repro.model.platform import Platform
from repro.model.taskset import TaskSet
from repro.rta import RtaContext

__all__ = ["GlobalTMax"]


class GlobalTMax:
    """The GLOBAL-TMax baseline."""

    scheme_name = "GLOBAL-TMax"

    def __init__(self, platform: Platform) -> None:
        self._platform = platform

    @property
    def platform(self) -> Platform:
        return self._platform

    def design(
        self,
        taskset: TaskSet,
        rt_allocation: Optional[Mapping[str, int]] = None,
        *,
        rta_context: Optional[RtaContext] = None,
    ) -> SystemDesign:
        """Analyse the task set under global scheduling at maximum periods.

        ``rt_allocation`` is accepted (and ignored) so that all schemes share
        a uniform ``design(taskset, rt_allocation)`` call signature in the
        experiment harness; under global scheduling no task is bound to a
        core.  ``rta_context`` is the task set's shared kernel context (one
        is created internally when omitted).
        """
        context = (
            rta_context
            if rta_context is not None
            else RtaContext(self._platform.num_cores)
        )
        pinned = taskset.with_security_at_max_period()
        analysis = context.global_engine().taskset_schedulable(pinned)
        metadata: Dict[str, object] = {}
        if not analysis.schedulable:
            metadata["unschedulable_task"] = analysis.first_failure
        return SystemDesign(
            scheme=self.scheme_name,
            policy=SchedulingPolicy.GLOBAL,
            taskset=pinned,
            platform=self._platform,
            rt_allocation=None,
            security_allocation=None,
            schedulable=analysis.schedulable,
            response_times=dict(analysis.response_times),
            metadata=metadata,
        )

    def is_schedulable(
        self,
        taskset: TaskSet,
        rt_allocation: Optional[Mapping[str, int]] = None,
    ) -> bool:
        """Acceptance test used by the Fig. 7a experiment."""
        return self.design(taskset, rt_allocation).schedulable
