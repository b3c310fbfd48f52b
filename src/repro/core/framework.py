"""The HYDRA-C design-time facade.

:class:`HydraC` is the entry point a system designer uses: hand it the
legacy RT tasks (optionally with their existing core assignment) plus the
security tasks to integrate, and it returns a :class:`SystemDesign` -- the
complete, analysed configuration that the runtime simulator
(:mod:`repro.sim`) and the security evaluation (:mod:`repro.security`) can
execute.  The baselines in :mod:`repro.baselines` produce the same
:class:`SystemDesign` type so that every downstream consumer (simulation,
metrics, experiments) is scheme-agnostic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.errors import UnschedulableError
from repro.model.platform import Platform
from repro.model.taskset import TaskSet
from repro.partitioning.allocation import Allocation
from repro.partitioning.heuristics import FitStrategy, partition_rt_tasks
from repro.rta import RtaContext
from repro.schedulability.partitioned import (
    PartitionedAnalysisResult,
    partitioned_rt_schedulable,
)
from repro.core.analysis import CarryInStrategy
from repro.core.period_selection import (
    PeriodSelectionResult,
    SearchMode,
    select_periods,
)

__all__ = ["SchedulingPolicy", "SystemDesign", "HydraC"]


class SchedulingPolicy(str, enum.Enum):
    """How security tasks are scheduled at runtime.

    * ``SEMI_PARTITIONED`` -- RT tasks partitioned, security tasks migrate
      (HYDRA-C).
    * ``PARTITIONED`` -- both RT and security tasks statically partitioned
      (HYDRA, HYDRA-TMax).
    * ``GLOBAL`` -- every task may run on any core (GLOBAL-TMax).
    """

    SEMI_PARTITIONED = "semi-partitioned"
    PARTITIONED = "partitioned"
    GLOBAL = "global"


@dataclass(frozen=True)
class SystemDesign:
    """A fully analysed system configuration, ready to simulate.

    Attributes
    ----------
    scheme:
        Human-readable scheme name (``"HYDRA-C"``, ``"HYDRA"``, ...).
    policy:
        Runtime scheduling policy for the security tasks.
    taskset:
        The task set with security periods assigned (when schedulable).
    platform:
        The multicore platform.
    rt_allocation:
        RT task partition (``None`` only for the fully global policy).
    security_allocation:
        Security task partition; ``None`` when security tasks migrate.
    schedulable:
        Whether the scheme admitted the task set.
    response_times:
        Per-task WCRT bounds produced by the scheme's analysis (security
        tasks always; RT tasks when the scheme computes them).
    metadata:
        Free-form diagnostics (analysis call counts, allocation notes, ...).
    """

    scheme: str
    policy: SchedulingPolicy
    taskset: TaskSet
    platform: Platform
    rt_allocation: Optional[Allocation] = None
    security_allocation: Optional[Allocation] = None
    schedulable: bool = True
    response_times: Dict[str, Optional[int]] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    def security_periods(self) -> Dict[str, Optional[int]]:
        """Mapping security-task name -> assigned period."""
        return self.taskset.security_period_vector()

    def require_schedulable(self) -> "SystemDesign":
        """Return self, or raise if the design is not schedulable."""
        if not self.schedulable:
            raise UnschedulableError(
                f"{self.scheme} could not schedule the task set "
                f"(metadata: {self.metadata})"
            )
        return self


class HydraC:
    """Design-time integration of security tasks via HYDRA-C.

    Parameters
    ----------
    platform:
        The target multicore platform.
    carry_in_strategy:
        Carry-in exploration strategy for the WCRT analysis (Eq. 8).
    rt_partition_strategy:
        Heuristic used to partition RT tasks when the caller does not supply
        a legacy allocation.
    search_mode:
        Binary (Algorithm 2) or linear period search.

    Examples
    --------
    >>> from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet
    >>> taskset = TaskSet.create(
    ...     [RealTimeTask(name="nav", wcet=240, period=500),
    ...      RealTimeTask(name="camera", wcet=1120, period=5000)],
    ...     [SecurityTask(name="tripwire", wcet=5342, max_period=10000),
    ...      SecurityTask(name="kmod-check", wcet=223, max_period=10000)],
    ... )
    >>> design = HydraC(Platform.dual_core()).design(taskset)
    >>> design.schedulable
    True
    """

    def __init__(
        self,
        platform: Platform,
        carry_in_strategy: CarryInStrategy = CarryInStrategy.AUTO,
        rt_partition_strategy: FitStrategy = FitStrategy.BEST_FIT,
        search_mode: SearchMode = SearchMode.BINARY,
    ) -> None:
        self._platform = platform
        self._carry_in_strategy = carry_in_strategy
        self._rt_partition_strategy = rt_partition_strategy
        self._search_mode = search_mode

    @property
    def platform(self) -> Platform:
        return self._platform

    # -- main entry point ----------------------------------------------------------

    def design(
        self,
        taskset: TaskSet,
        rt_allocation: Optional[Mapping[str, int]] = None,
        *,
        rt_check: Optional[PartitionedAnalysisResult] = None,
        rta_context=None,
    ) -> SystemDesign:
        """Integrate the security tasks of *taskset* and return the design.

        The legacy RT allocation is honoured when supplied; otherwise the RT
        tasks are partitioned with the configured heuristic.  The RT
        partition must pass Eq. 1 (the paper assumes the legacy system is
        schedulable); a violation raises
        :class:`~repro.errors.UnschedulableError` because it indicates a
        broken legacy configuration rather than a failed integration.

        ``rt_check`` optionally supplies a precomputed Eq. 1 analysis for
        exactly this task set and allocation; callers that evaluate the same
        task set under several schemes (:class:`repro.batch.BatchDesignService`)
        pass it to avoid repeating the per-core RT response-time analysis.
        ``rta_context`` is the task set's shared :class:`repro.rta.RtaContext`
        (one on the default kernel tier is created internally when
        omitted, and serves both the RT partitioning and the period
        selection).

        The returned design has ``schedulable=False`` (and no assigned
        periods) when the security tasks cannot meet their maximum periods.
        """
        if rta_context is None:
            rta_context = RtaContext(self._platform)
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

        selection = select_periods(
            taskset,
            allocation.mapping,
            self._platform,
            strategy=self._carry_in_strategy,
            search_mode=self._search_mode,
            rta_context=rta_context,
        )
        response_times: Dict[str, Optional[int]] = dict(rt_check.response_times)
        response_times.update(selection.response_times)

        if not selection.schedulable:
            return SystemDesign(
                scheme="HYDRA-C",
                policy=SchedulingPolicy.SEMI_PARTITIONED,
                taskset=taskset,
                platform=self._platform,
                rt_allocation=allocation,
                security_allocation=None,
                schedulable=False,
                response_times=response_times,
                metadata={
                    "unschedulable_task": selection.unschedulable_task,
                    "analysis_calls": selection.analysis_calls,
                },
            )

        adapted = selection.apply(taskset)
        return SystemDesign(
            scheme="HYDRA-C",
            policy=SchedulingPolicy.SEMI_PARTITIONED,
            taskset=adapted,
            platform=self._platform,
            rt_allocation=allocation,
            security_allocation=None,
            schedulable=True,
            response_times=response_times,
            metadata={"analysis_calls": selection.analysis_calls},
        )

    def is_schedulable(
        self,
        taskset: TaskSet,
        rt_allocation: Optional[Mapping[str, int]] = None,
    ) -> bool:
        """Acceptance test (Fig. 7a): can the security tasks be integrated?"""
        try:
            return self.design(taskset, rt_allocation).schedulable
        except UnschedulableError:
            return False

    # -- helpers --------------------------------------------------------------------

    def _resolve_rt_allocation(
        self,
        taskset: TaskSet,
        rt_allocation: Optional[Mapping[str, int]],
        rta_context=None,
    ) -> Allocation:
        if rt_allocation is not None:
            return Allocation(dict(rt_allocation))
        return partition_rt_tasks(
            taskset,
            self._platform,
            strategy=self._rt_partition_strategy,
            rta_context=rta_context,
        )
