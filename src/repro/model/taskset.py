"""Task-set container combining RT and security tasks.

A :class:`TaskSet` is the unit every analysis, allocation and simulation
function operates on.  It is immutable: period selection and other
transformations return *new* task sets (see :meth:`TaskSet.with_security_periods`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.model.priority import (
    RT_PRIORITY_BAND,
    assign_rate_monotonic_priorities,
    assign_security_priorities_by_index,
    sort_by_priority,
)
from repro.model.tasks import RealTimeTask, SecurityTask, Task

__all__ = ["TaskSet"]


@dataclass(frozen=True)
class TaskSet:
    """An immutable collection of RT tasks and security tasks.

    Use :meth:`TaskSet.create` for the common case (auto-assign priorities).
    The raw constructor requires every task to already carry a priority and
    enforces the paper's structural invariants:

    * task names are unique across both populations;
    * every priority is assigned and distinct within its population;
    * every RT task has higher priority than every security task.
    """

    rt_tasks: Tuple[RealTimeTask, ...] = field(default_factory=tuple)
    security_tasks: Tuple[SecurityTask, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rt_tasks", tuple(self.rt_tasks))
        object.__setattr__(self, "security_tasks", tuple(self.security_tasks))
        self._validate()

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        rt_tasks: Sequence[RealTimeTask],
        security_tasks: Sequence[SecurityTask] = (),
    ) -> "TaskSet":
        """Build a task set, assigning default priorities where missing.

        RT tasks get rate-monotonic priorities; security tasks get priorities
        in listed order, all numerically above the RT band so that every RT
        task outranks every security task.
        Already-assigned priorities are *not* preserved -- ``create`` always
        re-derives a consistent assignment.  Use the raw constructor when you
        need full control.
        """
        rt = assign_rate_monotonic_priorities(list(rt_tasks))
        sec = assign_security_priorities_by_index(list(security_tasks))
        return cls(rt_tasks=tuple(rt), security_tasks=tuple(sec))

    @classmethod
    def _trusted(
        cls,
        rt_tasks: Tuple[RealTimeTask, ...],
        security_tasks: Tuple[SecurityTask, ...],
    ) -> "TaskSet":
        """A task set built without :meth:`_validate`, for transformations
        of a valid task set that keep every name and priority."""
        taskset = object.__new__(cls)
        state = taskset.__dict__
        state["rt_tasks"] = rt_tasks
        state["security_tasks"] = security_tasks
        return taskset

    def _validate(self) -> None:
        seen = set()
        duplicates = set()
        for task in self.all_tasks:
            if task.name in seen:
                duplicates.add(task.name)
            seen.add(task.name)
        if duplicates:
            raise ValueError(f"duplicate task names: {sorted(duplicates)}")

        for task in self.all_tasks:
            if task.priority is None:
                raise ValueError(
                    f"task {task.name!r} has no priority; build task sets via "
                    "TaskSet.create() or assign priorities explicitly"
                )

        rt_priorities = [task.priority for task in self.rt_tasks]
        sec_priorities = [task.priority for task in self.security_tasks]
        if len(set(rt_priorities)) != len(rt_priorities):
            raise ValueError("RT task priorities must be distinct")
        if len(set(sec_priorities)) != len(sec_priorities):
            raise ValueError("security task priorities must be distinct")
        if rt_priorities and sec_priorities:
            if max(rt_priorities) >= min(sec_priorities):
                raise ValueError(
                    "every RT task must have higher priority (smaller value) "
                    "than every security task"
                )

    # -- basic accessors -------------------------------------------------------

    @property
    def all_tasks(self) -> Tuple[Task, ...]:
        """RT tasks followed by security tasks."""
        return tuple(self.rt_tasks) + tuple(self.security_tasks)

    @property
    def num_rt_tasks(self) -> int:
        return len(self.rt_tasks)

    @property
    def num_security_tasks(self) -> int:
        return len(self.security_tasks)

    def __len__(self) -> int:
        return len(self.rt_tasks) + len(self.security_tasks)

    def __iter__(self):
        return iter(self.all_tasks)

    def task(self, name: str) -> Task:
        """Look up a task (RT or security) by name."""
        for task in self.all_tasks:
            if task.name == name:
                return task
        raise KeyError(f"no task named {name!r}")

    def security_task(self, name: str) -> SecurityTask:
        """Look up a security task by name."""
        for task in self.security_tasks:
            if task.name == name:
                return task
        raise KeyError(f"no security task named {name!r}")

    def rt_task(self, name: str) -> RealTimeTask:
        """Look up an RT task by name."""
        for task in self.rt_tasks:
            if task.name == name:
                return task
        raise KeyError(f"no RT task named {name!r}")

    # -- priority views ---------------------------------------------------------

    def security_by_priority(self) -> List[SecurityTask]:
        """Security tasks sorted from highest to lowest priority."""
        return sort_by_priority(self.security_tasks)

    def rt_by_priority(self) -> List[RealTimeTask]:
        """RT tasks sorted from highest to lowest priority."""
        return sort_by_priority(self.rt_tasks)

    def higher_priority_security(self, task: SecurityTask) -> List[SecurityTask]:
        """``hpS(tau_s)`` -- security tasks with higher priority than *task*."""
        reference = self.security_task(task.name)
        return [
            other
            for other in self.security_by_priority()
            if other.priority < reference.priority
        ]

    def lower_priority_security(self, task: SecurityTask) -> List[SecurityTask]:
        """``lp(tau_s)`` -- security tasks with lower priority than *task*."""
        reference = self.security_task(task.name)
        return [
            other
            for other in self.security_by_priority()
            if other.priority > reference.priority
        ]

    # -- utilization ------------------------------------------------------------

    @property
    def rt_utilization(self) -> float:
        """Total RT utilization ``sum(C_r / T_r)``."""
        return sum(task.utilization for task in self.rt_tasks)

    @property
    def security_utilization(self) -> float:
        """Total security utilization at the *effective* (assigned) periods."""
        return sum(task.utilization for task in self.security_tasks)

    @property
    def security_min_utilization(self) -> float:
        """Total security utilization at the maximum periods ``C_s / T^max_s``."""
        return sum(task.min_utilization for task in self.security_tasks)

    @property
    def total_utilization(self) -> float:
        """RT + security utilization at effective periods."""
        return self.rt_utilization + self.security_utilization

    @property
    def minimum_utilization(self) -> float:
        """The paper's ``U`` (Section 5.2.2): RT utilization plus security
        utilization at maximum periods.  This is the smallest utilization the
        combined task set can possibly have and is the quantity normalized by
        ``M`` on the x-axis of Figs. 6 and 7."""
        return self.rt_utilization + self.security_min_utilization

    def normalized_utilization(self, num_cores: int) -> float:
        """``U / M`` as used on the x-axes of the paper's Figs. 6-7."""
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        return self.minimum_utilization / num_cores

    # -- transformations ----------------------------------------------------------

    def with_security_periods(self, periods: Mapping[str, int]) -> "TaskSet":
        """Return a new task set with the given security periods assigned.

        ``periods`` maps security-task name to period (ticks).  Tasks not
        mentioned keep their current period field.
        """
        unknown = set(periods) - {task.name for task in self.security_tasks}
        if unknown:
            raise KeyError(f"unknown security tasks: {sorted(unknown)}")
        new_security = tuple(
            task.with_period(periods[task.name]) if task.name in periods else task
            for task in self.security_tasks
        )
        return TaskSet._trusted(self.rt_tasks, new_security)

    def with_security_at_max_period(self) -> "TaskSet":
        """Return a new task set with every security period pinned to ``T^max``.

        This is the configuration evaluated by the GLOBAL-TMax and HYDRA-TMax
        baselines (paper Section 5.2.3).
        """
        new_security = tuple(task.at_max_period() for task in self.security_tasks)
        return TaskSet._trusted(self.rt_tasks, new_security)

    def without_security_periods(self) -> "TaskSet":
        """Return a new task set with all security periods cleared."""
        new_security = tuple(task.without_period() for task in self.security_tasks)
        return TaskSet._trusted(self.rt_tasks, new_security)

    def security_period_vector(self) -> Dict[str, Optional[int]]:
        """Mapping security-task name -> assigned period (or None)."""
        return {task.name: task.period for task in self.security_tasks}

    def security_max_period_vector(self) -> Dict[str, int]:
        """Mapping security-task name -> maximum period ``T^max_s``."""
        return {task.name: task.max_period for task in self.security_tasks}

    # -- reporting -----------------------------------------------------------------

    def summary(self) -> str:
        """A short human-readable description of the task set."""
        lines = [
            f"TaskSet: {self.num_rt_tasks} RT tasks (U={self.rt_utilization:.3f}), "
            f"{self.num_security_tasks} security tasks "
            f"(U_min={self.security_min_utilization:.3f})"
        ]
        for task in self.rt_by_priority():
            lines.append(
                f"  RT  {task.name}: C={task.wcet} T={task.period} D={task.deadline} "
                f"prio={task.priority}"
            )
        for task in self.security_by_priority():
            period = task.period if task.period is not None else "-"
            lines.append(
                f"  SEC {task.name}: C={task.wcet} T={period} Tmax={task.max_period} "
                f"prio={task.priority}"
            )
        return "\n".join(lines)
