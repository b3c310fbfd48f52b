"""Task abstractions for the HYDRA-C model.

The paper (Section 2) distinguishes two task populations scheduled on an
identical multicore platform:

* **Real-time (RT) tasks** ``tau_r = (C_r, T_r, D_r)``: legacy tasks with a
  worst-case execution time (WCET) ``C_r``, a minimum inter-arrival time
  (period) ``T_r`` and a constrained relative deadline ``D_r <= T_r``.  They
  are statically partitioned onto cores and scheduled with fixed-priority
  preemptive scheduling, priorities assigned rate-monotonically.

* **Security tasks** ``tau_s = (C_s, T_s, T^max_s)``: monitoring tasks whose
  period ``T_s`` is a *design variable* bounded above by a designer-provided
  ``T^max_s``.  They run with priorities strictly lower than every RT task,
  have implicit deadlines (``D_s = T_s``) and -- under HYDRA-C -- are allowed
  to migrate between cores at runtime.

Both are exposed as frozen dataclasses: analysis code treats tasks as value
objects and derives new task sets rather than mutating tasks in place (e.g.
:meth:`SecurityTask.with_period`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["ResourceClaim", "Task", "RealTimeTask", "SecurityTask", "Job"]


def _require_positive_int(value: int, name: str) -> int:
    """Validate that *value* is a positive integer and return it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int (clock ticks), got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _require_non_negative_int(value: int, name: str) -> int:
    """Validate that *value* is a non-negative integer and return it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int (clock ticks), got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


@dataclass(frozen=True)
class ResourceClaim:
    """One critical section: the task holds *resource* for the execution
    progress window ``[start, start + duration)`` (in work ticks from the
    start of each job, overhead-free).

    Claims exist for the resource-sharing protocols of
    :mod:`repro.platform`; under the default ``none`` protocol they are
    inert -- the runtime ignores them and the analysis adds no blocking --
    so annotating a task set never perturbs default-platform results.
    """

    resource: str
    start: int
    duration: int

    def __post_init__(self) -> None:
        if not self.resource:
            raise ValueError("claim resource must be a non-empty string")
        _require_non_negative_int(self.start, "claim start")
        _require_positive_int(self.duration, "claim duration")

    @property
    def end(self) -> int:
        """First progress unit *after* the section (the release point)."""
        return self.start + self.duration


@dataclass(frozen=True)
class Task:
    """Common base for periodic tasks.

    Parameters
    ----------
    name:
        Unique identifier within a :class:`~repro.model.taskset.TaskSet`.
    wcet:
        Worst-case execution time ``C`` in integer clock ticks.
    priority:
        Fixed priority.  **Lower numeric value means higher priority**
        (priority 0 is the most urgent).  ``None`` means "not yet assigned".
    claims:
        Shared-resource critical sections (:class:`ResourceClaim`).  They
        must not overlap (so sections never nest and priority-inheritance
        chains have depth one), must fit inside the WCET, and may name each
        resource at most once per task.
    """

    name: str
    wcet: int
    priority: Optional[int] = None
    claims: Tuple[ResourceClaim, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task name must be a non-empty string")
        _require_positive_int(self.wcet, "wcet")
        if self.priority is not None:
            _require_non_negative_int(self.priority, "priority")
        if self.claims:
            object.__setattr__(
                self,
                "claims",
                tuple(sorted(self.claims, key=lambda claim: claim.start)),
            )
            self._validate_claims()

    def _validate_claims(self) -> None:
        seen = set()
        previous_end = 0
        for claim in self.claims:
            if claim.resource in seen:
                raise ValueError(
                    f"task {self.name!r} claims resource {claim.resource!r} "
                    "more than once"
                )
            seen.add(claim.resource)
            if claim.start < previous_end:
                raise ValueError(
                    f"task {self.name!r} has overlapping resource claims "
                    f"(sections must not nest)"
                )
            previous_end = claim.end
        if previous_end > self.wcet:
            raise ValueError(
                f"task {self.name!r} claim section ends at {previous_end}, "
                f"beyond wcet={self.wcet}"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def utilization(self) -> float:
        """Processor utilization ``C / T`` of the task."""
        raise NotImplementedError

    def with_priority(self, priority: int) -> "Task":
        """Return a copy of this task with ``priority`` set."""
        if priority is not None:
            _require_non_negative_int(priority, "priority")
        return self._copy_with("priority", priority)

    def _copy_with(self, name: str, value) -> "Task":
        """A copy with one field changed, without re-validating the others.

        Equal to :func:`dataclasses.replace` for an already validated task
        whose new *value* the caller has validated: ``__post_init__`` would
        only re-check the unchanged fields (and re-sort sorted claims).
        """
        clone = object.__new__(type(self))
        state = clone.__dict__
        state.update(self.__dict__)
        state[name] = value
        return clone


@dataclass(frozen=True)
class RealTimeTask(Task):
    """A legacy real-time task ``(C_r, T_r, D_r)`` (paper Section 2.1).

    The deadline is *constrained*: ``D_r <= T_r``.  If ``deadline`` is not
    given it defaults to the period (implicit deadline).
    """

    period: int = 0
    deadline: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_positive_int(self.period, "period")
        if self.deadline is None:
            object.__setattr__(self, "deadline", self.period)
        _require_positive_int(self.deadline, "deadline")
        if self.deadline > self.period:
            raise ValueError(
                f"constrained deadline required: deadline={self.deadline} "
                f"exceeds period={self.period} for task {self.name!r}"
            )
        if self.wcet > self.deadline:
            raise ValueError(
                f"wcet={self.wcet} exceeds deadline={self.deadline} for task "
                f"{self.name!r}: trivially unschedulable"
            )

    @property
    def utilization(self) -> float:
        """``U_r = C_r / T_r``."""
        return self.wcet / self.period

    @property
    def density(self) -> float:
        """``C_r / D_r`` -- used by demand-based feasibility screens."""
        return self.wcet / self.deadline

    @property
    def is_real_time(self) -> bool:
        """True for RT tasks; mirrored by :attr:`SecurityTask.is_real_time`."""
        return True

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RealTimeTask({self.name}: C={self.wcet}, T={self.period}, "
            f"D={self.deadline}, prio={self.priority})"
        )


@dataclass(frozen=True)
class SecurityTask(Task):
    """A security-monitoring task ``(C_s, T_s, T^max_s)`` (paper Section 3).

    Parameters
    ----------
    max_period:
        Designer-provided upper bound ``T^max_s`` on the period.  If the task
        ran any less frequently than this, monitoring would be considered
        ineffective.
    period:
        The assigned period ``T_s``.  ``None`` until period selection
        (:mod:`repro.core.period_selection`) has run.  When assigned it must
        satisfy ``wcet <= period <= max_period``.
    coverage_units:
        Size of the monitoring workload in abstract *coverage units* (e.g.
        number of filesystem objects a Tripwire-like scanner must hash per
        pass).  Used only by the runtime security simulation
        (:mod:`repro.security`); the schedulability analysis ignores it.
    """

    max_period: int = 0
    period: Optional[int] = None
    coverage_units: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_positive_int(self.max_period, "max_period")
        _require_positive_int(self.coverage_units, "coverage_units")
        if self.wcet > self.max_period:
            raise ValueError(
                f"wcet={self.wcet} exceeds max_period={self.max_period} for "
                f"security task {self.name!r}: no feasible period exists"
            )
        if self.period is not None:
            self._check_period(self.period)

    def _check_period(self, period: int) -> None:
        """Validate *period* as this task's assigned period."""
        _require_positive_int(period, "period")
        if period > self.max_period:
            raise ValueError(
                f"period={period} exceeds max_period={self.max_period} "
                f"for security task {self.name!r}"
            )
        if period < self.wcet:
            raise ValueError(
                f"period={period} is smaller than wcet={self.wcet} for "
                f"security task {self.name!r}"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def effective_period(self) -> int:
        """The assigned period if set, otherwise the maximum period.

        Schemes without period adaptation (GLOBAL-TMax, HYDRA-TMax in the
        paper's evaluation) run every security task at ``T^max_s``; this
        property gives analysis and simulation code a single way to ask
        "what period is this task actually using?".
        """
        return self.period if self.period is not None else self.max_period

    @property
    def utilization(self) -> float:
        """``C_s / T_s`` using :attr:`effective_period`."""
        return self.wcet / self.effective_period

    @property
    def min_utilization(self) -> float:
        """Utilization when running at the maximum period (lowest frequency)."""
        return self.wcet / self.max_period

    @property
    def monitoring_frequency(self) -> float:
        """``1 / T_s`` -- how often the monitor runs (per tick)."""
        return 1.0 / self.effective_period

    @property
    def is_real_time(self) -> bool:
        return False

    def with_period(self, period: int) -> "SecurityTask":
        """Return a copy of this task with ``period`` assigned."""
        if period is not None:
            self._check_period(period)
        return self._copy_with("period", period)

    def without_period(self) -> "SecurityTask":
        """Return a copy of this task with its period cleared."""
        return self._copy_with("period", None)

    def at_max_period(self) -> "SecurityTask":
        """Return a copy running at ``T^max_s`` (no period adaptation)."""
        return self._copy_with("period", self.max_period)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SecurityTask({self.name}: C={self.wcet}, T={self.period}, "
            f"Tmax={self.max_period}, prio={self.priority})"
        )


@dataclass(frozen=True)
class Job:
    """A single activation (instance) of a task.

    Used by the discrete-event simulator (:mod:`repro.sim`); the analysis
    never materialises jobs.
    """

    task_name: str
    index: int
    release_time: int
    wcet: int
    absolute_deadline: Optional[int] = None
    is_security: bool = False

    def __post_init__(self) -> None:
        _require_non_negative_int(self.index, "index")
        _require_non_negative_int(self.release_time, "release_time")
        _require_positive_int(self.wcet, "wcet")
        if self.absolute_deadline is not None and self.absolute_deadline <= self.release_time:
            raise ValueError(
                f"absolute_deadline={self.absolute_deadline} must be after "
                f"release_time={self.release_time} for job {self.job_id}"
            )

    @property
    def job_id(self) -> str:
        """Human-readable identifier, e.g. ``"camera#3"``."""
        return f"{self.task_name}#{self.index}"
