"""Synthetic taskset generator following the paper's Table 3.

The generator produces :class:`~repro.model.taskset.TaskSet` instances whose
*minimum* total utilization (RT utilization plus security utilization at the
maximum periods) hits a caller-specified target -- the quantity the paper
normalizes by the core count and sweeps across ten groups in Figs. 6 and 7.

Recipe (Table 3):

* number of RT tasks drawn uniformly from ``[3 M, 10 M]``;
* number of security tasks drawn uniformly from ``[2 M, 5 M]``;
* RT periods log-uniform in ``[10, 1000]`` ms;
* security maximum periods log-uniform in ``[1500, 3000]`` ms;
* per-task utilizations via Randfixedsum;
* security tasks contribute (at least) 30 % of the RT utilization.

WCETs are rounded to integer ticks (>= 1), so the achieved utilization can
deviate slightly from the requested target; experiments always recompute the
achieved utilization from the generated parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.generation.periods import log_uniform_periods
from repro.generation.randfixedsum import randfixedsum_vector
from repro.model.tasks import RealTimeTask, SecurityTask
from repro.model.taskset import TaskSet

__all__ = ["TasksetGenerationConfig", "TasksetGenerator", "generate_taskset"]


@dataclass(frozen=True)
class TasksetGenerationConfig:
    """Parameters of the synthetic workload generator (paper Table 3).

    Attributes
    ----------
    num_cores:
        Platform size ``M`` (the task-count ranges scale with it).
    rt_tasks_per_core:
        Inclusive range for ``N_R / M``.
    security_tasks_per_core:
        Inclusive range for ``N_S / M``.
    rt_period_range:
        Inclusive log-uniform range for RT periods, in ticks (= ms).
    security_max_period_range:
        Inclusive log-uniform range for security maximum periods, in ticks.
    security_utilization_ratio:
        Security utilization (at maximum periods) as a fraction of the RT
        utilization; Table 3's "at least 30 % of RT tasks" rule.
    ticks_per_ms:
        Clock resolution.  Period ranges are expressed in milliseconds (as
        in Table 3) and scaled to ticks on generation.  The default of one
        tick per millisecond matches the paper's parameter granularity; a
        finer resolution reduces WCET-rounding error for very-low-utilization
        tasks at the cost of slower response-time iterations (the busy-window
        recurrence advances tick by tick near the schedulability boundary).
    """

    num_cores: int = 2
    rt_tasks_per_core: Tuple[int, int] = (3, 10)
    security_tasks_per_core: Tuple[int, int] = (2, 5)
    rt_period_range: Tuple[int, int] = (10, 1000)
    security_max_period_range: Tuple[int, int] = (1500, 3000)
    security_utilization_ratio: float = 0.3
    ticks_per_ms: int = 1

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigurationError("num_cores must be >= 1")
        if self.ticks_per_ms < 1:
            raise ConfigurationError("ticks_per_ms must be >= 1")
        for name, (low, high) in (
            ("rt_tasks_per_core", self.rt_tasks_per_core),
            ("security_tasks_per_core", self.security_tasks_per_core),
            ("rt_period_range", self.rt_period_range),
            ("security_max_period_range", self.security_max_period_range),
        ):
            if low < 1 or high < low:
                raise ConfigurationError(
                    f"{name} must be an increasing range of positive values, "
                    f"got {(low, high)}"
                )
        if not 0.0 < self.security_utilization_ratio < 1.0:
            raise ConfigurationError(
                "security_utilization_ratio must be in (0, 1), got "
                f"{self.security_utilization_ratio}"
            )

    @property
    def rt_task_count_range(self) -> Tuple[int, int]:
        """Absolute range ``[3M, 10M]`` for the number of RT tasks."""
        return (
            self.rt_tasks_per_core[0] * self.num_cores,
            self.rt_tasks_per_core[1] * self.num_cores,
        )

    @property
    def security_task_count_range(self) -> Tuple[int, int]:
        """Absolute range ``[2M, 5M]`` for the number of security tasks."""
        return (
            self.security_tasks_per_core[0] * self.num_cores,
            self.security_tasks_per_core[1] * self.num_cores,
        )


class TasksetGenerator:
    """Draws random task sets according to a :class:`TasksetGenerationConfig`."""

    def __init__(
        self,
        config: TasksetGenerationConfig,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        if rng is not None and seed is not None:
            raise ConfigurationError("pass either rng or seed, not both")
        self._config = config
        self._rng = rng if rng is not None else np.random.default_rng(seed)

    @property
    def config(self) -> TasksetGenerationConfig:
        return self._config

    # -- public API -----------------------------------------------------------

    def generate(self, total_utilization: float) -> TaskSet:
        """Generate one task set with the given minimum total utilization.

        ``total_utilization`` is the un-normalized ``U`` of the paper
        (Section 5.2.2): RT utilization plus security utilization at the
        maximum periods.  It must be positive and no larger than the core
        count (otherwise the set is trivially infeasible).
        """
        config = self._config
        if total_utilization <= 0:
            raise ConfigurationError("total_utilization must be positive")
        if total_utilization > config.num_cores:
            raise ConfigurationError(
                f"total_utilization={total_utilization} exceeds the platform "
                f"capacity of {config.num_cores} cores"
            )

        ratio = config.security_utilization_ratio
        rt_utilization = total_utilization / (1.0 + ratio)
        security_utilization = total_utilization - rt_utilization

        num_rt = int(
            self._rng.integers(
                config.rt_task_count_range[0], config.rt_task_count_range[1] + 1
            )
        )
        num_security = int(
            self._rng.integers(
                config.security_task_count_range[0],
                config.security_task_count_range[1] + 1,
            )
        )

        rt_tasks = self._generate_rt_tasks(num_rt, rt_utilization)
        security_tasks = self._generate_security_tasks(
            num_security, security_utilization
        )
        return TaskSet.create(rt_tasks, security_tasks)

    def generate_normalized(self, normalized_utilization: float) -> TaskSet:
        """Generate one task set with the given *normalized* utilization ``U / M``."""
        return self.generate(normalized_utilization * self._config.num_cores)

    def generate_group(
        self,
        normalized_range: Tuple[float, float],
        count: int,
    ) -> List[TaskSet]:
        """Generate ``count`` task sets with normalized utilizations drawn
        uniformly from ``normalized_range`` (one utilization group of Fig. 6/7).
        """
        low, high = normalized_range
        if not 0.0 < low <= high <= 1.0:
            raise ConfigurationError(
                f"normalized_range must satisfy 0 < low <= high <= 1, got {normalized_range}"
            )
        if count < 1:
            raise ConfigurationError("count must be >= 1")
        tasksets: List[TaskSet] = []
        for _ in range(count):
            normalized = float(self._rng.uniform(low, high))
            tasksets.append(self.generate_normalized(normalized))
        return tasksets

    # -- internals ---------------------------------------------------------------

    def _draw_utilizations(self, count: int, total: float) -> List[float]:
        """Per-task utilizations summing to *total*, each in (0, 1]."""
        total = min(total, float(count))
        return randfixedsum_vector(count, total, rng=self._rng)

    def _generate_rt_tasks(self, count: int, total_utilization: float) -> List[RealTimeTask]:
        scale = self._config.ticks_per_ms
        utilizations = self._draw_utilizations(count, total_utilization)
        periods_ms = log_uniform_periods(
            count,
            self._config.rt_period_range[0],
            self._config.rt_period_range[1],
            rng=self._rng,
        )
        tasks: List[RealTimeTask] = []
        for index, (utilization, period_ms) in enumerate(zip(utilizations, periods_ms)):
            period = period_ms * scale
            wcet = int(round(utilization * period))
            wcet = max(1, min(wcet, period))
            tasks.append(
                RealTimeTask(name=f"rt{index}", wcet=wcet, period=period)
            )
        return tasks

    def _generate_security_tasks(
        self, count: int, total_utilization: float
    ) -> List[SecurityTask]:
        scale = self._config.ticks_per_ms
        utilizations = self._draw_utilizations(count, total_utilization)
        max_periods_ms = log_uniform_periods(
            count,
            self._config.security_max_period_range[0],
            self._config.security_max_period_range[1],
            rng=self._rng,
        )
        tasks: List[SecurityTask] = []
        for index, (utilization, max_period_ms) in enumerate(
            zip(utilizations, max_periods_ms)
        ):
            max_period = max_period_ms * scale
            wcet = int(round(utilization * max_period))
            wcet = max(1, min(wcet, max_period))
            tasks.append(
                SecurityTask(
                    name=f"sec{index}",
                    wcet=wcet,
                    max_period=max_period,
                    coverage_units=wcet,
                )
            )
        return tasks


def generate_taskset(
    total_utilization: float,
    config: Optional[TasksetGenerationConfig] = None,
    seed: Optional[int] = None,
) -> TaskSet:
    """One-shot convenience wrapper around :class:`TasksetGenerator`.

    Examples
    --------
    >>> taskset = generate_taskset(1.0, seed=42)
    >>> abs(taskset.minimum_utilization - 1.0) < 0.25
    True
    """
    generator = TasksetGenerator(config or TasksetGenerationConfig(), seed=seed)
    return generator.generate(total_utilization)
