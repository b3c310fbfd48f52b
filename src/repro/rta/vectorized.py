"""Column partitioning: the generation-time RT partition of many task sets.

:func:`partition_column` partitions the RT tasks of a whole column (chunk)
of task sets, one :func:`~repro.partitioning.heuristics.partition_rt_tasks`
call per set on that set's own :class:`~repro.rta.context.RtaContext`: one
``hydra_partition_rt`` C call on the compiled tier, the incremental
:class:`~repro.rta.core_state.CoreState` loop with its flip-free LL/Bini
quick-accepts on the python tier.  A set whose RT tasks fit on no core
maps to ``None`` instead of raising.

The module name is historical: it held the python tier's vectorized
lockstep partitioner, deleted for winning nothing end to end over this
loop (DESIGN.md, "Python-tier accelerations").
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import AllocationError
from repro.model.platform import Platform
from repro.model.taskset import TaskSet
from repro.partitioning.allocation import Allocation
from repro.partitioning.heuristics import (
    FitStrategy,
    normalise_fit_strategy,
    partition_rt_tasks,
)
from repro.rta.context import RtaContext

__all__ = ["partition_column"]


def partition_column(
    tasksets: Sequence[TaskSet],
    platform: Platform,
    contexts: Sequence[RtaContext],
    strategy: FitStrategy = FitStrategy.BEST_FIT,
) -> List[Optional[Allocation]]:
    """Partition each task set of a column on its paired context.

    Returns one :class:`Allocation` per task set, or ``None`` where the RT
    tasks do not fit (where ``partition_rt_tasks`` raises
    :class:`~repro.errors.AllocationError`).

    Raises
    ------
    ValueError
        If ``contexts`` does not pair exactly one context with each task
        set.
    ConfigurationError
        If ``strategy`` names no fit strategy (before any probe).
    """
    if len(contexts) != len(tasksets):
        raise ValueError(
            f"partition_column needs one context per task set: got "
            f"{len(tasksets)} task sets and {len(contexts)} contexts"
        )
    strategy = normalise_fit_strategy(strategy)
    results: List[Optional[Allocation]] = []
    for taskset, context in zip(tasksets, contexts):
        try:
            results.append(
                partition_rt_tasks(taskset, platform, strategy, context)
            )
        except AllocationError:
            results.append(None)
    return results
