"""Vectorized column screening over whole batches of task sets.

The synthetic sweeps evaluate thousands of task sets per utilization
column.  :func:`partition_column` partitions the generation-time RT tasks
of a whole column.  On the compiled kernel tier each task set is one
``hydra_partition_rt`` call (via
:func:`~repro.partitioning.heuristics.partition_rt_tasks`).  On the python
tier the column screen below is the partitioner: it amortizes the
*decidable* part of the packing across the column, packing every task
set in lockstep, and each placement step gathers the active probes into
one ``(task set, core)`` matrix and applies three *provably flip-free*
probe filters as single array passes:

* the Liu & Layland whole-core accept and the Bini per-task upper-bound
  accept (both proven unable to flip a verdict in
  ``tests/rta/test_quick_accept.py``, here lifted from per-probe scalar
  calls to column-wide array ops);
* the per-core utilization->1 reject.

Before the first step, a task set whose total RT utilization exceeds the
core count is rejected outright (no partition can keep every core at or
below utilization one).  Only the undecided probe residue walks the exact
incremental :class:`~repro.rta.core_state.CoreState` path.  Because every
filter is flip-free, the resulting partitions -- and the regeneration
retries they trigger -- are byte-identical to the scalar
:func:`~repro.partitioning.heuristics.partition_rt_tasks` loop.

Accept filters are applied with a small conservative float margin
(``SCREEN_EPS``/``BINI_EPS``): a marginal accept falls through to the
exact kernel instead, so float rounding can only cost a screen hit, never
a wrong verdict.  The reject filters carry the margin on the reject side.
Screen activity is counted per task set in
:class:`~repro.rta.context.KernelStats` (``column_*`` counters) and
surfaced by the CLI ``--stats`` flag.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import AllocationError
from repro.model.platform import Platform
from repro.model.taskset import TaskSet
from repro.partitioning.allocation import Allocation
from repro.partitioning.heuristics import (
    FitStrategy,
    _choose_core,
    normalise_fit_strategy,
)
from repro.rta.context import RtaContext, rt_task_view
from repro.rta.core_state import CoreState

__all__ = ["SCREEN_EPS", "BINI_EPS", "partition_column"]

#: Conservative margin on float accept/reject comparisons: marginal
#: accepts fall through to the exact kernel, marginal rejects stay
#: undecided.  Float sums over tens of tasks carry error around 1e-12, so
#: this margin dwarfs it while never screening away a real decision.
SCREEN_EPS = 1e-9

#: Margin for the Bini bound comparison.  The bound is evaluated in
#: float64 at tick magnitudes up to ~1e6, where the absolute rounding
#: error stays below ~1e-8; accepts require ``bound <= deadline - BINI_EPS``.
BINI_EPS = 1e-6


class _ColumnCores:
    """Mutable per-(set, core) packing state for the lockstep partitioner.

    Array fields feed the vectorized screens; ``views`` holds the placed
    kernel task views per core (in priority order) and ``states`` caches
    the lazily built exact :class:`CoreState` per core (invalidated on
    placement), so repeated undecided probes of an unchanged core share
    their demand memo exactly like the scalar loop does.
    """

    def __init__(self, num_sets: int, num_cores: int) -> None:
        shape = (num_sets, num_cores)
        self.util = np.zeros(shape, dtype=np.float64)
        self.count = np.zeros(shape, dtype=np.int64)
        self.implicit = np.ones(shape, dtype=bool)
        #: running ``sum C_i (1 - U_i)`` per core (Bini bound numerator)
        self.weighted_sum = np.zeros(shape, dtype=np.float64)
        self.views: List[List[List]] = [
            [[] for _ in range(num_cores)] for _ in range(num_sets)
        ]
        self.states: List[List[Optional[CoreState]]] = [
            [None for _ in range(num_cores)] for _ in range(num_sets)
        ]

    def place(self, set_index: int, core: int, view, position: int) -> None:
        self.views[set_index][core].insert(position, view)
        self.states[set_index][core] = None
        self.util[set_index, core] += view.utilization
        self.count[set_index, core] += 1
        self.weighted_sum[set_index, core] += view.wcet * (
            1.0 - view.utilization
        )
        if view.deadline != view.period:
            self.implicit[set_index, core] = False


def partition_column(
    tasksets: Sequence[TaskSet],
    platform: Platform,
    contexts: Sequence[RtaContext],
    strategy: FitStrategy = FitStrategy.BEST_FIT,
) -> List[Optional[Allocation]]:
    """Partition a whole column of task sets.

    Returns one :class:`Allocation` per task set, or ``None`` where the
    RT tasks do not fit (the scalar loop's ``AllocationError``).  Byte
    identical to calling
    :func:`repro.partitioning.heuristics.partition_rt_tasks` per task set,
    which is what a compiled-tier context gets (one C call per set).  The
    python-tier sets are packed in lockstep: every probe is decided either
    by a flip-free vectorized filter or by the exact incremental kernel,
    and the per-core utilization accumulation (the best-fit tie-break)
    uses the same float summation order.
    """
    strategy = normalise_fit_strategy(strategy)
    # Compiled-tier contexts pack each set in one C call.  Resource-protocol
    # blocking terms are outside the vectorized filters' model (the
    # LL/Bini/utilization screens are blocking-blind), so python-tier sets
    # whose *RT tasks* actually carry a non-zero term take the scalar
    # kernel path too (its exact solves fold the terms in); the rest of
    # the column -- protocol `none`, claim-free sets, or sets whose claims
    # all sit on security tasks -- keeps the vectorized screen.
    for taskset, context in zip(tasksets, contexts):
        if hasattr(context, "prime_blocking"):
            context.prime_blocking(taskset)
    needs_scalar = [
        getattr(context, "compiled_kernel", None) is not None
        or (
            getattr(context, "has_blocking", False)
            and any(context.blocking_of(task.name) for task in taskset.rt_tasks)
        )
        for taskset, context in zip(tasksets, contexts)
    ]
    if any(needs_scalar):
        from repro.partitioning.heuristics import partition_rt_tasks

        results_by_index: List[Optional[Allocation]] = [None] * len(tasksets)
        vector_indices = [
            index for index, scalar in enumerate(needs_scalar) if not scalar
        ]
        if vector_indices:
            vector_results = partition_column(
                [tasksets[index] for index in vector_indices],
                platform,
                [contexts[index] for index in vector_indices],
                strategy,
            )
            for index, result in zip(vector_indices, vector_results):
                results_by_index[index] = result
        for index, scalar in enumerate(needs_scalar):
            if not scalar:
                continue
            try:
                results_by_index[index] = partition_rt_tasks(
                    tasksets[index], platform, strategy, contexts[index]
                )
            except AllocationError:
                results_by_index[index] = None
        return results_by_index

    num_sets = len(tasksets)
    num_cores = platform.num_cores
    results: List[Optional[Allocation]] = [None] * num_sets
    # Doomed sets: total RT utilization above M forces some core above
    # utilization one in *every* complete placement, so best-fit packing
    # (whose exact admission rejects any core it would overload) runs out
    # of feasible cores for some task.  Conservative float margin as
    # everywhere; the rest goes through the packing loop.
    failed = []
    for taskset, context in zip(tasksets, contexts):
        doomed = taskset.rt_utilization > num_cores + SCREEN_EPS
        if doomed:
            context.stats.column_util_rejects += 1
        failed.append(doomed)

    # Per-set placement orders (decreasing utilization, the scalar loop's).
    orders: List[List] = []
    for index, taskset in enumerate(tasksets):
        if failed[index]:
            orders.append([])
            continue
        orders.append(
            sorted(taskset.rt_tasks, key=lambda t: (-t.utilization, t.name))
        )
    if not any(orders):
        return [
            Allocation.empty() if not failed[i] and not orders[i] else None
            for i in range(num_sets)
        ]

    cores = _ColumnCores(num_sets, num_cores)
    #: per-set running utilizations in *placement* order -- the tie-break
    #: accumulator of the scalar loop (kept separate from the kernel
    #: per-core utilization on purpose, mirroring partition_rt_tasks).
    tie_break = [[0.0] * num_cores for _ in range(num_sets)]
    mapping: List[Dict[str, int]] = [dict() for _ in range(num_sets)]
    active = [
        index
        for index in range(num_sets)
        if not failed[index] and orders[index]
    ]
    done = [
        index for index in range(num_sets) if not failed[index] and not orders[index]
    ]
    for index in done:
        results[index] = Allocation.empty()

    step = 0
    ll_cache: Dict[int, float] = {}
    while active:
        rows = np.asarray(active, dtype=np.int64)
        views = [rt_task_view(orders[index][step]) for index in active]
        cand_util = np.asarray([view.utilization for view in views])
        cand_wcet = np.asarray([view.wcet for view in views], dtype=np.int64)
        cand_deadline = np.asarray(
            [view.deadline for view in views], dtype=np.int64
        )
        cand_implicit = np.asarray(
            [view.deadline == view.period for view in views]
        )
        # positions of each candidate on each core (priority insertion)
        positions = np.empty((len(active), num_cores), dtype=np.int64)
        at_bottom = np.empty((len(active), num_cores), dtype=bool)
        rm_ok = np.empty((len(active), num_cores), dtype=bool)
        for row, (index, view) in enumerate(zip(active, views)):
            for core in range(num_cores):
                core_views = cores.views[index][core]
                position = _insert_position(core_views, view.key)
                positions[row, core] = position
                at_bottom[row, core] = position == len(core_views)
                rm_ok[row, core] = _rm_follows(core_views, view, position)

        util_matrix = cores.util[rows]
        count_matrix = cores.count[rows]
        new_util = util_matrix + cand_util[:, None]
        new_counts = count_matrix + 1
        bounds = _ll_bounds_cached(new_counts, ll_cache)

        # -- vectorized probe filters ----------------------------------------
        ll_accept = (
            rm_ok
            & cores.implicit[rows]
            & cand_implicit[:, None]
            & (new_util <= bounds - SCREEN_EPS)
        )
        util_reject = new_util > 1.0 + SCREEN_EPS
        with np.errstate(divide="ignore", invalid="ignore"):
            bini_bound = (
                cand_wcet[:, None] + cores.weighted_sum[rows]
            ) / (1.0 - util_matrix)
        bini_accept = (
            at_bottom
            & (util_matrix < 1.0 - SCREEN_EPS)
            & (bini_bound <= cand_deadline[:, None] - BINI_EPS)
        )

        still_active = []
        for row, (index, view) in enumerate(zip(active, views)):
            stats = contexts[index].stats
            feasible: List[int] = []
            for core in range(num_cores):
                if util_reject[row, core]:
                    stats.column_util_rejects += 1
                    continue
                if ll_accept[row, core]:
                    stats.column_ll_accepts += 1
                    feasible.append(core)
                    continue
                if bini_accept[row, core]:
                    stats.column_bini_accepts += 1
                    feasible.append(core)
                    continue
                stats.column_undecided += 1
                state = cores.states[index][core]
                if state is None:
                    state = contexts[index].core_state(
                        cores.views[index][core]
                    )
                    cores.states[index][core] = state
                if state.admit(view).admitted:
                    feasible.append(core)
            if not feasible:
                results[index] = None
                failed[index] = True
                continue
            chosen = _choose_core(feasible, tie_break[index], strategy)
            cores.place(index, chosen, view, int(positions[row, chosen]))
            tie_break[index][chosen] += view.utilization
            mapping[index][view.name] = chosen
            if step + 1 < len(orders[index]):
                still_active.append(index)
            else:
                results[index] = Allocation(mapping[index])
        active = still_active
        step += 1

    return results


def _insert_position(core_views: List, key) -> int:
    """Priority insertion position (bisect-right over the views' keys)."""
    low, high = 0, len(core_views)
    while low < high:
        mid = (low + high) // 2
        if key < core_views[mid].key:
            high = mid
        else:
            low = mid + 1
    return low


def _rm_follows(core_views: List, view, position: int) -> bool:
    """RM-consistency of inserting *view* at *position* (scalar helper)."""
    if position > 0 and core_views[position - 1].period > view.period:
        return False
    if position < len(core_views) and view.period > core_views[position].period:
        return False
    for left, right in zip(core_views, core_views[1:]):
        if left.period > right.period:
            return False
    return True


def _ll_bounds_cached(counts: np.ndarray, cache: Dict[int, float]) -> np.ndarray:
    """LL bounds for a small integer count matrix, memoised per count."""
    bounds = np.empty(counts.shape, dtype=np.float64)
    flat_counts = counts.ravel()
    flat_bounds = bounds.ravel()
    for position, count in enumerate(flat_counts):
        value = cache.get(int(count))
        if value is None:
            value = float(count) * (2.0 ** (1.0 / float(count)) - 1.0)
            cache[int(count)] = value
        flat_bounds[position] = value
    return bounds
