"""Batched evaluation of task sets against every scheme, with shared caches.

The design-space sweeps behind Figs. 6/7a/7b evaluate each generated task
set under several schemes.  Run independently (as the original per-scheme
sweep did), the schemes repeat identical work on the same task set:

* HYDRA-C, HYDRA and HYDRA-TMax each re-run the Eq. 1 response-time
  analysis of the partitioned RT tasks (the partition never changes);
* HYDRA and HYDRA-TMax perform the *same* greedy best-fit security
  allocation (both occupy cores at the maximum periods, see
  :class:`repro.baselines.hydra.SecurityAllocation`).

:class:`BatchDesignService` evaluates one task set against all selected
schemes while computing each shared phase exactly once, and is the single
code path used by both the serial and the multi-process sweep (so
``n_jobs`` cannot change results).  Which phases are shared is
*capability-driven*: every scheme is a plugin from the
:mod:`repro.schemes` registry whose :class:`~repro.schemes.SchemeSpec`
declares the phases it consumes, and the service materialises exactly the
union of the selected schemes' declarations -- no name-based special
cases, so a newly registered scheme participates in the sharing without
touching this module.

Beneath the phases sits the RTA kernel: the service creates one
:class:`repro.rta.RtaContext` per task set and threads it through
generation-time partitioning, the Eq. 1 check, the security allocation and
every plugin, so all of them share the same workload memos and incremental
core states.  Every exact kernel layer (warm seeds, certification, pins,
the quick-accepts) always runs; the only tier switch is ``kernel``.

Sweep slots are generated and partitioned one at a time on both tiers;
:meth:`BatchDesignService.generate` holds the regeneration loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.hydra import Hydra
from repro.batch.results import TasksetEvaluation
from repro.core.framework import SystemDesign
from repro.core.period_selection import SearchMode, normalise_search_mode
from repro.errors import AllocationError, ConfigurationError, UnschedulableError
from repro.generation.taskset_generator import (
    TasksetGenerationConfig,
    TasksetGenerator,
)
from repro.model.platform import Platform
from repro.model.taskset import TaskSet
from repro.partitioning.allocation import Allocation
from repro.partitioning.heuristics import partition_rt_tasks
from repro.platform import DEFAULT_PLATFORM, PlatformModel
from repro.rta import (
    DEFAULT_KERNEL,
    RtaContext,
    normalise_kernel,
    partitioned_rt_check,
)
from repro.schedulability.partitioned import rt_tasks_by_core
from repro.schemes import (
    REGISTRY,
    DesignOptions,
    Phase,
    SchemeRegistry,
    SharedPhases,
)

__all__ = ["TasksetSpec", "BatchDesignService", "MAX_GENERATION_ATTEMPTS"]

#: How many times to retry generating a task set whose RT partition fails
#: before giving up on that slot.
MAX_GENERATION_ATTEMPTS = 50


@dataclass(frozen=True)
class TasksetSpec:
    """One slot of a design-space sweep: where it sits and how to generate it.

    The spec is all a worker process needs to reproduce the slot
    deterministically: the generator seed fixes the task set (including the
    regeneration retries) and ``job_index`` fixes its position in the result
    stream and the checkpoint file.
    """

    job_index: int
    group_index: int
    normalized_range: Tuple[float, float]
    seed: int


class BatchDesignService:
    """Evaluate task sets against registered schemes with shared phases.

    Parameters
    ----------
    num_cores:
        Platform size ``M``.
    scheme_names:
        Which registered schemes to evaluate, in reporting order.  ``None``
        selects the paper's four canonical schemes.
    max_generation_attempts:
        Retry budget for :meth:`generate` when the RT partition fails Eq. 1.
    registry:
        Scheme registry to resolve names against (the process-wide default
        unless a test injects its own).
    search_mode:
        HYDRA-C's Algorithm 2 period-search mode, applied to every plugin
        that honours it (see :class:`repro.schemes.DesignOptions`).
    kernel:
        Fixed-point kernel tier for every context the service creates:
        ``"auto"`` (default), ``"python"`` or ``"compiled"`` -- see
        :class:`repro.rta.RtaContext`.  Byte-equal results across tiers.
    platform_model:
        The :class:`~repro.platform.PlatformModel` selection.  At design
        time only the resource protocol matters: every context the service
        creates carries the model, so the protocol's blocking terms inflate
        the Eq. 1/7 analyses of claim-annotated task sets.  The default is
        the paper's platform (no locks, so blocking never engages).
    """

    def __init__(
        self,
        num_cores: int,
        scheme_names: Optional[Sequence[str]] = None,
        max_generation_attempts: int = MAX_GENERATION_ATTEMPTS,
        registry: SchemeRegistry = REGISTRY,
        search_mode: Union[SearchMode, str] = SearchMode.BINARY,
        kernel: str = DEFAULT_KERNEL,
        platform_model: PlatformModel = DEFAULT_PLATFORM,
    ) -> None:
        if num_cores < 1:
            raise ConfigurationError("num_cores must be >= 1")
        self._kernel = normalise_kernel(kernel)
        self._platform = Platform(num_cores=num_cores)
        self._platform_model = platform_model
        self._specs = registry.resolve(scheme_names)
        self._scheme_names = tuple(spec.name for spec in self._specs)
        self._options = DesignOptions(
            search_mode=normalise_search_mode(search_mode),
            platform=platform_model,
        )
        self._plugins = tuple(
            spec.factory(self._platform) for spec in self._specs
        )
        for plugin in self._plugins:
            plugin.configure(self._options)
        self._needed_phases: FrozenSet[Phase] = frozenset().union(
            *(spec.phases for spec in self._specs)
        )
        self._max_generation_attempts = max_generation_attempts
        self._generation_config = TasksetGenerationConfig(num_cores=num_cores)
        # The shared max-period security allocation is HYDRA's allocation
        # phase; one allocator instance serves every task set.
        self._maxperiod_allocator = Hydra(self._platform)

    @property
    def platform(self) -> Platform:
        return self._platform

    def _new_context(self) -> RtaContext:
        """A fresh per-task-set kernel context on the service's tier."""
        return RtaContext(
            self._platform.num_cores,
            kernel=self._kernel,
            platform_model=self._platform_model,
        )

    @property
    def scheme_names(self) -> Tuple[str, ...]:
        return self._scheme_names

    # -- generation ------------------------------------------------------------

    def generate(
        self,
        spec: TasksetSpec,
        rta_context: Optional[RtaContext] = None,
    ) -> Optional[Tuple[TaskSet, Allocation]]:
        """Generate the task set of *spec* (with its legacy RT partition).

        Replicates the original sweep's regeneration loop exactly: draw a
        normalized utilization from the group's range, generate, and retry
        (up to the attempt budget) whenever the RT partition violates Eq. 1
        -- the paper only evaluates task sets whose legacy RT system is
        schedulable (Section 5.2.1).  Returns ``None`` when the budget is
        exhausted.
        """
        generator = TasksetGenerator(self._generation_config, seed=spec.seed)
        rng = np.random.default_rng(spec.seed)
        for _attempt in range(self._max_generation_attempts):
            normalized = float(rng.uniform(*spec.normalized_range))
            candidate = generator.generate_normalized(normalized)
            try:
                allocation = partition_rt_tasks(
                    candidate, self._platform, rta_context=rta_context
                )
            except AllocationError:
                continue
            return candidate, allocation
        return None

    # -- shared phases ---------------------------------------------------------

    def _compute_shared_phases(
        self,
        taskset: TaskSet,
        rt_allocation: Allocation,
        rta_context: RtaContext,
    ) -> SharedPhases:
        """Materialise the union of the selected schemes' declared phases."""
        needed = self._needed_phases
        rt_check = (
            partitioned_rt_check(
                taskset, rt_allocation.mapping, self._platform, rta_context
            )
            if Phase.EQ1_RT_CHECK in needed
            else None
        )
        rt_by_core = None
        security_allocation = None
        if (
            Phase.MAXPERIOD_SECURITY_ALLOCATION in needed
            and rt_check is not None
            and rt_check.schedulable
        ):
            rt_by_core = rt_tasks_by_core(
                taskset, rt_allocation.mapping, self._platform
            )
            security_allocation = self._maxperiod_allocator.allocate_security(
                taskset, rt_by_core, rta_context=rta_context
            )
        return SharedPhases(
            rt_allocation=rt_allocation,
            rt_check=rt_check,
            rt_by_core=rt_by_core,
            security_allocation=security_allocation,
            rta_context=rta_context,
        )

    # -- evaluation ------------------------------------------------------------

    def design_all(
        self,
        taskset: TaskSet,
        rt_allocation: Allocation,
        rta_context: Optional[RtaContext] = None,
    ) -> Dict[str, Optional[SystemDesign]]:
        """Run every selected scheme on one task set, sharing common phases.

        Returns a mapping scheme name -> :class:`SystemDesign`, or ``None``
        where the scheme raised
        :class:`~repro.errors.UnschedulableError` /
        :class:`~repro.errors.AllocationError` (it could not even set up
        its RT configuration for this task set).  Each shared phase runs at
        most once, regardless of how many schemes consume it, and all of
        them -- plus the plugins -- run on one task-set-wide
        :class:`~repro.rta.RtaContext`.
        """
        if rta_context is None:
            rta_context = self._new_context()
        shared = self._compute_shared_phases(taskset, rt_allocation, rta_context)
        designs: Dict[str, Optional[SystemDesign]] = {}
        for name, plugin in zip(self._scheme_names, self._plugins):
            try:
                designs[name] = plugin.design(taskset, shared)
            except (UnschedulableError, AllocationError):
                designs[name] = None
        return designs

    def evaluate_taskset(
        self,
        taskset: TaskSet,
        rt_allocation: Allocation,
        group_index: int = 0,
        rta_context: Optional[RtaContext] = None,
    ) -> TasksetEvaluation:
        """Evaluate one task set against every scheme and build the record."""
        designs = self.design_all(taskset, rt_allocation, rta_context=rta_context)
        schedulable: Dict[str, bool] = {}
        periods: Dict[str, Optional[Dict[str, int]]] = {}
        for name in self._scheme_names:
            design = designs[name]
            if design is None or not design.schedulable:
                schedulable[name] = False
                periods[name] = None
                continue
            schedulable[name] = True
            periods[name] = {
                task: period
                for task, period in design.security_periods().items()
                if period is not None
            }
        return TasksetEvaluation(
            group_index=group_index,
            normalized_utilization=taskset.normalized_utilization(
                self._platform.num_cores
            ),
            num_rt_tasks=taskset.num_rt_tasks,
            num_security_tasks=taskset.num_security_tasks,
            max_periods=taskset.security_max_period_vector(),
            schedulable=schedulable,
            periods=periods,
        )

    def evaluate_spec(self, spec: TasksetSpec) -> Optional[TasksetEvaluation]:
        """Generate and evaluate one sweep slot (``None`` if generation fails).

        One :class:`~repro.rta.RtaContext` spans the whole slot --
        generation-time partitioning and every scheme phase -- so the
        slot's kernel activity (solves, shortcut accepts, shared caches)
        aggregates in one place.
        """
        (evaluation,) = self.evaluate_specs([spec])
        return evaluation

    def evaluate_specs(
        self,
        specs: Sequence[TasksetSpec],
        stats_sink: Optional[Dict[str, int]] = None,
    ) -> List[Optional[TasksetEvaluation]]:
        """Evaluate a column (chunk) of sweep slots.

        Every slot is generated first, one at a time on its own
        :class:`~repro.rta.RtaContext` (:meth:`generate` holds the
        regeneration loop), then each generated task set is evaluated on
        its slot's context.  Slots keep their own RNG streams and contexts,
        so outcomes are independent of how the column is chunked.  The
        whole chunk is generated before any slot is evaluated because
        interleaving the two phases slot by slot fragments the heap: a
        compiled 4-core sweep repeated 250 times in one process grew its
        peak RSS from 43 to 46 MiB that way, and stays at 43 MiB this way.

        ``stats_sink`` optionally accumulates every slot context's
        :class:`~repro.rta.KernelStats` counters (the ``--stats`` path).
        """
        slots = []
        for spec in specs:
            rta_context = self._new_context()
            slots.append(
                (spec, rta_context, self.generate(spec, rta_context=rta_context))
            )
        results: List[Optional[TasksetEvaluation]] = []
        for spec, rta_context, generated in slots:
            if generated is None:
                results.append(None)
            else:
                taskset, allocation = generated
                results.append(
                    self.evaluate_taskset(
                        taskset,
                        allocation,
                        group_index=spec.group_index,
                        rta_context=rta_context,
                    )
                )
            if stats_sink is not None:
                for key, value in rta_context.stats.as_dict().items():
                    stats_sink[key] = stats_sink.get(key, 0) + value
        return results
