"""The per-task-set RTA context: one Eq. 1-5 engine for every consumer.

Every layer of the design space -- RT bin packing (Eq. 1 probes), the
Eq. 1 legacy-partition check, the HYDRA/HYDRA-TMax greedy security
allocation, GLOBAL-TMax's carry-in-limited global analysis and HYDRA-C's
period selection -- solves the same response-time mathematics.  An
:class:`RtaContext` is the shared state those consumers thread through one
task set:

* :class:`~repro.rta.migrating.RtWorkloadCache` instances cached per RT
  partition layout, so period selection and ad-hoc migrating-task analyses
  of the same partition share their per-window RT interference (the
  memoised term granularity of the kernel: per-core workloads by window,
  clamped interference by ``(window, wcet)``, per-core Eq. 1 demand by
  window on :class:`~repro.rta.core_state.CoreState` -- profiling showed
  finer per-``(wcet, period, window)`` term memos lose to the shared
  inline kernels of :mod:`repro.rta.terms` inside a solve);
* factories for the incremental per-core states
  (:class:`~repro.rta.core_state.CoreState`) and the global engine
  (:class:`~repro.rta.global_fp.GlobalRtaEngine`);
* the ``quick_accept`` switch for the accept-only admission shortcuts and
  a :class:`KernelStats` counter block making their activity observable
  (benchmarks report it; tests assert the shortcuts actually fire);
* the Eq. 1 responses of the last compiled RT partition, which the Eq. 1
  check of that same partition reads instead of solving again.

Contexts are cheap (a handful of dicts); create one per task set.  The
batch service does exactly that and passes it to every shared phase; see
``DESIGN.md`` ("RTA kernel" layer).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.model.platform import Platform
from repro.model.tasks import RealTimeTask
from repro.rta.compiled import DEFAULT_KERNEL, normalise_kernel, resolve_kernel
from repro.rta.core_state import CoreState, TaskView
from repro.rta.global_fp import GlobalRtaEngine
from repro.rta.migrating import RtWorkloadCache

__all__ = ["KernelStats", "RtaContext", "rt_task_view"]


@dataclass
class KernelStats:
    """Counters of kernel activity, reset per context (= per task set).

    The first block counts exact solves and the per-probe kernel
    shortcuts; the remaining counters cover the warm-seeded
    period-selection solves, compiled-kernel dispatches and the exact
    solve-skipping layers (``dedup_*``).
    ``hydra-c sweep --stats`` (and the fig6/7a/7b variants) print the
    aggregate over every evaluated task set.  ``merge`` reads fields with
    ``.get(name, 0)``, so sinks lacking a field still aggregate cleanly.
    """

    exact_solves: int = 0
    ll_accepts: int = 0
    bound_accepts: int = 0
    seeded_solves: int = 0
    compiled_solves: int = 0
    #: Per-carry-in-set fixed points pinned by a seed/upper-bound sandwich
    #: (cross-probe verdict reuse in Algorithm 2; see ``set_uppers`` in
    #: :func:`repro.rta.migrating.security_response_time`).
    dedup_pinned_sets: int = 0
    #: Whole chain solves skipped because earlier probes of the same
    #: Algorithm 2 search sandwich the task's entire response (see
    #: ``PeriodSelector._probe_pins``).
    dedup_pinned_solves: int = 0
    #: Carry-in sets whose solve was skipped by incumbent certification
    #: (one shared-window Omega evaluation proved the set cannot raise the
    #: Eq. 8 maximum; see the exact branch of
    #: :func:`repro.rta.migrating.security_response_time`).
    dedup_certified_sets: int = 0
    #: Algorithm 1 Line-8 refresh solves replaced by the completed chain of
    #: the feasible Algorithm 2 probe at the chosen period -- an identical
    #: analysis state, so the probe's responses are reused verbatim (see
    #: ``PeriodSelector.select``).
    dedup_refresh_reuses: int = 0

    @property
    def quick_accepts(self) -> int:
        return self.ll_accepts + self.bound_accepts

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict snapshot (the cross-process aggregation format)."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def merge(self, other: Mapping[str, int]) -> None:
        """Accumulate another context's (or worker's) counters into this."""
        for field in fields(self):
            setattr(
                self,
                field.name,
                getattr(self, field.name) + int(other.get(field.name, 0)),
            )

    def summary_line(self) -> str:
        """The one-line report behind the CLI ``--stats`` flag."""
        return (
            f"kernel: {self.exact_solves} exact solves, "
            f"{self.seeded_solves} warm-seeded, "
            f"quick-accepts {self.ll_accepts} LL / {self.bound_accepts} Bini, "
            f"{self.compiled_solves} compiled solves, "
            f"dedup {self.dedup_pinned_sets} pinned / "
            f"{self.dedup_certified_sets} certified sets, "
            f"{self.dedup_pinned_solves} pinned / "
            f"{self.dedup_refresh_reuses} reused solves"
        )


def rt_task_view(task: RealTimeTask) -> TaskView:
    """Kernel view of an RT task, ordered by ``(priority, name)``."""
    return TaskView(
        name=task.name,
        wcet=task.wcet,
        period=task.period,
        deadline=task.deadline,
        key=(task.priority, task.name),
    )


def _partition_key(
    rt_tasks_by_core: Mapping[int, Sequence[RealTimeTask]],
) -> Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]:
    """Hashable identity of an RT partition's workload-relevant layout."""
    return tuple(
        (core, tuple((task.wcet, task.period) for task in rt_tasks_by_core[core]))
        for core in sorted(rt_tasks_by_core)
    )


class RtaContext:
    """Shared Eq. 1-5 state for analysing one task set.

    Parameters
    ----------
    num_cores:
        Platform size ``M`` (a :class:`~repro.model.platform.Platform` is
        also accepted).
    quick_accept:
        Enables the accept-only admission shortcuts of
        :class:`~repro.rta.core_state.CoreState`.  They can never flip an
        admission outcome (``tests/rta/test_quick_accept.py``); disable
        only to measure their effect or to force every probe through the
        exact fixed point.
    kernel:
        Which fixed-point kernel tier solves the exact Eq. 1/6-8
        iterations: ``"auto"`` (the default,
        :data:`~repro.rta.compiled.DEFAULT_KERNEL`: compiled when
        available, silently python otherwise), ``"python"`` (the pure
        reference tier) or ``"compiled"`` (the :mod:`repro.rta.compiled`
        backend, warning once and falling back when unavailable).  Results
        are byte-equal across tiers; see the differential suites in
        ``tests/rta/``.
    platform_model:
        The :class:`~repro.platform.models.PlatformModel` whose resource
        protocol supplies per-task blocking terms (see
        :meth:`prime_blocking`).
    """

    def __init__(
        self,
        num_cores,
        quick_accept: bool = True,
        kernel: str = DEFAULT_KERNEL,
        platform_model=None,
    ) -> None:
        if isinstance(num_cores, Platform):
            num_cores = num_cores.num_cores
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        self.num_cores = int(num_cores)
        self.quick_accept = quick_accept
        #: The :class:`~repro.platform.models.PlatformModel` whose resource
        #: protocol supplies per-task blocking terms; ``None`` (or the
        #: default model, or a claim-free task set) keeps every solve
        #: blocking-free -- the frozen PR 4-7 behaviour.
        self.platform_model = platform_model
        self._blocking: Dict[str, int] = {}
        self.kernel_name = normalise_kernel(kernel)
        #: The loaded compiled backend, or ``None`` on the pure-python tier
        #: (requested, unavailable, or fallback).  ``partition_rt_tasks``
        #: (RT partitioning, whose responses also answer the Eq. 1 check),
        #: ``Hydra.allocate_security`` (HYDRA's best-fit allocation),
        #: ``PeriodSelector.select`` (HYDRA-C's Algorithms 1-2),
        #: ``Hydra._assign_periods`` (HYDRA's per-core periods) and
        #: ``GlobalRtaEngine.taskset_schedulable`` (GLOBAL-TMax) each run
        #: in one call on it per task set.  Everything else -- HYDRA-RF's
        #: allocation, the Eq. 1 check of a partition the compiled
        #: partitioner did not make, guard fallbacks -- runs the python
        #: kernels (``CoreState`` never dispatches to it).
        self.compiled_kernel = resolve_kernel(self.kernel_name)
        self.stats = KernelStats()
        self._rt_caches: Dict[object, RtWorkloadCache] = {}
        #: ``(task set, partition, responses)`` of the last compiled RT
        #: partition (see :meth:`record_rt_responses`).
        self._rt_responses: Optional[
            Tuple[object, Mapping[str, int], Dict[str, int]]
        ] = None

    # -- blocking terms (resource protocols) -----------------------------------

    @property
    def has_blocking(self) -> bool:
        """True when any task carries a non-zero blocking term.

        :class:`~repro.rta.core_state.CoreState` keys on this: with
        blocking in play the accept-only shortcuts (LL / Bini bounds, which
        know nothing of blocking) are disabled and every solve runs the
        exact fixed point with the task's term folded in.
        """
        return bool(self._blocking)

    def blocking_of(self, name: str) -> int:
        """Blocking term ``B`` (ticks) of the named task (0 by default)."""
        return self._blocking.get(name, 0)

    def prime_blocking(self, taskset) -> None:
        """(Re)compute per-task blocking terms for *taskset* under this
        context's platform model.  A no-op without a lock-using protocol or
        without claims; idempotent for a fixed task set.  Call before
        analysing a task set whose tasks declare resource claims."""
        if self.platform_model is None:
            return
        protocol = self.platform_model.resource_protocol
        if not protocol.uses_locks:
            return
        from repro.platform.blocking import blocking_terms

        self._blocking = blocking_terms(taskset, protocol)

    # -- RT partition responses ------------------------------------------------

    def record_rt_responses(
        self, taskset, mapping: Mapping[str, int], responses: Dict[str, int]
    ) -> None:
        """Keep the Eq. 1 response of every RT task of *taskset* under the
        partition *mapping*, as the compiled partitioner admitted it (the
        last admission solve of each task saw its final higher-priority
        set, so it is the response the Eq. 1 check would compute)."""
        self._rt_responses = (taskset, mapping, responses)

    def rt_responses(
        self, taskset, mapping: Mapping[str, int]
    ) -> Optional[Dict[str, int]]:
        """The responses recorded for this very task set object and an
        equal partition, else ``None`` (the caller solves)."""
        recorded = self._rt_responses
        if recorded is None or recorded[0] is not taskset or recorded[1] != mapping:
            return None
        return recorded[2]

    # -- factories -------------------------------------------------------------

    def core_state(self, views: Iterable[TaskView] = ()) -> CoreState:
        """A per-core state seeded with *views* (assumed already admitted).

        The seeded tasks are *not* re-verified -- callers seed states with
        task groups whose schedulability is established elsewhere (e.g. the
        legacy RT partition a security packer probes against).  Views must
        arrive in priority order.
        """
        entries = tuple(views)
        utilization = 0.0
        for view in entries:
            utilization += view.utilization
        rm_consistent = all(
            entries[i].period <= entries[i + 1].period
            for i in range(len(entries) - 1)
        )
        implicit = all(view.deadline == view.period for view in entries)
        return CoreState(
            self,
            entries,
            utilization=utilization,
            rm_consistent=rm_consistent,
            implicit_deadlines=implicit,
        )

    def rt_workload_cache(
        self, rt_tasks_by_core: Mapping[int, Sequence[RealTimeTask]]
    ) -> RtWorkloadCache:
        """The shared per-partition RT workload cache (Eq. 2-3 summand).

        Cached by the partition's ``(core, (wcet, period)...)`` layout, so
        every consumer analysing the same partition of this task set --
        HYDRA-C period selection, whole-task-set helpers, the batch
        service's phases -- shares one cache.
        """
        key = _partition_key(rt_tasks_by_core)
        cache = self._rt_caches.get(key)
        if cache is None:
            cache = RtWorkloadCache(rt_tasks_by_core)
            self._rt_caches[key] = cache
        return cache

    def global_engine(self) -> GlobalRtaEngine:
        """A global fixed-priority engine (GLOBAL-TMax) over this context.

        Built per call, not cached: the engine holds only the context and
        the core count, and caching it here would make a context/engine
        reference cycle that keeps every discarded context (its workload
        caches and stats) alive until a cyclic garbage collection.
        """
        return GlobalRtaEngine(self, self.num_cores)
