"""Chunked, resumable orchestration of a design-space sweep.

:class:`SweepOrchestrator` turns an :class:`~repro.experiments.config.ExperimentConfig`
into a deterministic job list (one :class:`~repro.batch.service.TasksetSpec`
per sweep slot, seeds derived exactly as the original sweep derived them),
evaluates the jobs in chunks through :class:`~repro.batch.service.BatchDesignService`
-- serially or across worker processes -- and checkpoints each finished
chunk to a :class:`~repro.batch.store.JsonlResultStore` (the JSONL file
at ``--checkpoint``).  A restarted sweep
loads the checkpoint, skips every already-evaluated slot and appends only
the missing ones, reproducing the uninterrupted run byte for byte.

Execution runs on the shared :class:`repro.exec.PersistentPool`: one
executor serves every chunk of a run (and, when a pool is injected, every
run that shares it), rebuilt transparently if a worker crashes.  A chunk is
shipped to the workers as a few *slice* payloads -- the chunk's specs
encoded into compact :class:`SpecBlock` arrays, one submit per worker slice
-- rather than one pickled object per task set, so orchestration overhead
no longer scales with chunk count; each worker evaluates its slice through
:meth:`~repro.batch.service.BatchDesignService.evaluate_specs`.

Progress is reported through a callback after every chunk, so a CLI (or a
service wrapping this orchestrator) can stream status without coupling the
orchestration loop to any output format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.batch.results import SweepResult, TasksetEvaluation
from repro.batch.service import BatchDesignService, TasksetSpec
from repro.batch.store import JsonlResultStore
from repro.exec import PersistentPool, slice_evenly
from repro.platform import PlatformModel
from repro.rta import DEFAULT_KERNEL, KernelStats

if TYPE_CHECKING:  # avoid a runtime cycle: experiments.sweep imports batch
    from repro.experiments.config import ExperimentConfig

__all__ = [
    "SweepProgress",
    "SweepOrchestrator",
    "SpecBlock",
    "build_specs",
    "run_batch_sweep",
]


@dataclass(frozen=True)
class SweepProgress:
    """Snapshot handed to the progress callback after each chunk."""

    completed_jobs: int
    total_jobs: int
    resumed_jobs: int
    chunk_index: int
    num_chunks: int

    @property
    def fraction(self) -> float:
        return self.completed_jobs / self.total_jobs if self.total_jobs else 1.0


ProgressCallback = Callable[[SweepProgress], None]


def build_specs(config: ExperimentConfig) -> List[TasksetSpec]:
    """The deterministic job list of a sweep.

    Seeds are drawn from one :class:`numpy.random.SeedSequence` over the
    flattened (group, slot) grid -- the same derivation the original
    ``run_sweep`` used, so results are comparable across the refactor.
    """
    seed_sequence = np.random.SeedSequence(config.seed)
    child_seeds = seed_sequence.generate_state(
        len(config.utilization_groups) * config.tasksets_per_group
    )
    specs: List[TasksetSpec] = []
    position = 0
    for group_index, normalized_range in enumerate(config.utilization_groups):
        for _ in range(config.tasksets_per_group):
            specs.append(
                TasksetSpec(
                    job_index=position,
                    group_index=group_index,
                    normalized_range=tuple(normalized_range),
                    seed=int(child_seeds[position]),
                )
            )
            position += 1
    return specs


@dataclass(frozen=True)
class SpecBlock:
    """Arena-encoded slice of sweep slots (the worker payload format).

    A slice of :class:`TasksetSpec` objects is flattened into five parallel
    NumPy arrays plus the service configuration header -- no per-object
    pickling, one payload per worker slice.  ``decode`` reconstructs the
    specs bit-exactly (all fields are integers except the float utilization
    bounds, which round-trip through float64 unchanged).
    """

    num_cores: int
    scheme_names: Tuple[str, ...]
    search_mode: str
    collect_stats: bool
    job_indices: np.ndarray
    group_indices: np.ndarray
    range_lows: np.ndarray
    range_highs: np.ndarray
    seeds: np.ndarray
    # Kernel tier of the worker's service.  Declared last with a default so
    # pre-PR 7 pickled blocks (and positional constructions) stay valid.
    kernel: str = DEFAULT_KERNEL
    # Platform-model selection (PR 8), defaulted for the same reason.
    scheduler: str = "rm"
    protocol: str = "none"
    overheads: str = "zero"

    @classmethod
    def encode(
        cls,
        config: "ExperimentConfig",
        specs: Sequence[TasksetSpec],
        collect_stats: bool = False,
    ) -> "SpecBlock":
        return cls(
            num_cores=config.num_cores,
            scheme_names=tuple(config.schemes),
            search_mode=config.search_mode,
            collect_stats=collect_stats,
            kernel=config.kernel,
            scheduler=config.scheduler,
            protocol=config.protocol,
            overheads=config.overheads,
            job_indices=np.asarray(
                [spec.job_index for spec in specs], dtype=np.int64
            ),
            group_indices=np.asarray(
                [spec.group_index for spec in specs], dtype=np.int64
            ),
            range_lows=np.asarray(
                [spec.normalized_range[0] for spec in specs], dtype=np.float64
            ),
            range_highs=np.asarray(
                [spec.normalized_range[1] for spec in specs], dtype=np.float64
            ),
            seeds=np.asarray([spec.seed for spec in specs], dtype=np.uint64),
        )

    def decode(self) -> List[TasksetSpec]:
        return [
            TasksetSpec(
                job_index=int(job),
                group_index=int(group),
                normalized_range=(float(low), float(high)),
                seed=int(seed),
            )
            for job, group, low, high, seed in zip(
                self.job_indices,
                self.group_indices,
                self.range_lows,
                self.range_highs,
                self.seeds,
            )
        ]


#: Per-process service cache for the worker entry point: building the
#: service is cheap, but there is no reason to rebuild it per slice.
_WORKER_SERVICES: Dict[Tuple[object, ...], BatchDesignService] = {}


def _evaluate_block_worker(
    block: SpecBlock,
) -> Tuple[List[Optional[TasksetEvaluation]], Optional[Dict[str, int]]]:
    """Module-level (hence picklable) worker entry point.

    Scheme *names* (and the Algorithm 2 search mode) travel in the block;
    the specs themselves are resolved against the worker's own registry
    (plugin factories are not picklable).  Custom schemes must therefore be
    registered at import time of a module the workers also import -- see
    the :mod:`repro.schemes` docstring.
    """
    key = (
        block.num_cores,
        block.scheme_names,
        block.search_mode,
        block.kernel,
        block.scheduler,
        block.protocol,
        block.overheads,
    )
    service = _WORKER_SERVICES.get(key)
    if service is None:
        # The compiled backend (if requested) loads here, once per worker
        # process and from a machine-wide artifact cache -- slices arriving
        # later reuse the service, so there is no per-chunk (re)compilation.
        service = BatchDesignService(
            block.num_cores,
            scheme_names=block.scheme_names,
            search_mode=block.search_mode,
            kernel=block.kernel,
            platform_model=PlatformModel.parse(
                block.scheduler, block.protocol, block.overheads
            ),
        )
        _WORKER_SERVICES[key] = service
    stats: Optional[Dict[str, int]] = {} if block.collect_stats else None
    results = service.evaluate_specs(block.decode(), stats_sink=stats)
    return results, stats


class SweepOrchestrator:
    """Drive one sweep to completion, chunk by chunk.

    Parameters
    ----------
    config:
        The sweep parameters (including ``chunk_size`` and ``n_jobs``).
    store:
        Optional checkpoint store.  When ``None`` and the config carries a
        ``checkpoint_path``, a store is created there; with neither, the
        sweep runs uncheckpointed (the original behaviour).
    progress:
        Optional callback invoked after every chunk.
    pool:
        Optional externally owned :class:`~repro.exec.PersistentPool` to
        run on (reused across several ``run()`` invocations; the caller
        closes it).  By default the orchestrator creates one pool per run
        -- still shared by all of that run's chunks -- and closes it on
        every exit path.
    collect_stats:
        Aggregate the evaluated slots' kernel counters into :attr:`stats`
        (the CLI ``--stats`` path).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        store: Optional[JsonlResultStore] = None,
        progress: Optional[ProgressCallback] = None,
        pool: Optional[PersistentPool] = None,
        collect_stats: bool = False,
    ) -> None:
        if store is None and config.checkpoint_path is not None:
            store = JsonlResultStore(config.checkpoint_path, config)
        self._config = config
        self._store = store
        self._progress = progress
        self._pool = pool
        self._collect_stats = collect_stats
        #: Aggregate kernel counters of the evaluated (non-resumed) slots,
        #: populated when ``collect_stats`` is set.  Kept out of the sweep
        #: result/checkpoint on purpose: observability only.
        self.stats = KernelStats()
        self._service = BatchDesignService(
            config.num_cores,
            scheme_names=config.schemes,
            search_mode=config.search_mode,
            kernel=config.kernel,
            platform_model=config.platform_model,
        )

    def run(self) -> SweepResult:
        """Evaluate every (remaining) slot and return the full sweep result."""
        config = self._config
        specs = build_specs(config)
        completed: Dict[int, Optional[TasksetEvaluation]] = (
            self._store.load() if self._store is not None else {}
        )
        resumed = len(completed)
        pending = [spec for spec in specs if spec.job_index not in completed]
        chunks = [
            pending[start : start + config.chunk_size]
            for start in range(0, len(pending), config.chunk_size)
        ]

        pool = self._pool
        owns_pool = pool is None and config.n_jobs > 1 and bool(pending)
        if owns_pool:
            pool = PersistentPool(config.n_jobs)
        try:
            for chunk_index, chunk in enumerate(chunks):
                outcomes = self._evaluate_chunk(chunk, pool)
                entries = [
                    (spec.job_index, outcome)
                    for spec, outcome in zip(chunk, outcomes)
                ]
                completed.update(entries)
                if self._store is not None:
                    self._store.append_chunk(entries)
                if self._progress is not None:
                    self._progress(
                        SweepProgress(
                            completed_jobs=len(completed),
                            total_jobs=len(specs),
                            resumed_jobs=resumed,
                            chunk_index=chunk_index + 1,
                            num_chunks=len(chunks),
                        )
                    )
        finally:
            if owns_pool and pool is not None:
                pool.close()

        evaluations = tuple(
            completed[spec.job_index]
            for spec in specs
            if completed[spec.job_index] is not None
        )
        return SweepResult(config=config, evaluations=evaluations)

    def _evaluate_chunk(
        self,
        chunk: List[TasksetSpec],
        pool: Optional[PersistentPool],
    ) -> List[Optional[TasksetEvaluation]]:
        if pool is None or self._config.n_jobs <= 1:
            sink: Optional[Dict[str, int]] = {} if self._collect_stats else None
            results = self._service.evaluate_specs(chunk, stats_sink=sink)
            if sink:
                self.stats.merge(sink)
            return results
        blocks = [
            SpecBlock.encode(
                self._config, spec_slice, collect_stats=self._collect_stats
            )
            for spec_slice in slice_evenly(chunk, self._config.n_jobs)
        ]
        results: List[Optional[TasksetEvaluation]] = []
        for slice_results, slice_stats in pool.map_chunk(
            _evaluate_block_worker, blocks
        ):
            results.extend(slice_results)
            if slice_stats:
                self.stats.merge(slice_stats)
        return results


def run_batch_sweep(
    config: ExperimentConfig,
    store: Optional[JsonlResultStore] = None,
    progress: Optional[ProgressCallback] = None,
    pool: Optional[PersistentPool] = None,
    stats_sink: Optional[Dict[str, int]] = None,
) -> SweepResult:
    """Convenience wrapper: build an orchestrator and run it.

    ``stats_sink`` optionally receives the aggregate kernel counters of the
    run (the CLI ``--stats`` path).
    """
    orchestrator = SweepOrchestrator(
        config,
        store=store,
        progress=progress,
        pool=pool,
        collect_stats=stats_sink is not None,
    )
    result = orchestrator.run()
    if stats_sink is not None:
        for key, value in orchestrator.stats.as_dict().items():
            stats_sink[key] = stats_sink.get(key, 0) + value
    return result
