"""Chunked, resumable orchestration of a Monte Carlo attack campaign.

The execution model mirrors :class:`repro.batch.orchestrator.SweepOrchestrator`
-- a campaign's deterministic trial list is evaluated in chunks, serially or
across worker processes, each finished chunk is checkpointed to a
:class:`~repro.campaign.store.CampaignResultStore` (the JSONL file at
``--checkpoint``), and a restarted
campaign skips every already-evaluated trial.  Because a trial is a pure
function of ``(campaign seed, trial index)``, none of ``n_jobs``,
``chunk_size``, the resume point or the simulation backend can change the
result stream -- the determinism suite in
``tests/campaign/test_campaign_orchestrator.py`` pins all four.  Trial
seeds are prefix-stable, so a checkpoint also resumes under a *larger*
``num_trials``: the stored prefix is reused and only the new suffix runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.campaign.aggregate import CampaignResult
from repro.campaign.spec import CampaignSpec, TrialSpec, build_trial_specs
from repro.campaign.store import CampaignResultStore
from repro.campaign.trial import (
    CampaignRunner,
    CampaignStats,
    SchemeTrialOutcome,
    TrialRecord,
)
from repro.exec import PersistentPool, slice_evenly

__all__ = [
    "CampaignProgress",
    "CampaignOrchestrator",
    "TrialBlock",
    "run_campaign",
]


@dataclass(frozen=True)
class CampaignProgress:
    """Snapshot handed to the progress callback after each chunk."""

    completed_trials: int
    total_trials: int
    resumed_trials: int
    chunk_index: int
    num_chunks: int

    @property
    def fraction(self) -> float:
        return self.completed_trials / self.total_trials if self.total_trials else 1.0


ProgressCallback = Callable[[CampaignProgress], None]


@dataclass(frozen=True)
class TrialBlock:
    """Arena-encoded slice of campaign trials (the worker payload format).

    Mirrors :class:`repro.batch.orchestrator.SpecBlock`: the slice's
    :class:`TrialSpec` list is flattened into two parallel integer arrays
    next to the (shared, hashable) campaign spec -- one payload per worker
    slice instead of one pickled tuple per trial.

    ``scheme_names`` (``None`` = all of the spec's schemes) restricts the
    block to a subset of schemes: under the batched backend the
    orchestrator slices work by *design group* as well as by trial, so a
    worker simulates one distinct design across its whole trial slice in
    one batch and the orchestrator reassembles full records afterwards.
    """

    spec: CampaignSpec
    trial_indices: np.ndarray
    seeds: np.ndarray
    scheme_names: Optional[Tuple[str, ...]] = None

    @classmethod
    def encode(
        cls,
        spec: CampaignSpec,
        trials: List[TrialSpec],
        scheme_names: Optional[Tuple[str, ...]] = None,
    ) -> "TrialBlock":
        return cls(
            spec=spec,
            trial_indices=np.asarray(
                [trial.trial_index for trial in trials], dtype=np.int64
            ),
            seeds=np.asarray([trial.seed for trial in trials], dtype=np.uint64),
            scheme_names=scheme_names,
        )

    def decode(self) -> List[TrialSpec]:
        return [
            TrialSpec(trial_index=int(index), seed=int(seed))
            for index, seed in zip(self.trial_indices, self.seeds)
        ]


#: Per-process runner cache for the worker entry point: design integration
#: (partitioning + period selection for every scheme) runs once per worker,
#: not once per trial.
_WORKER_RUNNERS: Dict[CampaignSpec, CampaignRunner] = {}


def _run_block_worker(
    block: TrialBlock,
) -> Tuple[List[TrialRecord], Dict[str, int]]:
    """Module-level (hence picklable) worker entry point.

    Returns the block's (possibly scheme-partial) records next to the
    worker-side :class:`CampaignStats` snapshot, so the orchestrator can
    aggregate fast-path counters across :class:`~repro.exec.PersistentPool`
    processes.
    """
    runner = _WORKER_RUNNERS.get(block.spec)
    if runner is None:
        runner = CampaignRunner(block.spec)
        _WORKER_RUNNERS[block.spec] = runner
    stats = CampaignStats()
    records = runner.run_trials(
        block.decode(), schemes=block.scheme_names, stats=stats
    )
    return records, stats.as_dict()


class CampaignOrchestrator:
    """Drive one campaign to completion, chunk by chunk.

    Parameters
    ----------
    spec:
        The campaign parameters (including ``chunk_size`` and ``n_jobs``).
    store:
        Optional checkpoint store.  When ``None`` and the spec carries a
        ``checkpoint_path``, a store is created there; with neither, the
        campaign runs uncheckpointed.
    progress:
        Optional callback invoked after every chunk.
    pool:
        Optional externally owned :class:`~repro.exec.PersistentPool`
        shared across several campaigns (the caller closes it); by default
        one pool is created per run -- serving all of its chunks -- and
        closed on every exit path.
    stats_sink:
        Optional :class:`~repro.campaign.trial.CampaignStats` accumulating
        the campaign's fast-path counters (design-dedup hits, batched --
        and of those, compiled -- vs fallback design-trials), aggregated
        across worker processes.
        Observability only -- never affects the result stream.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: Optional[CampaignResultStore] = None,
        progress: Optional[ProgressCallback] = None,
        pool: Optional[PersistentPool] = None,
        stats_sink: Optional[CampaignStats] = None,
    ) -> None:
        if store is None and spec.checkpoint_path is not None:
            store = CampaignResultStore(spec.checkpoint_path, spec)
        self._spec = spec
        self._store = store
        self._progress = progress
        self._pool = pool
        self._stats = stats_sink if stats_sink is not None else CampaignStats()
        # Validates the scheme selection against the rover workload up
        # front (every scheme must admit it) and serves the serial path.
        self._runner = CampaignRunner(spec)

    def run(self) -> CampaignResult:
        """Evaluate every (remaining) trial and return the aggregate result."""
        spec = self._spec
        trials = build_trial_specs(spec)
        completed: Dict[int, TrialRecord] = (
            self._store.load() if self._store is not None else {}
        )
        resumed = len(completed)
        pending = [
            trial for trial in trials if trial.trial_index not in completed
        ]
        chunks = [
            pending[start : start + spec.chunk_size]
            for start in range(0, len(pending), spec.chunk_size)
        ]

        pool = self._pool
        owns_pool = pool is None and spec.n_jobs > 1 and bool(pending)
        if owns_pool:
            pool = PersistentPool(spec.n_jobs)
        try:
            for chunk_index, chunk in enumerate(chunks):
                records = self._evaluate_chunk(chunk, pool)
                completed.update(
                    (record.trial_index, record) for record in records
                )
                if self._store is not None:
                    self._store.append_chunk(records)
                if self._progress is not None:
                    self._progress(
                        CampaignProgress(
                            completed_trials=len(completed),
                            total_trials=len(trials),
                            resumed_trials=resumed,
                            chunk_index=chunk_index + 1,
                            num_chunks=len(chunks),
                        )
                    )
        finally:
            if owns_pool and pool is not None:
                pool.close()

        records = tuple(completed[trial.trial_index] for trial in trials)
        return CampaignResult(spec=spec, records=records)

    @property
    def stats(self) -> CampaignStats:
        """Aggregated fast-path counters (see ``stats_sink``)."""
        return self._stats

    def _evaluate_chunk(
        self,
        chunk: List[TrialSpec],
        pool: Optional[PersistentPool],
    ) -> List[TrialRecord]:
        if pool is None or self._spec.n_jobs <= 1:
            return self._runner.run_trials(chunk, stats=self._stats)
        blocks = self._encode_blocks(chunk)
        if all(block.scheme_names is None for block in blocks):
            records: List[TrialRecord] = []
            for slice_records, stats in pool.map_chunk(_run_block_worker, blocks):
                records.extend(slice_records)
                self._stats.merge(stats)
            return records
        # Design-group slicing (batched backend): each worker returned
        # scheme-partial records; reassemble full records per trial, with
        # outcomes in the spec's scheme (= reporting) order.
        partial: Dict[int, Dict[str, SchemeTrialOutcome]] = {
            trial.trial_index: {} for trial in chunk
        }
        for slice_records, stats in pool.map_chunk(_run_block_worker, blocks):
            self._stats.merge(stats)
            for record in slice_records:
                partial[record.trial_index].update(record.outcomes)
        return [
            TrialRecord(
                trial_index=trial.trial_index,
                seed=trial.seed,
                outcomes={
                    name: partial[trial.trial_index][name]
                    for name in self._spec.schemes
                },
            )
            for trial in chunk
        ]

    def _encode_blocks(self, chunk: List[TrialSpec]) -> List[TrialBlock]:
        """Split a chunk into worker payloads.

        The per-trial backends parallelise over trials only.  The batched
        backend slices by design group too -- one block simulates one
        distinct design over a trial slice in one batch -- so campaigns
        whose scheme count exceeds their chunk length still saturate the
        pool, and dedup work never repeats across workers.
        """
        spec = self._spec
        if spec.backend != "batch":
            return [
                TrialBlock.encode(spec, trial_slice)
                for trial_slice in slice_evenly(chunk, spec.n_jobs)
            ]
        groups = self._runner.design_groups()
        slices = max(1, -(-spec.n_jobs // len(groups)))
        return [
            TrialBlock.encode(spec, trial_slice, scheme_names=tuple(group))
            for group in groups
            for trial_slice in slice_evenly(chunk, slices)
        ]


def run_campaign(
    spec: CampaignSpec,
    store: Optional[CampaignResultStore] = None,
    progress: Optional[ProgressCallback] = None,
    pool: Optional[PersistentPool] = None,
    stats_sink: Optional[CampaignStats] = None,
) -> CampaignResult:
    """Convenience wrapper: build an orchestrator and run it."""
    return CampaignOrchestrator(
        spec, store=store, progress=progress, pool=pool, stats_sink=stats_sink
    ).run()
