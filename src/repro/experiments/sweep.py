"""The shared synthetic design-space sweep behind Figs. 6, 7a and 7b.

For every generated task set the sweep records, per scheme:

* whether the scheme admitted the task set (acceptance, Fig. 7a);
* the security periods the scheme assigned (Figs. 6 and 7b).

Task sets whose RT partition fails Eq. 1 are regenerated (the paper only
evaluates task sets whose legacy RT system is schedulable, Section 5.2.1).

The sweep is executed by the batch layer: a
:class:`~repro.batch.service.BatchDesignService` evaluates each task set
against the configured schemes (``config.schemes``; any selection from the
:mod:`repro.schemes` registry, default the paper's four) with shared
per-partition caches, and a
:class:`~repro.batch.orchestrator.SweepOrchestrator` runs the slots in
chunks -- serially or over ``n_jobs`` worker processes -- optionally
checkpointing every chunk to a resumable JSONL store (set
``checkpoint_path`` on the :class:`~repro.experiments.config.ExperimentConfig`,
or pass a store explicitly).  Results are independent of ``n_jobs``,
``chunk_size`` and checkpointing; see ``tests/experiments`` for the pinned
determinism guarantees.

This module keeps the historical public API (``run_sweep``,
:class:`SweepResult`, :class:`TasksetEvaluation`, ``SCHEME_NAMES``); the
record types now live in :mod:`repro.batch.results`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.batch.orchestrator import (
    ProgressCallback,
    SweepOrchestrator,
    SweepProgress,
    run_batch_sweep,
)
from repro.batch.results import SCHEME_NAMES, SweepResult, TasksetEvaluation
from repro.batch.store import JsonlResultStore
from repro.experiments.config import ExperimentConfig

__all__ = [
    "SCHEME_NAMES",
    "TasksetEvaluation",
    "SweepResult",
    "SweepProgress",
    "run_sweep",
]


def run_sweep(
    config: ExperimentConfig,
    store: Optional[JsonlResultStore] = None,
    progress: Optional[ProgressCallback] = None,
    pool=None,
    stats_sink: Optional[Dict[str, int]] = None,
) -> SweepResult:
    """Run the full design-space sweep described by *config*.

    ``store`` (or ``config.checkpoint_path``) enables chunked checkpointing
    with resume-on-restart; ``progress`` is called after every completed
    chunk.  Both default to off, which reproduces the original one-shot
    behaviour.  ``pool`` optionally injects a caller-owned
    :class:`~repro.exec.PersistentPool` reused across several runs;
    ``stats_sink`` accumulates the aggregate :class:`~repro.rta.KernelStats`
    counters of the evaluated slots (the CLI ``--stats`` flag; never part
    of the result or the checkpoint).
    """
    return run_batch_sweep(
        config, store=store, progress=progress, pool=pool, stats_sink=stats_sink
    )
