"""Batched, resumable evaluation of task-set streams (see DESIGN.md).

The batch layer is the engine room of the paper's design-space sweeps
(Figs. 6/7a/7b) and of any large-scale what-if exploration built on top of
the library:

* :mod:`repro.batch.service` -- :class:`BatchDesignService` evaluates one
  task set against the selected schemes (any subset of the
  :mod:`repro.schemes` registry) while sharing the per-partition work
  (Eq. 1 RT analysis, greedy security allocation) between them,
  capability-driven by each scheme's declared phases.
* :mod:`repro.batch.orchestrator` -- :class:`SweepOrchestrator` runs whole
  sweeps in chunks, serially or across processes, with progress reporting.
* :mod:`repro.batch.store` -- checkpoints each finished chunk to the
  JSONL file at ``--checkpoint`` so a killed sweep resumes where it
  stopped and reproduces the uninterrupted result byte for byte.
* :mod:`repro.batch.results` -- the shared result records.
* :mod:`repro.batch.reference` -- the frozen seed evaluation path, kept as
  the benchmark baseline and cross-validation oracle.
"""

from repro.batch.orchestrator import (
    SweepOrchestrator,
    SweepProgress,
    build_specs,
    run_batch_sweep,
)
from repro.batch.results import SCHEME_NAMES, SweepResult, TasksetEvaluation
from repro.batch.service import (
    MAX_GENERATION_ATTEMPTS,
    BatchDesignService,
    TasksetSpec,
)
from repro.batch.store import JsonlResultStore, config_fingerprint

__all__ = [
    "BatchDesignService",
    "JsonlResultStore",
    "MAX_GENERATION_ATTEMPTS",
    "SCHEME_NAMES",
    "SweepOrchestrator",
    "SweepProgress",
    "SweepResult",
    "TasksetEvaluation",
    "TasksetSpec",
    "build_specs",
    "config_fingerprint",
    "run_batch_sweep",
]
