"""The resumable checkpoint store for sweep results.

The persistence mechanics (fingerprint header, torn-line truncation,
duplicate detection, byte-for-byte resume) live in
:class:`repro.storage.JsonlCheckpointStore`; :class:`JsonlResultStore`
binds them to the sweep: one ``result`` record per completed sweep slot,
keyed by job index, with :class:`~repro.batch.results.TasksetEvaluation`
payloads.  Slots whose task-set generation exhausted its retry budget are
recorded as ``null`` evaluations so a resumed run does not retry them.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.batch.results import SCHEME_NAMES, TasksetEvaluation
from repro.storage import JsonlCheckpointStore

if TYPE_CHECKING:  # avoid a runtime cycle: experiments.sweep imports batch
    from repro.experiments.config import ExperimentConfig

__all__ = ["JsonlResultStore", "config_fingerprint"]


def config_fingerprint(config: "ExperimentConfig") -> Dict[str, object]:
    """The configuration fields that determine a sweep's results.

    Runtime knobs (``n_jobs``, ``chunk_size``, ``checkpoint_path``) are
    deliberately excluded: resuming a checkpoint with a different worker
    count or chunking must be allowed, because neither affects the result
    stream.  The selected scheme list *is* included: every stored record
    holds one column per scheme, so resuming with a different ``--schemes``
    set would silently mix incompatible result rows.  The Algorithm 2
    ``search_mode`` is included as well -- the modes are
    equivalence-tested, but a checkpoint documents the configuration that
    produced it, so a resume under a different mode is rejected.  The
    platform-model axes (``scheduler``/``protocol``/``overheads``) are
    included for the stronger reason: a non-default platform changes the
    analysis itself, so mixing platforms would mix incompatible results.
    """
    return {
        "num_cores": config.num_cores,
        "tasksets_per_group": config.tasksets_per_group,
        "utilization_groups": [
            [float(low), float(high)] for low, high in config.utilization_groups
        ],
        "seed": config.seed,
        "schemes": list(config.schemes),
        "search_mode": config.search_mode,
        "scheduler": config.scheduler,
        "protocol": config.protocol,
        "overheads": config.overheads,
    }


class JsonlResultStore(JsonlCheckpointStore):
    """Append-only JSONL store of per-slot evaluations, keyed by job index."""

    _fingerprint_field = "config"
    _noun = "sweep"
    #: Checkpoints written before the scheme registry carry no scheme list
    #: (they were always the canonical four), and pre-kernel ones no
    #: ``search_mode`` (they were always the binary Algorithm 2 search).
    _legacy_fingerprint = {
        **JsonlCheckpointStore._legacy_fingerprint,
        "schemes": list(SCHEME_NAMES),
        "search_mode": "binary",
    }

    def __init__(self, path: Union[str, Path], config: "ExperimentConfig") -> None:
        super().__init__(path, config_fingerprint(config))

    def _encode_result(
        self, entry: Tuple[int, Optional[TasksetEvaluation]]
    ) -> Dict[str, object]:
        job_index, evaluation = entry
        return {
            "kind": "result",
            "job": job_index,
            "evaluation": evaluation.to_json() if evaluation is not None else None,
        }

    def _decode_result(
        self, record: Dict[str, object]
    ) -> Tuple[int, Optional[TasksetEvaluation]]:
        payload = record["evaluation"]
        return int(record["job"]), (
            TasksetEvaluation.from_json(payload) if payload is not None else None
        )
