"""The resumable checkpoint store for campaign trial records.

Same mechanics as the sweep's :mod:`repro.batch.store` (both subclass
:class:`repro.storage.JsonlCheckpointStore`), with the trial record as the
persisted unit, keyed by trial index.

The fingerprint deliberately excludes the execution knobs *including the
simulation backend and design dedup*: the differential suites pin the
tick, fast and batch backends bit-identical, so a campaign checkpoint
written under any (backend, dedup) combination may be finished under any
other without changing the result stream.  ``num_trials``
is excluded too -- trial seeds are prefix-stable, so growing ``--trials``
extends an existing checkpoint instead of invalidating it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple, Union

from repro.campaign.spec import CampaignSpec
from repro.campaign.trial import TrialRecord
from repro.storage import JsonlCheckpointStore

__all__ = ["CampaignResultStore"]


class CampaignResultStore(JsonlCheckpointStore):
    """Append-only JSONL store of trial records, keyed by trial index."""

    _fingerprint_field = "campaign"
    _noun = "campaign"

    def __init__(self, path: Union[str, Path], spec: CampaignSpec) -> None:
        super().__init__(path, spec.fingerprint())

    def _encode_result(self, entry: TrialRecord) -> Dict[str, object]:
        return {"kind": "result", "trial": entry.to_json()}

    def _decode_result(self, record: Dict[str, object]) -> Tuple[int, TrialRecord]:
        trial = TrialRecord.from_json(record["trial"])
        return trial.trial_index, trial
