"""Checkpoint persistence for the resumable runs.

Both resumable runs -- the design-space sweep (:mod:`repro.batch`) and the
Monte Carlo attack campaign (:mod:`repro.campaign`) -- checkpoint their
result streams through :class:`JsonlCheckpointStore`: one JSONL file whose
fingerprint header guards resumes and whose records a killed and resumed
run reproduces byte for byte.  ``--checkpoint`` takes a plain path to that
file; each subsystem subclasses the store with its record hooks
(``repro.batch.store.JsonlResultStore``,
``repro.campaign.store.CampaignResultStore``).
"""

from repro.storage.jsonl import JsonlCheckpointStore

__all__ = ["JsonlCheckpointStore"]
