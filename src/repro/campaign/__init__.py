"""Monte Carlo attack-campaign subsystem (the Fig. 5 evaluation at scale).

The paper measures intrusion-detection latency over 35 rover trials; this
package turns that into a campaign engine: a :class:`CampaignSpec`
(schemes x trial count x attack scenario x jitter model) is expanded into
deterministic per-trial seeds, evaluated in chunks across worker processes
on any simulation backend (by default the trace-free trial-batched loop;
``--backend fast`` or ``tick`` for the per-trial engines; see
:mod:`repro.sim`), deduplicated across schemes whose integrated designs
coincide, checkpointed to a fingerprint-guarded JSONL store, and
aggregated into detection-latency distributions per scheme -- reproducing
Fig. 5 and extending it to every scheme in the registry.

Layering mirrors :mod:`repro.batch` (spec -> runner -> store ->
orchestrator -> aggregate); ``hydra-c campaign`` is the CLI entry point.
"""

from repro.campaign.aggregate import (
    CampaignResult,
    LatencyDistribution,
    format_campaign,
)
from repro.campaign.orchestrator import (
    CampaignOrchestrator,
    CampaignProgress,
    TrialBlock,
    run_campaign,
)
from repro.campaign.spec import (
    CampaignSpec,
    JitterModel,
    TrialSpec,
    build_trial_specs,
)
from repro.campaign.store import CampaignResultStore
from repro.campaign.trial import (
    CampaignRunner,
    CampaignStats,
    SchemeTrialOutcome,
    TrialRecord,
)

__all__ = [
    "CampaignOrchestrator",
    "CampaignProgress",
    "CampaignResult",
    "CampaignResultStore",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStats",
    "JitterModel",
    "LatencyDistribution",
    "SchemeTrialOutcome",
    "TrialBlock",
    "TrialRecord",
    "TrialSpec",
    "build_trial_specs",
    "format_campaign",
    "run_campaign",
]
