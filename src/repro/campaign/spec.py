"""Campaign parameters and deterministic trial derivation.

A *campaign* is the Monte Carlo extension of the paper's Fig. 5 security
evaluation: ``num_trials`` independent rover trials, each injecting one
random attack per monitor (and optionally perturbing every task's release
offset), evaluated under every selected scheme from the registry.  Trials
are *paired* -- every scheme sees the same attacks and the same jitter in
the same trial index -- so scheme comparisons are free of between-trial
sampling noise, exactly like :class:`repro.rover.case_study.RoverCaseStudy`.

Per-trial randomness is derived the same way the sweep orchestrator derives
per-slot seeds (:func:`repro.batch.orchestrator.build_specs`): one
:class:`numpy.random.SeedSequence` over the trial grid.  A trial is thus a
pure function of ``(campaign seed, trial index)`` -- independent of worker
count, chunking, resume point and simulation backend -- which is what makes
the campaign checkpointable and the results reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.platform import PlatformModel
from repro.rover.case_study import ROVER_HORIZON_TICKS
from repro.schemes import REGISTRY
from repro.sim.fast import SIMULATOR_BACKENDS

__all__ = [
    "TICK_LIMIT",
    "JitterModel",
    "CampaignSpec",
    "TrialSpec",
    "build_trial_specs",
]

#: Horizons and jitter offsets must stay below this: the trial draws
#: (``rng.integers``) need their bounds to fit ``int64``.
TICK_LIMIT = 1 << 62


@dataclass(frozen=True)
class JitterModel:
    """Release-offset randomisation applied per trial.

    ``"none"`` releases every task synchronously at tick 0 (the critical
    instant, the tick engine's default).  ``"uniform"`` draws one offset per
    task and trial, uniformly from ``[0, max_offset]`` ticks, breaking the
    synchronous release the way a real system's boot order does.  Offsets
    only delay each task's first release, so an RT-schedulable design stays
    schedulable (the critical instant is the worst case).
    """

    kind: str = "none"
    max_offset: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "uniform"):
            raise ConfigurationError(
                f"unknown jitter kind {self.kind!r}; expected 'none' or 'uniform'"
            )
        if self.kind == "none" and self.max_offset != 0:
            raise ConfigurationError(
                "jitter kind 'none' must not carry a max_offset"
            )
        if self.kind == "uniform" and self.max_offset < 1:
            raise ConfigurationError(
                "jitter kind 'uniform' needs max_offset >= 1"
            )
        if self.max_offset >= TICK_LIMIT:
            raise ConfigurationError("jitter max_offset must be < 2**62")

    @classmethod
    def none(cls) -> "JitterModel":
        return cls()

    @classmethod
    def uniform(cls, max_offset: int) -> "JitterModel":
        return cls(kind="uniform", max_offset=max_offset)

    def describe(self) -> str:
        """Short form used in reports and fingerprints (e.g. ``uniform:250``)."""
        if self.kind == "none":
            return "none"
        return f"{self.kind}:{self.max_offset}"


@dataclass(frozen=True)
class CampaignSpec:
    """Parameters of one Monte Carlo attack campaign on the rover workload.

    Attributes
    ----------
    schemes:
        Registered scheme names to evaluate per trial, in reporting order.
        ``None`` selects the paper's four canonical schemes; validated
        against :data:`repro.schemes.REGISTRY` and normalised to a tuple.
    num_trials:
        Independent trials (the paper's Fig. 5 uses 35).
    horizon:
        Observation window per trial in ticks.
    seed:
        Base seed, non-negative; each trial derives its own stream (see
        module docstring).
    latest_injection_fraction:
        Attacks land uniformly in ``[0, fraction * horizon)``.
    jitter:
        Release-offset randomisation model.
    backend:
        Simulation backend: ``"batch"`` (default; one trace-free scalar
        event loop per trial, falling back per trial to the
        event-compressed engine outside its envelope), ``"fast"`` (the
        event-compressed engine plus slice replay, the ablation of
        ``batch``) or ``"tick"`` (the slow oracle).  Deliberately *not*
        part of the checkpoint fingerprint: the differential suite pins
        all backends bit-identical, so a campaign may be resumed under any
        of them.
    dedup:
        Simulate once per *distinct* integrated design per trial and fan
        the outcome out to every aliasing scheme (default on).  A pure
        execution knob -- the dedup fan-out is byte-identical to the
        per-scheme loop by construction -- so it is never fingerprinted;
        it exists so benchmarks and tests can pin that equality.
    scheduler / protocol / overheads:
        The platform-model selection (:mod:`repro.platform`), one canonical
        string per registry axis.  Unlike ``backend``, all three *are*
        fingerprint-relevant: a different platform model yields different
        traces, so resuming a checkpoint across platforms is rejected.
        Defaults (``rm``/``none``/``zero``) are the paper's platform and
        reproduce ``campaign_golden.txt`` byte-for-byte.
    n_jobs / chunk_size / checkpoint_path:
        Execution knobs, exactly as on
        :class:`~repro.experiments.config.ExperimentConfig`; none of them
        affects results.
    """

    schemes: Optional[Sequence[str]] = None
    num_trials: int = 35
    horizon: int = ROVER_HORIZON_TICKS
    seed: int = 2020
    latest_injection_fraction: float = 0.5
    jitter: JitterModel = field(default_factory=JitterModel.none)
    backend: str = "batch"
    dedup: bool = True
    n_jobs: int = 1
    chunk_size: int = 8
    checkpoint_path: Optional[str] = None
    scheduler: str = "rm"
    protocol: str = "none"
    overheads: str = "zero"

    def __post_init__(self) -> None:
        resolved = REGISTRY.resolve(self.schemes)
        object.__setattr__(self, "schemes", tuple(spec.name for spec in resolved))
        # Validate the platform selection and canonicalise the overhead
        # spelling so equal models fingerprint equal (const:5 == const:5,0).
        model = PlatformModel.parse(self.scheduler, self.protocol, self.overheads)
        object.__setattr__(self, "overheads", model.overheads.describe())
        if self.num_trials < 1:
            raise ConfigurationError("num_trials must be >= 1")
        if not 1 <= self.horizon < TICK_LIMIT:
            raise ConfigurationError("horizon must be >= 1 and < 2**62")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if not 0.0 < self.latest_injection_fraction <= 1.0:
            raise ConfigurationError(
                "latest_injection_fraction must be in (0, 1]"
            )
        if self.backend not in SIMULATOR_BACKENDS:
            raise ConfigurationError(
                f"unknown simulation backend {self.backend!r}; available: "
                f"{', '.join(SIMULATOR_BACKENDS)}"
            )
        if self.n_jobs < 1:
            raise ConfigurationError("n_jobs must be >= 1")
        if self.chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")

    def fingerprint(self) -> Dict[str, object]:
        """The fields that determine each trial's record.

        Execution knobs (``backend``, ``dedup``, ``n_jobs``,
        ``chunk_size``, ``checkpoint_path``) are excluded: a checkpoint may
        be resumed with a different worker count, chunking, backend *or
        dedup setting* without changing a single byte of the result stream.  ``num_trials`` is excluded too:
        trial seeds are prefix-stable (see :func:`build_trial_specs`), so
        rerunning against the same checkpoint with a larger ``--trials``
        *extends* the campaign -- already-paid trials are reused, only the
        new suffix is evaluated.
        """
        return {
            "workload": "rover",
            "schemes": list(self.schemes),
            "horizon": self.horizon,
            "seed": self.seed,
            "latest_injection_fraction": float(self.latest_injection_fraction),
            "jitter": self.jitter.describe(),
            "scheduler": self.scheduler,
            "protocol": self.protocol,
            "overheads": self.overheads,
        }

    @property
    def platform_model(self) -> PlatformModel:
        """The validated platform-model bundle of this campaign."""
        return PlatformModel.parse(self.scheduler, self.protocol, self.overheads)


@dataclass(frozen=True)
class TrialSpec:
    """One campaign trial: its position and its derived random seed."""

    trial_index: int
    seed: int


def build_trial_specs(spec: CampaignSpec) -> List[TrialSpec]:
    """The deterministic trial list of a campaign."""
    child_seeds = np.random.SeedSequence(spec.seed).generate_state(spec.num_trials)
    return [
        TrialSpec(trial_index=index, seed=int(child_seeds[index]))
        for index in range(spec.num_trials)
    ]
