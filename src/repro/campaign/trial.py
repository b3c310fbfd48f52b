"""Per-trial evaluation: designs, simulation, detection, result records.

:class:`CampaignRunner` is the worker-side engine of a campaign.  Built
once per process from a :class:`~repro.campaign.spec.CampaignSpec`, it
resolves every selected scheme against the registry, integrates each one on
the rover workload (honouring the rover's legacy RT partition where the
scheme consumes it) and then evaluates trials: draw the trial's attacks and
release jitter from its derived seed, then simulate every scheme's design
over the observation window with the configured backend -- trace-free with
detection folded in (``batch``, the default) or as a trace the attacks are
replayed against (``fast``, ``tick``).

Cross-scheme design dedup
-------------------------
Several schemes routinely integrate to the *same* design on a given
workload (on the rover, every HYDRA-C re-partitioning variant that keeps
the legacy RT split reproduces HYDRA-C's design exactly).  A trial's
outcome is a pure function of ``(design, platform, horizon, jitter,
attacks)`` -- the scheme name never enters the simulator or the detection
replay -- so :class:`CampaignRunner` canonicalizes every design
(placement + periods + policy; the platform model is campaign-global),
simulates once per *distinct* design per trial, and fans the outcome back
out to every aliasing scheme.  Results are byte-identical to the
per-scheme loop by construction; ``spec.dedup`` (an execution knob, never
fingerprinted) exists so benchmarks and tests can pin that equality.

:class:`TrialRecord` is the JSON-round-trippable unit the checkpoint store
persists -- everything the aggregation layer needs (per-attack detection
latencies, context switches, migrations, preemptions per scheme), nothing
it does not (no traces).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.campaign.spec import CampaignSpec, TrialSpec
from repro.errors import AllocationError, ConfigurationError, UnschedulableError
from repro.model.platform import Platform
from repro.partitioning.allocation import Allocation
from repro.rover.case_study import (
    rover_monitors,
    rover_rt_allocation,
    rover_taskset,
)
from repro.rta import RtaContext
from repro.schemes import REGISTRY, SharedPhases
from repro.security.attacks import generate_attacks
from repro.security.detection import evaluate_detection
from repro.sim.batched import BatchTrialInput, simulate_trials_batched
from repro.sim.engine import SimulationConfig
from repro.sim.fast import resolve_backend

__all__ = [
    "CampaignStats",
    "SchemeTrialOutcome",
    "TrialRecord",
    "CampaignRunner",
]


@dataclass
class CampaignStats:
    """Counters of campaign fast-path activity (observability only).

    Mirrors :class:`repro.rta.context.KernelStats`: plain int counters, a
    dict snapshot as the cross-process aggregation format, and a forgiving
    ``merge`` so sinks recorded by older workers still aggregate.
    ``hydra-c campaign --stats`` prints the aggregate over every evaluated
    chunk, summed across ``PersistentPool`` workers.
    """

    #: Scheme-trial evaluations answered by another scheme's identical
    #: design (one simulation fanned out to N aliases counts N-1 hits).
    design_dedup_hits: int = 0
    #: Design-trial simulations executed by the batch backend's trace-free
    #: loop.
    batched_trials: int = 0
    #: The subset of ``batched_trials`` the loop ran in C (the compiled
    #: kernel tier).
    compiled_trials: int = 0
    #: Design-trial simulations the batch backend handed to the
    #: event-compressed engine (outside the loop's envelope).
    fallback_trials: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict snapshot (the cross-process aggregation format)."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def merge(self, other: Mapping[str, int]) -> None:
        """Accumulate another runner's (or worker's) counters into this."""
        for field in fields(self):
            setattr(
                self,
                field.name,
                getattr(self, field.name) + int(other.get(field.name, 0)),
            )

    def summary_line(self) -> str:
        """The one-line report behind ``hydra-c campaign --stats``."""
        return (
            f"campaign: {self.design_dedup_hits} design-dedup hits, "
            f"{self.batched_trials} batched "
            f"({self.compiled_trials} compiled) / "
            f"{self.fallback_trials} fallback design-trials"
        )


@dataclass(frozen=True)
class SchemeTrialOutcome:
    """One scheme's numbers from one trial."""

    latencies: Tuple[Optional[int], ...]
    context_switches: int
    migrations: int
    preemptions: int

    @property
    def detected_latencies(self) -> List[int]:
        return [latency for latency in self.latencies if latency is not None]

    @property
    def num_attacks(self) -> int:
        return len(self.latencies)

    @property
    def num_detected(self) -> int:
        return len(self.detected_latencies)

    def to_json(self) -> Dict[str, object]:
        return {
            "latencies": list(self.latencies),
            "context_switches": self.context_switches,
            "migrations": self.migrations,
            "preemptions": self.preemptions,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "SchemeTrialOutcome":
        return cls(
            latencies=tuple(
                int(latency) if latency is not None else None
                for latency in payload["latencies"]
            ),
            context_switches=int(payload["context_switches"]),
            migrations=int(payload["migrations"]),
            preemptions=int(payload["preemptions"]),
        )


@dataclass(frozen=True)
class TrialRecord:
    """All schemes' outcomes for one trial (the checkpoint unit)."""

    trial_index: int
    seed: int
    outcomes: Mapping[str, SchemeTrialOutcome]

    def to_json(self) -> Dict[str, object]:
        return {
            "trial_index": self.trial_index,
            "seed": self.seed,
            "schemes": {
                scheme: outcome.to_json()
                for scheme, outcome in self.outcomes.items()
            },
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "TrialRecord":
        return cls(
            trial_index=int(payload["trial_index"]),
            seed=int(payload["seed"]),
            outcomes={
                scheme: SchemeTrialOutcome.from_json(outcome)
                for scheme, outcome in payload["schemes"].items()
            },
        )


class CampaignRunner:
    """Evaluate campaign trials for one spec (one instance per process).

    Design integration happens once, up front: every selected scheme must
    admit the rover workload, otherwise the campaign is misconfigured and
    fails fast with a one-line :class:`~repro.errors.ConfigurationError`
    (before any trial has been paid for).
    """

    def __init__(self, spec: CampaignSpec) -> None:
        self._spec = spec
        self._platform = Platform.dual_core(name="rpi3-rover")
        self._taskset = rover_taskset()
        self._monitors = rover_monitors(self._taskset)
        self._simulator_cls = resolve_backend(spec.backend)
        # The rover's legacy RT partition is the shared RT_PARTITION phase;
        # schemes that do not consume it (GLOBAL-TMax, the re-partitioning
        # variants) simply ignore the bundle.  The shared RTA context runs
        # on the default kernel tier and carries the campaign's platform
        # model, so a lock-using protocol's blocking terms inflate every
        # scheme's design-time analysis (under the default protocol the
        # context is blocking-free and the designs are unchanged).
        context = RtaContext(
            self._platform, platform_model=spec.platform_model
        )
        context.prime_blocking(self._taskset)
        shared = SharedPhases(
            rt_allocation=Allocation(dict(rover_rt_allocation())),
            rta_context=context,
        )
        self._designs = {}
        for name in spec.schemes:
            plugin = REGISTRY.create(name, self._platform)
            try:
                design = plugin.design(self._taskset, shared)
            except (UnschedulableError, AllocationError) as exc:
                raise ConfigurationError(
                    f"scheme {name!r} cannot schedule the rover workload: {exc}"
                ) from exc
            if not design.schedulable:
                raise ConfigurationError(
                    f"scheme {name!r} rejects the rover workload "
                    f"(metadata: {design.metadata})"
                )
            self._designs[name] = design
        self._design_keys = {
            name: _design_key(design) for name, design in self._designs.items()
        }

    @property
    def spec(self) -> CampaignSpec:
        return self._spec

    @property
    def designs(self):
        return dict(self._designs)

    def design_groups(
        self, schemes: Optional[Sequence[str]] = None
    ) -> List[List[str]]:
        """Scheme names grouped by canonically equal design.

        Groups (and the names inside them) appear in spec order; the first
        name of each group is the representative whose design is
        simulated.  With ``spec.dedup`` off, every scheme is its own
        group.
        """
        selected = list(self._designs if schemes is None else schemes)
        if not self._spec.dedup:
            return [[name] for name in selected]
        groups: Dict[object, List[str]] = {}
        for name in selected:
            groups.setdefault(self._design_keys[name], []).append(name)
        return list(groups.values())

    def run_trial(self, trial: TrialSpec) -> TrialRecord:
        """Evaluate one trial under every scheme (paired randomness)."""
        return self.run_trials([trial])[0]

    def run_trials(
        self,
        trials: Sequence[TrialSpec],
        schemes: Optional[Sequence[str]] = None,
        stats: Optional[CampaignStats] = None,
    ) -> List[TrialRecord]:
        """Evaluate a block of trials, one simulation per distinct design.

        *schemes* restricts evaluation to a subset of the spec's schemes
        (used by the orchestrator's per-design-group worker slicing); the
        returned records then carry outcomes for that subset only, in the
        given order.  *stats* accumulates fast-path counters in place.
        """
        selected = tuple(self._designs if schemes is None else schemes)
        inputs = [self._trial_inputs(trial) for trial in trials]
        outcome_maps: List[Dict[str, SchemeTrialOutcome]] = [
            {} for _ in trials
        ]
        for group in self.design_groups(selected):
            design = self._designs[group[0]]
            outcomes = self._simulate_design(design, inputs, stats)
            for index in range(len(trials)):
                for name in group:
                    outcome_maps[index][name] = outcomes[index]
            if stats is not None:
                stats.design_dedup_hits += (len(group) - 1) * len(trials)
        return [
            TrialRecord(
                trial_index=trial.trial_index,
                seed=trial.seed,
                # Reporting order (and the checkpoint byte format) follows
                # the scheme selection, not the dedup grouping.
                outcomes={name: outcome_maps[index][name] for name in selected},
            )
            for index, trial in enumerate(trials)
        ]

    def _trial_inputs(self, trial: TrialSpec) -> BatchTrialInput:
        """Draw one trial's randomness (attacks first, then jitter)."""
        spec = self._spec
        rng = np.random.default_rng(trial.seed)
        scenario = generate_attacks(
            self._monitors,
            spec.horizon,
            rng=rng,
            latest_injection_fraction=spec.latest_injection_fraction,
        )
        jitter: Dict[str, int] = {}
        if spec.jitter.kind == "uniform":
            # One offset per task, drawn in task-set order *after* the
            # attacks so the attack stream matches the jitter-free campaign
            # with the same seed.
            jitter = {
                task.name: int(rng.integers(0, spec.jitter.max_offset + 1))
                for task in self._taskset.all_tasks
            }
        return BatchTrialInput(scenario=scenario, release_jitter=jitter)

    def _simulate_design(
        self,
        design,
        inputs: Sequence[BatchTrialInput],
        stats: Optional[CampaignStats],
    ) -> List[SchemeTrialOutcome]:
        """One design's outcomes for every trial of the block."""
        spec = self._spec
        if spec.backend == "batch":
            batch = simulate_trials_batched(
                design,
                self._monitors,
                inputs,
                spec.horizon,
                platform=spec.platform_model,
            )
            if stats is not None:
                stats.batched_trials += batch.batched_trials
                stats.compiled_trials += batch.compiled_trials
                stats.fallback_trials += batch.fallback_trials
            return [
                SchemeTrialOutcome(
                    latencies=result.latencies,
                    context_switches=result.context_switches,
                    migrations=result.migrations,
                    preemptions=result.preemptions,
                )
                for result in batch.results
            ]
        outcomes: List[SchemeTrialOutcome] = []
        for trial_input in inputs:
            config = SimulationConfig(
                horizon=spec.horizon,
                release_jitter=trial_input.release_jitter,
                platform=spec.platform_model,
            )
            trace = self._simulator_cls.from_design(design, config).run()
            detections = evaluate_detection(
                trace, self._monitors, trial_input.scenario
            )
            outcomes.append(
                SchemeTrialOutcome(
                    latencies=tuple(result.latency for result in detections),
                    context_switches=trace.context_switches,
                    migrations=trace.migrations,
                    preemptions=trace.preemptions,
                )
            )
        return outcomes


def _design_key(design) -> Tuple:
    """Canonical form of everything about a design the simulator and the
    detection replay can observe.

    Policy, core count, every task's runtime parameters (assigned security
    periods included), every task's resource-claim sections, RT and
    security alike (a lock-using platform model branches on them), and
    both allocations.  Scheme name, response times and metadata never
    enter the simulation, so designs equal under this key produce
    byte-identical trial outcomes for any trial and any platform model.
    """
    taskset = design.taskset
    rt_tasks = tuple(
        (
            task.name,
            task.wcet,
            task.period,
            task.deadline,
            task.priority,
            _claims_key(task),
        )
        for task in taskset.rt_tasks
    )
    security_tasks = tuple(
        (
            task.name,
            task.wcet,
            task.effective_period,
            task.priority,
            _claims_key(task),
        )
        for task in taskset.security_tasks
    )
    rt_allocation = (
        tuple(sorted(dict(design.rt_allocation.as_dict()).items()))
        if design.rt_allocation is not None
        else None
    )
    security_allocation = (
        tuple(sorted(dict(design.security_allocation.as_dict()).items()))
        if design.security_allocation is not None
        else None
    )
    return (
        design.policy.value,
        design.platform.num_cores,
        rt_tasks,
        security_tasks,
        rt_allocation,
        security_allocation,
    )


def _claims_key(task) -> Tuple:
    """A task's resource-claim sections as a hashable tuple."""
    return tuple(
        (claim.resource, claim.start, claim.duration) for claim in task.claims
    )
