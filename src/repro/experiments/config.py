"""Experiment configuration: the paper's Table 3 encoded as data.

``TABLE3_PARAMETERS`` mirrors the published table verbatim;
:class:`ExperimentConfig` adds the reproduction-specific knobs (how many
task sets per utilization group, how many worker processes, the random
seed) with defaults chosen so the benchmark suite completes in minutes on a
laptop.  The paper's full scale (250 task sets per group) is available by
setting ``tasksets_per_group=250``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.period_selection import SearchMode, normalise_search_mode
from repro.errors import ConfigurationError
from repro.generation.taskset_generator import TasksetGenerationConfig
from repro.platform import PlatformModel
from repro.rta.compiled import DEFAULT_KERNEL, normalise_kernel
from repro.schemes import REGISTRY

__all__ = ["TABLE3_PARAMETERS", "UTILIZATION_GROUPS", "ExperimentConfig"]


#: Verbatim encoding of the paper's Table 3.
TABLE3_PARAMETERS: Dict[str, object] = {
    "process_cores": (2, 4),
    "num_rt_tasks_range_per_core": (3, 10),
    "num_security_tasks_range_per_core": (2, 5),
    "period_distribution": "log-uniform",
    "rt_task_allocation": "best-fit",
    "rt_task_period_ms": (10, 1000),
    "security_max_period_ms": (1500, 3000),
    "security_utilization_share_of_rt": 0.3,
    "base_utilization_groups": 10,
    "tasksets_per_group": 250,
}

#: The ten normalized-utilization groups ``[(0.01 + 0.1 i), (0.1 + 0.1 i)]``.
UTILIZATION_GROUPS: Tuple[Tuple[float, float], ...] = tuple(
    (0.01 + 0.1 * i, 0.1 + 0.1 * i) for i in range(10)
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one synthetic design-space sweep.

    Attributes
    ----------
    num_cores:
        Platform size ``M`` (the paper evaluates 2 and 4).
    tasksets_per_group:
        Task sets generated per utilization group.  The paper uses 250; the
        default is smaller so the benchmark harness runs in minutes -- the
        acceptance/period curves are already stable at this sample size.
    utilization_groups:
        Normalized-utilization ranges to sweep.
    seed:
        Base random seed, non-negative (each group derives its own stream).
    n_jobs:
        Worker processes for the sweep (1 = run in-process).
    chunk_size:
        Task sets evaluated between two checkpoints/progress reports.  A
        chunk is the unit of checkpoint durability: a killed sweep resumes
        from the last completed chunk.
    checkpoint_path:
        Optional plain path of the resumable JSONL checkpoint file
        (:class:`~repro.batch.store.JsonlResultStore`; a path starting
        with a former checkpoint-URI prefix, ``jsonl:``, ``sqlite:`` or
        ``shards:``, is refused).  ``None`` (the default) runs the sweep
        uncheckpointed.  Neither this nor
        ``chunk_size`` nor ``n_jobs`` affects the sweep's results -- only
        how the work is executed and persisted.
    schemes:
        Registered scheme names to evaluate, in reporting order (the sweep
        columns).  ``None`` selects the paper's four canonical schemes.
        Validated against :data:`repro.schemes.REGISTRY` and normalised to
        a tuple, so it participates in the checkpoint fingerprint.
    search_mode:
        HYDRA-C's Algorithm 2 period-search mode (``"binary"`` or
        ``"linear"``).  Both modes select identical periods (feasibility is
        monotone in the period; pinned by ``tests/core``), so this is a
        performance/ablation knob -- but it is still part of the checkpoint
        fingerprint, so a resume under a different mode is rejected instead
        of silently mixing runs.
    kernel:
        Fixed-point kernel tier (``"auto"``, the default, ``"python"`` or
        ``"compiled"``, see :mod:`repro.rta.compiled`).  Results are
        byte-equal across tiers (pinned by the differential suites and the
        golden figure outputs), so -- unlike ``search_mode`` -- this knob is
        deliberately *not* part of the checkpoint fingerprint: a sweep may
        be resumed under a different kernel without mixing anything.
    scheduler / protocol / overheads:
        The platform-model selection (see :mod:`repro.platform`), one
        canonical string per registry axis.  The defaults
        (``rm``/``none``/``zero``) are the paper's platform and reproduce
        every golden pin byte-for-byte.  All three are checkpoint-
        fingerprint relevant: a sweep analysed under a different platform
        model is a different experiment, so resuming across models is
        rejected.
    """

    num_cores: int = 2
    tasksets_per_group: int = 40
    utilization_groups: Sequence[Tuple[float, float]] = UTILIZATION_GROUPS
    seed: int = 2020
    n_jobs: int = 1
    chunk_size: int = 25
    checkpoint_path: Optional[str] = None
    schemes: Optional[Sequence[str]] = None
    search_mode: str = SearchMode.BINARY.value
    kernel: str = DEFAULT_KERNEL
    scheduler: str = "rm"
    protocol: str = "none"
    overheads: str = "zero"

    def __post_init__(self) -> None:
        resolved = REGISTRY.resolve(self.schemes)
        object.__setattr__(
            self, "schemes", tuple(spec.name for spec in resolved)
        )
        object.__setattr__(
            self, "search_mode", normalise_search_mode(self.search_mode).value
        )
        object.__setattr__(self, "kernel", normalise_kernel(self.kernel))
        # Validate the platform selection and canonicalise the overhead
        # spelling (const:5 -> const:5,0) so equal models fingerprint equal.
        model = PlatformModel.parse(self.scheduler, self.protocol, self.overheads)
        object.__setattr__(self, "overheads", model.overheads.describe())
        if self.num_cores < 1:
            raise ConfigurationError("num_cores must be >= 1")
        if self.tasksets_per_group < 1:
            raise ConfigurationError("tasksets_per_group must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.n_jobs < 1:
            raise ConfigurationError("n_jobs must be >= 1")
        if self.chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        for low, high in self.utilization_groups:
            if not 0.0 < low <= high <= 1.0:
                raise ConfigurationError(
                    f"invalid utilization group ({low}, {high})"
                )

    @property
    def platform_model(self) -> PlatformModel:
        """The validated platform-model bundle of this sweep."""
        return PlatformModel.parse(self.scheduler, self.protocol, self.overheads)

    def generation_config(self) -> TasksetGenerationConfig:
        """The matching Table-3 taskset-generator configuration."""
        return TasksetGenerationConfig(num_cores=self.num_cores)

    def group_labels(self) -> List[str]:
        """Human-readable labels like ``"[0.2,0.3]"`` for tables/plots."""
        return [f"[{low:.1f},{high:.1f}]" for low, high in self.utilization_groups]
