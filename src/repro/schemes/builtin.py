"""Built-in scheme plugins: the paper's four schemes plus variants.

Importing this module (which :mod:`repro.schemes` does) registers every
built-in scheme in :data:`repro.schemes.registry.REGISTRY`.  The canonical
four are registered first, in the paper's legend order, because
``SCHEME_NAMES`` and the default sweep columns are derived from
``REGISTRY.canonical_names()``.

The plugins are thin adapters: each wraps an existing scheme class
(:class:`~repro.core.framework.HydraC`, the :mod:`repro.baselines`, or a
variant from :mod:`repro.schemes.variants`), forwards whichever shared
phases the scheme consumes, and relabels the resulting design with the
registered name so parameterised variants are distinguishable downstream
(result records, traces, reports).
"""

from __future__ import annotations

import dataclasses

from repro.baselines.global_tmax import GlobalTMax
from repro.baselines.hydra import Hydra
from repro.baselines.hydra_tmax import HydraTMax
from repro.core.analysis import CarryInStrategy
from repro.core.framework import HydraC, SchedulingPolicy, SystemDesign
from repro.model.platform import Platform
from repro.model.taskset import TaskSet
from repro.partitioning.heuristics import FitStrategy
from repro.core.period_selection import SearchMode
from repro.schemes.registry import (
    REGISTRY,
    DesignOptions,
    Phase,
    SchemePlugin,
    SchemeRegistry,
    SchemeSpec,
    SharedPhases,
)
from repro.schemes.variants import RandomFitHydra

__all__ = [
    "HydraCPlugin",
    "RepartitioningHydraCPlugin",
    "HydraFamilyPlugin",
    "GlobalTMaxPlugin",
]

#: Phase sets, named once so specs below stay readable.
_LEGACY_PARTITION = frozenset({Phase.RT_PARTITION, Phase.EQ1_RT_CHECK})
_FULL_SHARING = _LEGACY_PARTITION | {Phase.MAXPERIOD_SECURITY_ALLOCATION}


class _RelabelingPlugin(SchemePlugin):
    """Base adapter: run the wrapped scheme, stamp the registered name."""

    def __init__(self, name: str) -> None:
        self._name = name

    def _relabel(self, design: SystemDesign) -> SystemDesign:
        if design.scheme == self._name:
            return design
        return dataclasses.replace(design, scheme=self._name)


class _HydraCBasedPlugin(_RelabelingPlugin):
    """Base for plugins wrapping :class:`HydraC`: rebuild on configure.

    Subclasses implement :meth:`_build` from their own knobs plus the
    shared ``self._search_mode``; ``configure`` threads every future
    :class:`DesignOptions` knob through one place instead of per plugin.
    """

    def __init__(self, platform: Platform, name: str) -> None:
        super().__init__(name)
        self._platform = platform
        self._search_mode = SearchMode.BINARY
        self._impl = self._build()

    def _build(self) -> HydraC:
        raise NotImplementedError

    def configure(self, options: DesignOptions) -> None:
        self._search_mode = options.search_mode
        self._impl = self._build()


class HydraCPlugin(_HydraCBasedPlugin):
    """HYDRA-C on the legacy RT partition (canonical + carry-in variants)."""

    def __init__(
        self,
        platform: Platform,
        name: str = "HYDRA-C",
        carry_in_strategy: CarryInStrategy = CarryInStrategy.AUTO,
    ) -> None:
        self._carry_in_strategy = carry_in_strategy
        super().__init__(platform, name)

    def _build(self) -> HydraC:
        return HydraC(
            self._platform,
            carry_in_strategy=self._carry_in_strategy,
            search_mode=self._search_mode,
        )

    def design(self, taskset: TaskSet, shared: SharedPhases) -> SystemDesign:
        return self._relabel(
            self._impl.design(
                taskset,
                shared.rt_mapping(),
                rt_check=shared.rt_check,
                rta_context=shared.rta_context,
            )
        )


class RepartitioningHydraCPlugin(_HydraCBasedPlugin):
    """HYDRA-C that discards the legacy partition and packs RT tasks itself.

    Consumes *no* shared phase: the legacy allocation and its Eq. 1 check do
    not apply to a different partition, so the plugin lets
    :class:`~repro.core.framework.HydraC` derive both.  Its partitioning
    and period selection still run on the task set's shared kernel
    context, like every other scheme's: the context's tier, its
    resource-protocol blocking terms and its
    :class:`~repro.rta.KernelStats` apply to this plugin too.  A task set
    whose RT tasks do not fit under the variant's packing strategy raises
    :class:`~repro.errors.AllocationError`, which the batch service records
    as a rejection.
    """

    def __init__(
        self, platform: Platform, name: str, strategy: FitStrategy
    ) -> None:
        self._strategy = strategy
        super().__init__(platform, name)

    def _build(self) -> HydraC:
        return HydraC(
            self._platform,
            rt_partition_strategy=self._strategy,
            search_mode=self._search_mode,
        )

    def design(self, taskset: TaskSet, shared: SharedPhases) -> SystemDesign:
        return self._relabel(
            self._impl.design(taskset, rta_context=shared.rta_context)
        )


class HydraFamilyPlugin(_RelabelingPlugin):
    """Fully partitioned schemes built on :class:`~repro.baselines.hydra.Hydra`.

    ``share_allocation`` distinguishes the schemes whose allocation phase is
    the shared greedy best-fit at maximum periods (HYDRA, HYDRA-TMax) from
    variants with their own allocation rule (HYDRA-RF), which must not
    consume -- nor accidentally receive -- the shared result.
    """

    def __init__(
        self,
        platform: Platform,
        name: str,
        impl: Hydra,
        share_allocation: bool = True,
    ) -> None:
        super().__init__(name)
        self._impl = impl
        self._share_allocation = share_allocation

    def design(self, taskset: TaskSet, shared: SharedPhases) -> SystemDesign:
        # rt_by_core is materialised by the allocation phase.  Recomputing
        # it is pure and cheap, so withholding it from plugins that did not
        # declare that phase costs ~nothing and keeps the capability
        # contract strict: a scheme's inputs never depend on which other
        # schemes happen to be co-selected.
        share = self._share_allocation
        return self._relabel(
            self._impl.design(
                taskset,
                shared.rt_mapping(),
                rt_check=shared.rt_check,
                security_allocation=(
                    shared.security_allocation if share else None
                ),
                rt_by_core=shared.rt_by_core if share else None,
                rta_context=shared.rta_context,
            )
        )


class GlobalTMaxPlugin(_RelabelingPlugin):
    """GLOBAL-TMax: ignores every partition-related phase.

    It still runs on the task set's shared kernel context, so its
    fixed-point solves are counted in the same
    :class:`~repro.rta.KernelStats` as every other scheme's activity.
    """

    def __init__(self, platform: Platform, name: str = "GLOBAL-TMax") -> None:
        super().__init__(name)
        self._impl = GlobalTMax(platform)

    def design(self, taskset: TaskSet, shared: SharedPhases) -> SystemDesign:
        return self._relabel(
            self._impl.design(taskset, rta_context=shared.rta_context)
        )


def register_builtin_schemes(registry: SchemeRegistry = REGISTRY) -> None:
    """Register the four canonical schemes and the built-in variants."""
    for spec in _builtin_specs():
        registry.register(spec)


def _builtin_specs():
    # -- the paper's four (canonical, legend order) ---------------------------
    yield SchemeSpec(
        name="HYDRA-C",
        factory=lambda platform: HydraCPlugin(platform),
        policy=SchedulingPolicy.SEMI_PARTITIONED,
        adapts_periods=True,
        phases=_LEGACY_PARTITION,
        canonical=True,
        description="semi-partitioned, migrating security tasks, adapted periods (the paper's contribution)",
    )
    yield SchemeSpec(
        name="HYDRA",
        factory=lambda platform: HydraFamilyPlugin(
            platform, "HYDRA", Hydra(platform)
        ),
        policy=SchedulingPolicy.PARTITIONED,
        adapts_periods=True,
        phases=_FULL_SHARING,
        canonical=True,
        description="fully partitioned best-fit allocation, per-core adapted periods (prior work)",
    )
    yield SchemeSpec(
        name="GLOBAL-TMax",
        factory=lambda platform: GlobalTMaxPlugin(platform),
        policy=SchedulingPolicy.GLOBAL,
        adapts_periods=False,
        phases=frozenset(),
        canonical=True,
        description="global fixed-priority scheduling, periods pinned to the maxima",
    )
    yield SchemeSpec(
        name="HYDRA-TMax",
        factory=lambda platform: HydraFamilyPlugin(
            platform, "HYDRA-TMax", HydraTMax(platform)
        ),
        policy=SchedulingPolicy.PARTITIONED,
        adapts_periods=False,
        phases=_FULL_SHARING,
        canonical=True,
        description="HYDRA allocation, periods pinned to the maxima",
    )
    # -- variants opened up by the registry -----------------------------------
    yield SchemeSpec(
        name="HYDRA-C-FF",
        factory=lambda platform: RepartitioningHydraCPlugin(
            platform, "HYDRA-C-FF", FitStrategy.FIRST_FIT
        ),
        policy=SchedulingPolicy.SEMI_PARTITIONED,
        adapts_periods=True,
        phases=frozenset(),
        description="HYDRA-C re-partitioning the RT tasks first-fit instead of honouring the legacy allocation",
    )
    yield SchemeSpec(
        name="HYDRA-C-WF",
        factory=lambda platform: RepartitioningHydraCPlugin(
            platform, "HYDRA-C-WF", FitStrategy.WORST_FIT
        ),
        policy=SchedulingPolicy.SEMI_PARTITIONED,
        adapts_periods=True,
        phases=frozenset(),
        description="HYDRA-C re-partitioning the RT tasks worst-fit (load-balanced cores)",
    )
    yield SchemeSpec(
        name="HYDRA-C-GC",
        factory=lambda platform: HydraCPlugin(
            platform, "HYDRA-C-GC", carry_in_strategy=CarryInStrategy.GREEDY
        ),
        policy=SchedulingPolicy.SEMI_PARTITIONED,
        adapts_periods=True,
        phases=_LEGACY_PARTITION,
        description="HYDRA-C with the always-greedy (never-optimistic, faster) Eq. 8 carry-in bound",
    )
    yield SchemeSpec(
        name="HYDRA-RF",
        factory=lambda platform: HydraFamilyPlugin(
            platform,
            "HYDRA-RF",
            RandomFitHydra(platform),
            share_allocation=False,
        ),
        policy=SchedulingPolicy.PARTITIONED,
        adapts_periods=True,
        phases=_LEGACY_PARTITION,
        description="HYDRA with a deterministic random-fit allocation (lower bound on the packing heuristic)",
    )
