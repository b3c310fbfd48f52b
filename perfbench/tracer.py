"""Outside-in span tracing of the ``repro`` layers.

Spans are recorded from the benchmark's side only: :func:`installed`
replaces public functions and methods of the program with thin wrappers at
the name the program calls them through (the import site), so no file of
the program changes, and restores the originals on exit.

Every wrapper pushes a span on one in-memory stack, times it with
``perf_counter_ns`` and, on exit, charges its duration minus the time its
child spans covered as *self time*.  Self times of all spans plus the
untraced remainder therefore sum to the traced wall clock exactly.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "SpanTotals", "installed"]


class SpanTotals:
    """Aggregate of every span of one name."""

    __slots__ = ("calls", "self_ns", "total_ns", "durations_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.durations_ns: List[int] = []


class Tracer:
    """In-memory span recorder (one per traced pass)."""

    def __init__(self) -> None:
        self.spans: Dict[str, SpanTotals] = {}
        #: Open spans: ``[name, start_ns, child_ns]`` per level.
        self._stack: List[list] = []
        #: Values the wrappers pull out of results (e.g. analysis calls).
        self.values: Dict[str, int] = {}

    def call(self, name: str, func: Callable, args, kwargs):
        stack = self._stack
        frame = [name, time.perf_counter_ns(), 0]
        stack.append(frame)
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - frame[1]
            totals = self.spans.get(name)
            if totals is None:
                totals = self.spans[name] = SpanTotals()
            totals.calls += 1
            totals.total_ns += duration
            totals.self_ns += duration - frame[2]
            totals.durations_ns.append(duration)
            if stack:
                stack[-1][2] += duration

    def add_value(self, key: str, amount: int) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def self_seconds(self, name: str) -> float:
        totals = self.spans.get(name)
        return totals.self_ns / 1e9 if totals else 0.0

    def total_seconds(self, name: str) -> float:
        totals = self.spans.get(name)
        return totals.total_ns / 1e9 if totals else 0.0

    def calls(self, name: str) -> int:
        totals = self.spans.get(name)
        return totals.calls if totals else 0

    def durations_ms(self, name: str) -> List[float]:
        totals = self.spans.get(name)
        return [d / 1e6 for d in totals.durations_ns] if totals else []

    def self_sum_seconds(self) -> float:
        return sum(totals.self_ns for totals in self.spans.values()) / 1e9


def _wrap(tracer: Tracer, name, func: Callable, on_result=None) -> Callable:
    """A wrapper recording *func* as span *name*.

    ``name`` is a string or a callable ``(args) -> str`` (for spans named
    after the receiver, e.g. one span per scheme plugin).
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = name(args) if callable(name) else name
        result = tracer.call(span, func, args, kwargs)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return wrapper


def _count_analysis_calls(tracer: Tracer, result) -> None:
    tracer.add_value("core.analysis_calls", int(result.analysis_calls))


def _targets() -> List[Tuple[object, str, object, Optional[Callable]]]:
    """``(owner, attribute, span name, result hook)`` for every wrapped call.

    Owners are the modules (import sites) and classes the program resolves
    the callable through at call time.
    """
    import repro.baselines.global_tmax as global_tmax
    import repro.baselines.hydra as hydra
    import repro.batch.orchestrator as batch_orchestrator
    import repro.batch.service as batch_service
    import repro.campaign as campaign
    import repro.campaign.orchestrator as campaign_orchestrator
    import repro.campaign.trial as campaign_trial
    import repro.core.framework as framework
    import repro.exec as repro_exec
    import repro.experiments.fig6_period_distance as fig6
    import repro.experiments.fig7a_acceptance as fig7a
    import repro.experiments.fig7b_period_diff as fig7b
    import repro.generation.taskset_generator as taskset_generator
    import repro.rta.vectorized as vectorized
    import repro.schemes.builtin as builtin
    import repro.schemes.variants as variants
    import repro.serve.service as serve_service
    import repro.sim.fast as sim_fast
    import repro.storage.jsonl as storage_jsonl

    def scheme_span(args) -> str:
        return f"schemes.{args[0]._name}.design"

    targets = [
        (framework, "select_periods", "core.select_periods", _count_analysis_calls),
        (hydra.Hydra, "allocate_security", "baselines.hydra_allocate", None),
        (variants.RandomFitHydra, "allocate_security", "baselines.hydra_allocate", None),
        (hydra.Hydra, "design", "baselines.hydra_design", None),
        (global_tmax.GlobalTMax, "design", "baselines.global_tmax", None),
        (batch_service, "partitioned_rt_check", "rta.eq1_check", None),
        (taskset_generator.TasksetGenerator, "generate_normalized", "generation", None),
        (vectorized, "partition_column", "partitioning", None),
        (batch_service, "partition_rt_tasks", "partitioning", None),
        (serve_service, "partition_rt_tasks", "partitioning", None),
        (framework, "partition_rt_tasks", "partitioning", None),
        (hydra, "partition_rt_tasks", "partitioning", None),
        (batch_service.BatchDesignService, "evaluate_specs", "batch.evaluate_specs", None),
        (batch_orchestrator.SweepOrchestrator, "run", "batch.orchestration", None),
        (sim_fast.EventCompressedSimulator, "run", "sim.run", None),
        (campaign_trial, "generate_attacks", "security.attack_gen", None),
        (campaign_trial, "evaluate_detection", "security.detection", None),
        (campaign_trial.CampaignRunner, "__init__", "campaign.runner_init", None),
        (campaign_orchestrator.CampaignOrchestrator, "run", "campaign.orchestration", None),
        (campaign, "format_campaign", "campaign.aggregate", None),
        (storage_jsonl.JsonlCheckpointStore, "append_chunk", "storage.append", None),
        (serve_service.AdmissionService, "handle", "serve.handle", None),
        (repro_exec.PersistentPool, "map_chunk", "exec.pool", None),
        (repro_exec.PersistentPool, "submit", "exec.pool", None),
    ]
    for module, figure in ((fig6, "fig6"), (fig7a, "fig7a"), (fig7b, "fig7b")):
        for step in ("compute", "format"):
            targets.append((module, f"{step}_{figure}", "experiments.report", None))
    for plugin in (
        builtin.HydraCPlugin,
        builtin.RepartitioningHydraCPlugin,
        builtin.HydraFamilyPlugin,
        builtin.GlobalTMaxPlugin,
    ):
        targets.append((plugin, "design", scheme_span, None))
    return targets


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target so its calls record spans on *tracer*; restore the
    originals on exit."""
    originals = []
    try:
        for owner, attribute, name, on_result in _targets():
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(tracer, name, original, on_result))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
