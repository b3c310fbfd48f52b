"""Benchmark: the unified RTA kernel vs. the frozen pre-kernel paths.

The ISSUE-4 performance gate, on the *allocation-heavy* slice of the
Fig. 7a workload (2 cores, ten utilization groups, the HYDRA /
HYDRA-TMax / GLOBAL-TMax columns -- no HYDRA-C period search, so the
measured work is RT bin packing, the Eq. 1 partition check, greedy
security allocation, per-core period assignment and the global
carry-in-limited analysis): the kernel-backed batch pipeline must evaluate
the same task-set stream at least 2x faster than the frozen seed path
(:mod:`repro.batch.reference`), while producing identical results.  The
gate runs the python kernel tier and compares the fastest of three
interleaved rounds of each pass.

A second test pins where the speedup comes from: the kernel's accept-only
admission shortcuts fire (and are observable through the context stats),
and one shared :class:`~repro.rta.RtaContext` serves every phase of a
task set.
"""

import time

import pytest

from repro.batch.orchestrator import build_specs
from repro.batch.reference import reference_evaluate_one
from repro.batch.service import BatchDesignService
from repro.experiments.config import ExperimentConfig
from repro.rta import RtaContext

#: The Fig. 7a columns whose evaluation is dominated by packing and
#: admission analysis rather than HYDRA-C's period search.
ALLOCATION_SCHEMES = ("HYDRA", "HYDRA-TMax", "GLOBAL-TMax")

#: Interleaved rounds of the kernel pass and the frozen pass; the fastest
#: of each is compared, so a slow stretch of a shared host that hits one
#: side's single pass cannot decide the gate.
_TIMING_ROUNDS = 3


def test_bench_rta_kernel_speedup(benchmark, tasksets_per_group):
    config = ExperimentConfig(
        num_cores=2,
        tasksets_per_group=tasksets_per_group,
        seed=4043,
        schemes=ALLOCATION_SCHEMES,
    )
    specs = build_specs(config)
    # The python tier explicitly (the default tier is the compiled backend
    # wherever it builds).
    service = BatchDesignService(
        config.num_cores, scheme_names=ALLOCATION_SCHEMES, kernel="python"
    )
    timings = {"kernel": float("inf"), "seed": float("inf")}

    def timed(name, run):
        start = time.perf_counter()
        outcomes = run()
        timings[name] = min(timings[name], time.perf_counter() - start)
        return outcomes

    def run_rounds():
        passes = []
        for _ in range(_TIMING_ROUNDS):
            kernel = timed(
                "kernel", lambda: [service.evaluate_spec(spec) for spec in specs]
            )
            seed_path = timed(
                "seed",
                lambda: [
                    reference_evaluate_one(
                        config.num_cores,
                        spec.group_index,
                        spec.normalized_range,
                        spec.seed,
                        scheme_names=ALLOCATION_SCHEMES,
                    )
                    for spec in specs
                ],
            )
            passes.append((kernel, seed_path))
        return passes

    passes = benchmark.pedantic(run_rounds, rounds=1, iterations=1)

    # Cross-validation on the benchmark workload itself: the kernel is an
    # exact behavioural refactor of the frozen seed path.
    for kernel, seed_path in passes:
        assert kernel == seed_path

    speedup = timings["seed"] / timings["kernel"]
    benchmark.extra_info["seed_seconds"] = round(timings["seed"], 3)
    benchmark.extra_info["kernel_seconds"] = round(timings["kernel"], 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 2.0, (
        f"RTA kernel only {speedup:.2f}x faster than the frozen seed path "
        f"({timings['kernel']:.2f}s vs {timings['seed']:.2f}s)"
    )


def test_bench_kernel_shortcuts_fire_on_the_bench_workload(benchmark, monkeypatch):
    """The quick-accept shortcuts are load-bearing on this workload."""
    config = ExperimentConfig(
        num_cores=2,
        tasksets_per_group=2,
        seed=4043,
        schemes=ALLOCATION_SCHEMES,
    )
    specs = build_specs(config)
    # The shortcuts are python-tier layers (the compiled tier packs each
    # task set in one exact C call).
    service = BatchDesignService(
        config.num_cores, scheme_names=ALLOCATION_SCHEMES, kernel="python"
    )
    contexts = []

    original = RtaContext.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        contexts.append(self)

    monkeypatch.setattr(RtaContext, "__init__", recording_init)
    benchmark.pedantic(
        lambda: [service.evaluate_spec(spec) for spec in specs],
        rounds=1,
        iterations=1,
    )

    assert contexts, "the batch service should create kernel contexts"
    ll_accepts = sum(context.stats.ll_accepts for context in contexts)
    bound_accepts = sum(context.stats.bound_accepts for context in contexts)
    exact_solves = sum(context.stats.exact_solves for context in contexts)
    benchmark.extra_info["ll_accepts"] = ll_accepts
    benchmark.extra_info["bound_accepts"] = bound_accepts
    benchmark.extra_info["exact_solves"] = exact_solves
    assert ll_accepts + bound_accepts > 0
    assert exact_solves > 0
