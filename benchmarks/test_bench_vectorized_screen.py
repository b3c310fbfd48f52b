"""Benchmark: the python-tier pipeline vs. the frozen seed path.

Performance gates on the *period-selection-heavy* slice of the synthetic
workloads -- the columns the allocation-focused RTA-kernel gate does not
cover:

* the Fig. 6 column (2 cores, HYDRA-C only: generation, partitioning,
  Eq. 1 check and the full Algorithm 1/2 period adaptation);
* the Fig. 7b columns (HYDRA-C + HYDRA: adds the shared max-period
  allocation and HYDRA's per-core period minimisation).

The candidate is today's python tier -- per-slot generation whose RT
partitioning takes the flip-free LL/Bini quick-accepts, warm-seeded Eq. 7
fixed points and the exact solve-skipping layers (certification, pins,
Line-8 reuse) -- timed best-of-``_TIMING_ROUNDS``.  The baseline is the
frozen seed oracle (:func:`repro.batch.reference.reference_evaluate_one`),
timed on the one pass each gate runs anyway to assert result identity.

The bars carry two retired gates over onto the frozen baseline.  Those
gates compared against since-deleted profiles: the cold kernel without
column screens or warm seeds, and the warm-seeded vectorized path without
solve-skipping.  Measured on one 2-vCPU host (5 sets/group, best of 3),
the frozen path was 5.6x slower than the cold profile on the Fig. 6
column, 7.6x on the Fig. 7b columns, and 18.2x slower than the
warm-seeded profile on Fig. 6:

* Fig. 6: ``>= 2x`` over the cold profile becomes ``2 * 5.6 ~ 11x`` and
  the solve-skipping ``>= 1.2x`` over the warm-seeded profile becomes
  ``1.2 * 18.2 ~ 22x`` -- the gate takes the stronger, **22x**;
* Fig. 7b: ``>= 2x`` over the cold profile becomes ``2 * 7.6 ~ 15x``.
"""

import time

from repro.batch.orchestrator import build_specs
from repro.batch.reference import reference_evaluate_one
from repro.batch.service import BatchDesignService
from repro.experiments.config import ExperimentConfig

#: The Fig. 6 column is defined by HYDRA-C's adapted periods alone; the
#: Fig. 7b series additionally compare against HYDRA's.
FIG6_SCHEMES = ("HYDRA-C",)
FIG7B_SCHEMES = ("HYDRA-C", "HYDRA")

#: Candidate passes; the fastest is compared (the frozen pass is long
#: enough that one run is stable).
_TIMING_ROUNDS = 3


def _gate(benchmark, tasksets_per_group, schemes, seed, min_speedup):
    config = ExperimentConfig(
        num_cores=2,
        tasksets_per_group=tasksets_per_group,
        seed=seed,
        schemes=schemes,
    )
    specs = build_specs(config)
    # The python tier explicitly: the default tier is the compiled backend
    # wherever it builds, which runs none of the solve-skipping layers.
    service = BatchDesignService(
        config.num_cores, scheme_names=schemes, kernel="python"
    )
    timings = {"candidate": float("inf")}

    def run_column():
        outcomes = None
        for _ in range(_TIMING_ROUNDS):
            start = time.perf_counter()
            outcomes = service.evaluate_specs(specs)
            elapsed = time.perf_counter() - start
            timings["candidate"] = min(timings["candidate"], elapsed)
        return outcomes

    column = benchmark.pedantic(run_column, rounds=1, iterations=1)

    start = time.perf_counter()
    frozen = [
        reference_evaluate_one(
            config.num_cores,
            spec.group_index,
            spec.normalized_range,
            spec.seed,
            scheme_names=schemes,
        )
        for spec in specs
    ]
    timings["frozen"] = time.perf_counter() - start
    assert column == frozen

    # An untimed replay with a stats sink records the layers' activity.
    sink = {}
    service.evaluate_specs(specs, stats_sink=sink)

    speedup = timings["frozen"] / timings["candidate"]
    benchmark.extra_info["seconds"] = round(timings["candidate"], 3)
    benchmark.extra_info["baseline_seconds"] = round(timings["frozen"], 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["stats"] = {
        key: value for key, value in sink.items() if value
    }
    assert speedup >= min_speedup, (
        f"python tier only {speedup:.2f}x over the frozen seed path "
        f"({timings['candidate']:.2f}s vs {timings['frozen']:.2f}s)"
    )
    return sink


def test_bench_vectorized_screen_fig6_column(benchmark, tasksets_per_group):
    sink = _gate(
        benchmark, tasksets_per_group, FIG6_SCHEMES, seed=5061, min_speedup=22.0
    )
    # The exact solve-skipping layers carry part of this bar.
    skipped = (
        sink["dedup_pinned_sets"]
        + sink["dedup_pinned_solves"]
        + sink["dedup_certified_sets"]
        + sink["dedup_refresh_reuses"]
    )
    assert skipped > 0, "solve-skipping idle on the workload"


def test_bench_vectorized_screen_fig7b_columns(benchmark, tasksets_per_group):
    _gate(
        benchmark, tasksets_per_group, FIG7B_SCHEMES, seed=5062, min_speedup=15.0
    )


def test_bench_screens_and_seeds_fire_on_the_bench_workload(benchmark):
    """The quick-accepts and warm seeds are load-bearing on this workload."""
    config = ExperimentConfig(
        num_cores=2,
        tasksets_per_group=2,
        seed=5061,
        schemes=FIG7B_SCHEMES,
    )
    specs = build_specs(config)
    # The per-probe quick-accepts are python-tier layers.
    service = BatchDesignService(
        config.num_cores, scheme_names=FIG7B_SCHEMES, kernel="python"
    )
    sink = {}
    benchmark.pedantic(
        lambda: service.evaluate_specs(specs, stats_sink=sink),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["stats"] = {
        key: value for key, value in sink.items() if value
    }
    assert sink["seeded_solves"] > 0
    assert sink["ll_accepts"] + sink["bound_accepts"] > 0
    assert sink["exact_solves"] > 0  # the shortcuts decide, the kernel verifies
