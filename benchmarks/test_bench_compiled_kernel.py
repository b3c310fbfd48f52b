"""Benchmark: the compiled kernel tier and structural dedup vs. no dedup.

Performance gates on the Fig. 6 exact-kernel residue (2 cores, HYDRA-C
only -- the workload whose scalar fixed points dominate once the column
screens have run):

* **compiled gate** (needs a working backend, skipped otherwise): the
  compiled tier -- cffi-compiled Eq. 1 fixed points and the one-call
  compiled period selector (Algorithms 1-2, which bypasses the python
  tier's dedup layers) -- must evaluate the same task-set stream at
  least **2x** faster than the vectorized path without dedup
  (``BatchDesignService(dedup=False)``: column screens and warm seeds,
  pure-python kernels, no dedup);
* **dedup-only gate** (runs everywhere, compiler or not): structural
  dedup alone -- pure-python kernels -- must clear **1.2x** on the same
  workload, so the gate holds on compiler-free machines.

Both timed paths must produce results identical to the frozen seed
oracle (:func:`repro.batch.reference.reference_evaluate_one`).  The
tier and dedup counters land in the benchmark's ``extra_info``.
"""

import time

import pytest

from repro.batch.orchestrator import build_specs
from repro.batch.reference import reference_evaluate_one
from repro.batch.service import BatchDesignService
from repro.experiments.config import ExperimentConfig
from repro.rta.compiled import kernel_available

#: The Fig. 6 column is defined by HYDRA-C's adapted periods alone.
FIG6_SCHEMES = ("HYDRA-C",)

#: Dedup-cache scope of the gated runs: one chunk = the whole spec list,
#: matching how ``evaluate_specs`` is called below.
_DEDUP_COUNTER_KEYS = (
    "compiled_solves",
    "dedup_verdict_hits",
    "dedup_verdict_misses",
    "dedup_memo_hits",
    "dedup_memo_misses",
    "dedup_pinned_sets",
    "dedup_pinned_solves",
    "dedup_certified_sets",
    "dedup_refresh_reuses",
)

#: Alternating candidate/baseline passes per side.  Interleaving is what
#: makes the ratio robust: a sequential best-of-N lets thermal drift land
#: entirely on one side, while paired passes see the same machine state.
#: Two rounds left the 1.2x dedup-only gate failing about half its runs on
#: a busy shared 2-vCPU host (best-of-2 ratios 0.97-1.52); best-of-3 read
#: 1.26-1.46 there.
_TIMING_ROUNDS = 3


def _gate(benchmark, tasksets_per_group, kernel, min_speedup, seed=5061):
    config = ExperimentConfig(
        num_cores=2,
        tasksets_per_group=tasksets_per_group,
        seed=seed,
        schemes=FIG6_SCHEMES,
    )
    specs = build_specs(config)
    candidate = BatchDesignService(
        config.num_cores, scheme_names=FIG6_SCHEMES, kernel=kernel, dedup=True
    )
    # The PR 5 vectorized path: column screens + warm seeds, pure-python
    # kernels, no structural dedup.
    pr5_path = BatchDesignService(
        config.num_cores, scheme_names=FIG6_SCHEMES, dedup=False
    )
    timings = {"candidate": float("inf"), "pr5": float("inf")}
    pr5 = None

    def run_candidate():
        nonlocal pr5
        outcomes = None
        for _ in range(_TIMING_ROUNDS):
            start = time.perf_counter()
            outcomes = candidate.evaluate_specs(specs)
            elapsed = time.perf_counter() - start
            timings["candidate"] = min(timings["candidate"], elapsed)
            start = time.perf_counter()
            pr5 = pr5_path.evaluate_specs(specs)
            elapsed = time.perf_counter() - start
            timings["pr5"] = min(timings["pr5"], elapsed)
        return outcomes

    outcomes = benchmark.pedantic(run_candidate, rounds=1, iterations=1)

    # The baseline is itself result-identical to the candidate ...
    assert outcomes == pr5
    # ... and both must equal the frozen seed oracle.
    frozen = [
        reference_evaluate_one(
            config.num_cores,
            spec.group_index,
            spec.normalized_range,
            spec.seed,
            scheme_names=FIG6_SCHEMES,
        )
        for spec in specs
    ]
    assert outcomes == frozen

    # An untimed replay with a stats sink records the tier/dedup activity
    # (the timed run stays free of sink bookkeeping).
    sink = {}
    candidate.evaluate_specs(specs, stats_sink=sink)
    counters = {key: sink.get(key, 0) for key in _DEDUP_COUNTER_KEYS}

    speedup = timings["pr5"] / timings["candidate"]
    benchmark.extra_info["seconds"] = round(timings["candidate"], 3)
    benchmark.extra_info["baseline_seconds"] = round(timings["pr5"], 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["kernel_tier"] = kernel
    benchmark.extra_info["dedup_counters"] = counters
    if kernel == "compiled":
        # Period selection runs in one C call that bypasses the python
        # tier's dedup layers by design; the tier itself must fire.
        assert counters["compiled_solves"] > 0, "compiled tier idle"
    else:
        dedup_activity = (
            counters["dedup_verdict_hits"]
            + counters["dedup_pinned_sets"]
            + counters["dedup_pinned_solves"]
            + counters["dedup_certified_sets"]
            + counters["dedup_refresh_reuses"]
        )
        assert dedup_activity > 0, "dedup idle on the workload"
    assert speedup >= min_speedup, (
        f"kernel={kernel} path only {speedup:.2f}x over the PR 5 vectorized "
        f"path ({timings['candidate']:.2f}s vs {timings['pr5']:.2f}s)"
    )


@pytest.mark.skipif(
    not kernel_available(),
    reason="compiled kernel backend unavailable on this machine",
)
def test_bench_compiled_kernel_fig6_residue(benchmark, tasksets_per_group):
    """Compiled fixed points + dedup: >= 2x over the PR 5 path."""
    _gate(benchmark, tasksets_per_group, kernel="compiled", min_speedup=2.0)


def test_bench_structural_dedup_only_fig6_residue(
    benchmark, tasksets_per_group
):
    """Pure-python dedup alone: >= 1.2x, so the gate holds without a
    compiler (this test never dispatches to the compiled backend)."""
    _gate(benchmark, tasksets_per_group, kernel="python", min_speedup=1.2)
