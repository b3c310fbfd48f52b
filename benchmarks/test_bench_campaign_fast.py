"""Benchmark: the campaign fast path (design dedup + batched trials).

The ISSUE-9 performance gates, on the rover campaign workload (six
registry schemes -- four distinct designs -- over the full 45 000-tick
observation window):

* **batch gate**: cross-scheme design dedup plus the trial-batched
  backend (``backend="batch"``, ``dedup=True``: one trace-free event loop
  per distinct design per trial, the campaign default) must evaluate the
  same trial stream at least **3x** faster than the per-scheme campaign
  path (``backend="fast"``, ``dedup=False``: one event-compressed
  simulation plus slice replay per scheme per trial);
* **dedup-only gate**: design dedup alone on the event-compressed
  backend must clear **1.3x** on the same workload, so the structural
  half of the win is pinned independently of the trace-free loop.

Both timed paths must produce records identical to the baseline, and a
short prefix of the stream is additionally checked against the tick
oracle (``backend="tick"``, ``dedup=False`` -- the frozen reference).
The fast-path counters land in the benchmark's ``extra_info``.
"""

import time

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    CampaignStats,
    JitterModel,
    build_trial_specs,
)

#: Every scheme family the registry knows: the three HYDRA-C
#: re-partitioning variants alias to one design on the rover, so the six
#: schemes integrate to four distinct designs -- the dedup headroom a real
#: comparison campaign actually has.
CAMPAIGN_SCHEMES = (
    "HYDRA-C",
    "HYDRA-C-WF",
    "HYDRA-C-GC",
    "HYDRA",
    "HYDRA-TMax",
    "GLOBAL-TMax",
)

#: Trials per timed pass.  Large enough that per-trial work dominates
#: runner setup, small enough that the interleaved rounds stay seconds.
NUM_TRIALS = 48

#: Trials replayed against the tick oracle (one tick design-trial costs
#: ~half a second at this horizon, so the oracle slice stays short).
ORACLE_TRIALS = 4

#: Alternating candidate/baseline passes per side (same rationale as the
#: compiled-kernel bench: paired passes see the same machine state).
_TIMING_ROUNDS = 2


def _spec(backend: str, dedup: bool) -> CampaignSpec:
    return CampaignSpec(
        schemes=CAMPAIGN_SCHEMES,
        num_trials=NUM_TRIALS,
        horizon=45_000,
        seed=2020,
        jitter=JitterModel.uniform(250),
        backend=backend,
        dedup=dedup,
    )


def test_bench_campaign_fast_path(benchmark):
    """Dedup+batch >= 3x and dedup alone >= 1.3x over the PR 8 path."""
    trials = build_trial_specs(_spec("fast", False))
    baseline = CampaignRunner(_spec("fast", False))
    dedup_only = CampaignRunner(_spec("fast", True))
    batch = CampaignRunner(_spec("batch", True))

    timings = {
        "baseline": float("inf"),
        "dedup": float("inf"),
        "batch": float("inf"),
    }
    records = {}

    def run_candidate():
        for _ in range(_TIMING_ROUNDS):
            for name, runner in (
                ("batch", batch),
                ("baseline", baseline),
                ("dedup", dedup_only),
            ):
                start = time.perf_counter()
                records[name] = runner.run_trials(trials)
                elapsed = time.perf_counter() - start
                timings[name] = min(timings[name], elapsed)
        return records["batch"]

    benchmark.pedantic(run_candidate, rounds=1, iterations=1)

    # Both fast paths are record-identical to the per-scheme loop ...
    assert records["dedup"] == records["baseline"]
    assert records["batch"] == records["baseline"]
    # ... and the stream's prefix equals the frozen tick oracle.
    oracle = CampaignRunner(_spec("tick", False))
    assert oracle.run_trials(trials[:ORACLE_TRIALS]) == (
        records["batch"][:ORACLE_TRIALS]
    )

    # An untimed replay with a stats sink records the fast-path activity
    # (the timed runs stay free of sink bookkeeping).
    stats = CampaignStats()
    batch.run_trials(trials, stats=stats)
    assert stats.design_dedup_hits > 0, "design dedup idle on the workload"
    assert stats.batched_trials > 0, "trace-free loop idle on the workload"
    assert stats.fallback_trials == 0, "rover campaign left the envelope"

    dedup_speedup = timings["baseline"] / timings["dedup"]
    batch_speedup = timings["baseline"] / timings["batch"]
    benchmark.extra_info["seconds"] = round(timings["batch"], 3)
    benchmark.extra_info["baseline_seconds"] = round(timings["baseline"], 3)
    benchmark.extra_info["speedup"] = round(batch_speedup, 2)
    benchmark.extra_info["dedup_only_seconds"] = round(timings["dedup"], 3)
    benchmark.extra_info["dedup_only_speedup"] = round(dedup_speedup, 2)
    benchmark.extra_info["campaign_counters"] = stats.as_dict()
    assert dedup_speedup >= 1.3, (
        f"design dedup alone only {dedup_speedup:.2f}x over the PR 8 "
        f"campaign path ({timings['dedup']:.2f}s vs {timings['baseline']:.2f}s)"
    )
    assert batch_speedup >= 3.0, (
        f"dedup+batch only {batch_speedup:.2f}x over the PR 8 campaign "
        f"path ({timings['batch']:.2f}s vs {timings['baseline']:.2f}s)"
    )
