"""Benchmark: interactive admission latency of the serve layer.

The ISSUE-6 latency gate.  A long-lived :class:`~repro.serve.service.
AdmissionService` answers the same admission/design queries the offline
sweep evaluates, but keeps the answers of earlier questions in an LRU
keyed by the canonical query.  The gate:

* a **warm** repeat query (answer LRU hit) must answer with a p50
  latency measurably below the **cold** p50 (first-ever answer, cache
  empty) -- the whole point of keeping a daemon resident;
* every answer, cold or warm, must be byte-identical to the frozen seed
  oracle (:func:`repro.batch.reference.reference_evaluate_one`) -- the
  serve layer accelerates repeat queries, it never changes them.

The p50/p99/QPS numbers land in the benchmark's ``extra_info``; the
recorded serve measurement is ``perfbench``'s ``serve-mixed`` workload.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.batch.reference import reference_evaluate_one
from repro.serve import ServeClient
from repro.serve.service import AdmissionService

_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Distinct admission questions (seed, group_index, normalized_range):
#: eight different task-set designs so the warm pass exercises the
#: answer LRU across keys, not one lucky entry.
QUERIES = [
    (2020, 0, (0.05, 0.2)),
    (2021, 1, (0.25, 0.4)),
    (2022, 2, (0.45, 0.6)),
    (2023, 3, (0.65, 0.8)),
    (77, 0, (0.05, 0.2)),
    (78, 1, (0.25, 0.4)),
    (79, 2, (0.45, 0.6)),
    (80, 3, (0.65, 0.8)),
]

WARM_ROUNDS = 3


def _design_query(seed, group_index, normalized_range):
    return {
        "op": "design",
        "num_cores": 2,
        "seed": seed,
        "group_index": group_index,
        "normalized_range": list(normalized_range),
    }


def _percentile(samples, q):
    """Nearest-rank percentile of a small latency sample (seconds)."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1)))
    return ordered[index]


def _frozen_answers():
    """The oracle's answer for every bench query, serialised."""
    answers = []
    for seed, group_index, normalized_range in QUERIES:
        evaluation = reference_evaluate_one(
            2, group_index, normalized_range, seed
        )
        answers.append(
            evaluation.to_json() if evaluation is not None else None
        )
    return answers


def test_bench_serve_warm_vs_cold(benchmark):
    """Warm repeat-query p50 must beat the cold p50, answers unchanged."""
    frozen = _frozen_answers()
    service = AdmissionService()

    cold_latencies = []
    for query_args, expected in zip(QUERIES, frozen):
        start = time.perf_counter()
        response = service.handle(_design_query(*query_args))
        cold_latencies.append(time.perf_counter() - start)
        assert response["ok"], response
        assert json.dumps(response["result"]["evaluation"], sort_keys=True) == (
            json.dumps(expected, sort_keys=True)
        )

    warm_latencies = []

    def warm_passes():
        for _round in range(WARM_ROUNDS):
            for query_args, expected in zip(QUERIES, frozen):
                start = time.perf_counter()
                response = service.handle(_design_query(*query_args))
                warm_latencies.append(time.perf_counter() - start)
                assert response["ok"], response
                assert json.dumps(
                    response["result"]["evaluation"], sort_keys=True
                ) == json.dumps(expected, sort_keys=True)

    benchmark.pedantic(warm_passes, rounds=1, iterations=1)

    assert service.context_hits == WARM_ROUNDS * len(QUERIES)

    cold_p50 = _percentile(cold_latencies, 50)
    warm_p50 = _percentile(warm_latencies, 50)
    warm_p99 = _percentile(warm_latencies, 99)
    warm_seconds = sum(warm_latencies)
    qps = len(warm_latencies) / warm_seconds
    numbers = {
        "queries": len(QUERIES),
        "warm_rounds": WARM_ROUNDS,
        "cold_p50_ms": round(cold_p50 * 1e3, 3),
        "warm_p50_ms": round(warm_p50 * 1e3, 3),
        "warm_p99_ms": round(warm_p99 * 1e3, 3),
        "warm_qps": round(qps, 1),
    }
    benchmark.extra_info.update(numbers)
    benchmark.extra_info["seconds"] = round(warm_seconds, 3)
    benchmark.extra_info["baseline_seconds"] = round(sum(cold_latencies), 3)
    benchmark.extra_info["speedup"] = round(cold_p50 / warm_p50, 2)

    assert warm_p50 < cold_p50, (
        f"warm p50 {warm_p50 * 1e3:.1f} ms is not below cold p50 "
        f"{cold_p50 * 1e3:.1f} ms -- the answer LRU is not helping"
    )


def test_bench_serve_daemon_round_trip(benchmark, tmp_path):
    """End-to-end socket latency of a real ``hydra-c serve`` daemon."""
    frozen = _frozen_answers()
    socket_path = tmp_path / "bench-serve.sock"
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--socket",
            str(socket_path),
            "--quiet",
        ],
        env=env,
    )
    try:
        with ServeClient.connect(socket_path) as client:
            # First pass populates the daemon's warm caches.
            for query_args, expected in zip(QUERIES, frozen):
                response = client.request(_design_query(*query_args))
                assert response["ok"], response
                assert json.dumps(
                    response["result"]["evaluation"], sort_keys=True
                ) == json.dumps(expected, sort_keys=True)

            design_latencies = []
            ping_latencies = []

            def warm_round_trips():
                for _round in range(WARM_ROUNDS):
                    for query_args in QUERIES:
                        start = time.perf_counter()
                        response = client.request(_design_query(*query_args))
                        design_latencies.append(time.perf_counter() - start)
                        assert response["ok"], response
                for _ in range(20):
                    start = time.perf_counter()
                    assert client.request({"op": "ping"})["ok"]
                    ping_latencies.append(time.perf_counter() - start)

            benchmark.pedantic(warm_round_trips, rounds=1, iterations=1)
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)

    design_seconds = sum(design_latencies)
    numbers = {
        "queries": len(QUERIES),
        "warm_rounds": WARM_ROUNDS,
        "design_p50_ms": round(_percentile(design_latencies, 50) * 1e3, 3),
        "design_p99_ms": round(_percentile(design_latencies, 99) * 1e3, 3),
        "design_qps": round(len(design_latencies) / design_seconds, 1),
        "ping_p50_ms": round(_percentile(ping_latencies, 50) * 1e3, 3),
    }
    benchmark.extra_info.update(numbers)
    benchmark.extra_info["seconds"] = round(design_seconds, 3)
