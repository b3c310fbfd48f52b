"""One benchmark workload in a fresh interpreter (started by ``run.py``).

Prints ``READY`` once set-up is done, then measures, checks its outputs and
prints one JSON object as its last line.  ``--setup-only`` exits right
after ``READY`` (the set-up probes).  Expects ``src`` on ``PYTHONPATH``.

A run measures ``workload.units`` distinct seed-derived inputs, cycling
through them until ``--seconds`` have passed and every input ran at least
once; a workload with ``cycle = False`` (the serve stream) never repeats an
input and moves on to fresh ones instead.  Every pass times itself with a
``workloads.HostClock``, which calibrates at the pass's ends and inside it
and scales its times to the reference host speed.  The per-op latencies
are those of every pass; ops per second is the distinct ops over the sum
of each input's median whole-pass time (the whole command: construction,
the run and its reports).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import traceback

import tracer
from workloads import WORKLOADS, BenchError, now


def measure(workload, seconds: float) -> dict:
    cycle = getattr(workload, "cycle", True)
    pass_seconds = {}
    unit_ops = {}
    latencies = []
    ops = failed = 0
    problems = []
    scales = []
    start = now()
    index = 0
    while True:
        unit = index % workload.units if cycle else index
        try:
            outcome = workload.run_pass(unit)
        except Exception:  # a failing pass is reported, not fatal
            problems.append(traceback.format_exc(limit=3))
            failed += 1
            ops += 1
            break
        ops += outcome.ops
        scales.append(outcome.scale)
        latencies.extend(outcome.latencies_ms)
        pass_seconds.setdefault(unit, []).append(outcome.seconds * outcome.scale)
        unit_ops[unit] = outcome.ops
        index += 1
        if index >= workload.units and now() - start >= seconds:
            break
    return {
        "ops": ops,
        "failed": failed,
        "passes_per_input": [len(pass_seconds[unit]) for unit in sorted(pass_seconds)],
        "host_scales": scales,
        "latencies_ms": latencies,
        "distinct_ops": sum(unit_ops.values()),
        "pass_seconds": sum(statistics.median(values) for values in pass_seconds.values()),
        "problems": problems,
    }


def manifest(workload) -> dict:
    """The program side of the run manifest."""
    from repro.rta import kernel_status

    return {
        **workload.manifest,
        "kernel_status": {
            name: info["detail"] for name, info in kernel_status().items()
        },
    }


def run(workload, args) -> int:
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        trace = workload.trace(tracer)
        record = {"trace": trace, "ops": trace["ops"], "failed": 0, "problems": []}
    else:
        record = measure(workload, args.seconds)
        record["peak_rss_mb"] = workload.peak_rss_mb()
    record["setup_samples"] = getattr(workload, "setup_samples", [])
    record["mismatched"] = 0
    if workload.first is not None:
        mismatched, problems = workload.check()
        record["mismatched"] = mismatched
        record["problems"] += problems
        record["digest"] = workload.digest()
    record["manifest"] = manifest(workload)
    print(json.dumps(record, separators=(",", ":")))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.tmpdir)
    try:
        return run(workload, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()


if __name__ == "__main__":
    sys.exit(main())
