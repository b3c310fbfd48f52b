"""Benchmark of the three user-facing paths: sweep, rover campaign, serve.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-4c-compiled --seed 7 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time (the median over several fresh interpreters), ops per second, per-op
latency percentiles and peak RSS.  ``--trace 1`` instead runs the
workload's first input alternately untraced and with spans wrapped around
the program's layers (``tracer.py``) and reports the per-layer metrics.
The metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 200, "failed": 0, "metrics": {...}}

Everything the run writes (checkpoints, the daemon socket, the compiled
kernel cache) stays under ``.perfbench_tmp`` and ``.bench_build`` in the
current directory.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS, BenchError, host_scale  # noqa: E402

#: Fresh-interpreter set-up probes per sweep or campaign run (serve starts
#: several daemons in its own set-up instead).
SETUP_PROBES = 5
#: Hard limit on one workload's run, below the 180 s a run may take.
RUN_TIMEOUT_S = 170.0

#: Each workload's own name for a metric, printed next to the
#: workload-independent names of ``BENCHMARK.json``.
ALIASES = {
    "sweep-4c-compiled": {"ops_per_s": "tasksets_per_s"},
    "campaign-rover": {"ops_per_s": "trials_per_s"},
    "serve-mixed": {
        "ops_per_s": "qps",
        "op_p50_ms": "query_p50_ms",
        "op_p90_ms": "query_p90_ms",
    },
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(fraction * 100)) - 1]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    source = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (source, env.get("PYTHONPATH", "")) if part
    )
    build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env["REPRO_COMPILED_CACHE"] = os.path.abspath(os.path.join(build, "compiled"))
    return env


class Worker:
    """One ``worker.py`` process; times its start-up until ``READY``."""

    def __init__(self, args: List[str], env: Dict[str, str]) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.ready_s: Optional[float] = None
        self.lines: List[str] = []

    def wait(self, deadline: float) -> int:
        """Collect output until exit; a watchdog kills the worker at *deadline*."""
        watchdog = threading.Timer(deadline - time.perf_counter(), self.process.kill)
        watchdog.start()
        try:
            for line in self.process.stdout:
                if line.strip() == "READY" and self.ready_s is None:
                    self.ready_s = time.perf_counter() - self.started
                else:
                    self.lines.append(line.rstrip("\n"))
            code = self.process.wait()
        finally:
            watchdog.cancel()
        if time.perf_counter() >= deadline:
            raise BenchError("workload run exceeded its time limit")
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()


def setup_probe(name: str, seed: int, tmpdir: str, env: Dict[str, str]) -> float:
    """Seconds from a fresh interpreter to the first op being ready, at the
    reference host speed."""

    def probe() -> Worker:
        worker = Worker(
            ["--workload", name, "--seed", str(seed), "--tmpdir", tmpdir, "--setup-only"],
            env,
        )
        try:
            code = worker.wait(time.perf_counter() + 120.0)
        finally:
            worker.kill()
        if code != 0 or worker.ready_s is None:
            raise BenchError(f"set-up probe of {name} failed with exit code {code}")
        return worker

    worker, scale = host_scale(probe)
    return worker.ready_s * scale


def host_manifest() -> Dict[str, object]:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted(glob.glob("src/**/*.py", recursive=True)):
        with open(path, "rb") as handle:
            source.update(path.encode() + b"\0" + handle.read())
    return {
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "cffi": version("cffi"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def git_commit() -> str:
    """HEAD of a git checkout in the current directory, else ``unknown``."""
    head = os.path.join(".git", "HEAD")
    if not os.path.exists(head):
        return "unknown"
    with open(head, encoding="utf-8") as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    return "unknown"


def run_workload(name: str, args, spec: dict, env: Dict[str, str], tmpdir: str) -> dict:
    """Set-up probes plus one measuring worker; returns the run's result."""
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    setups: List[float] = []
    if not args.trace and name != "serve-mixed":
        # The first probe warms the page cache (and builds the compiled
        # kernel on a fresh checkout); it is not counted.  The serve
        # workload starts and times its daemons in its own set-up.
        for index in range(SETUP_PROBES + 1):
            sample = setup_probe(name, args.seed, tmpdir, env)
            if index:
                setups.append(sample)
    worker = Worker(
        [
            "--workload", name, "--seed", str(args.seed), "--tmpdir", tmpdir,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ],
        env,
    )
    try:
        code = worker.wait(deadline)
    finally:
        worker.kill()
    if code != 0 or not worker.lines:
        raise BenchError(f"{name} worker failed with exit code {code}")
    record = json.loads(worker.lines[-1])
    setups.extend(record["setup_samples"])

    failed = record["failed"] + record["mismatched"]
    values: Dict[str, float] = {}
    if args.trace:
        values.update(record["trace"]["metrics"])
        wanted = spec["per_layer"]
    else:
        if not record["pass_seconds"]:
            raise BenchError(f"{name}: no pass completed: {record['problems']}")
        latencies = record["latencies_ms"]
        values.update(
            setup_s=statistics.median(setups),
            ops_per_s=record["distinct_ops"] / record["pass_seconds"],
            op_p50_ms=percentile(latencies, 0.50),
            op_p90_ms=percentile(latencies, 0.90),
            peak_rss_mb=record["peak_rss_mb"],
        )
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise BenchError(f"{name} did not produce metric {metric['name']}")
        metrics[metric["name"]] = {
            "value": values[metric["name"]],
            "unit": metric["unit"],
        }
    attempted = max(1, record["ops"])
    return {
        "workload": name,
        "correct": failed == 0 and not record["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "record": record,
        "setup_samples_s": setups,
    }


def report(result: dict, seed: int, manifest: dict) -> None:
    """Human-readable lines plus one JSON record (before the result line)."""
    name = result["workload"]
    record = result["record"]
    aliases = ALIASES.get(name, {})
    print(f"== {name} (seed {seed}) ==")
    for metric, entry in result["metrics"].items():
        alias = aliases.get(metric)
        label = f"{metric} ({alias})" if alias else metric
        print(f"  {label:44s} {entry['value']:>14.6g} {entry['unit']}")
    if "trace" not in record:
        print(
            f"  {'failed_ratio':44s} {result['failed'] / result['attempted']:>14.6g} "
            f"({result['failed']} of {result['attempted']} ops)"
        )
        repeats = record["passes_per_input"]
        print(
            f"  samples: {len(record['latencies_ms'])} op latencies from {sum(repeats)} "
            f"passes over {len(repeats)} distinct inputs, "
            f"{len(result['setup_samples_s'])} set-ups; "
            f"host speed factor {statistics.median(record['host_scales']):.3f}"
        )
    for problem in record["problems"]:
        print(f"  problem: {problem.strip()}")
    summary = {
        key: record[key]
        for key in record
        if key not in ("latencies_ms", "trace", "manifest")
    }
    if "trace" in record:
        summary["spans"] = record["trace"]["spans"]
    print("record: " + json.dumps(
        {
            "workload": name,
            "seed": seed,
            "manifest": {**manifest, **record.get("manifest", {})},
            "metrics": result["metrics"],
            "detail": summary,
        },
        separators=(",", ":"),
    ))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        log("error: run from the repository root (src/repro not found)")
        return 2
    try:
        with open("BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        log(f"error: cannot read BENCHMARK.json: {exc}")
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    env = child_env()
    os.makedirs(".perfbench_tmp", exist_ok=True)
    tmpdir = os.path.relpath(tempfile.mkdtemp(prefix="run-", dir=".perfbench_tmp"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        manifest = host_manifest()
        for name in names:
            log(f"perfbench: {name} seed={args.seed} trace={args.trace}")
            result = run_workload(name, args, spec, env, tmpdir)
            report(result, args.seed, manifest)
            results.append(result)
    except BenchError as exc:
        log(f"error: {exc}")
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{result['workload']}.{metric}": entry
            for result in results
            for metric, entry in result["metrics"].items()
        }
    correct = all(result["correct"] for result in results)
    print(json.dumps(
        {
            "correct": correct,
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": metrics,
        },
        separators=(",", ":"),
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
