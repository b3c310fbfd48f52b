"""Command-line entry point: regenerate the paper's figures as text tables.

Usage (installed as the ``hydra-c`` console script, also runnable as
``python -m repro``)::

    hydra-c fig5                 # rover case study (Fig. 5a/5b)
    hydra-c fig6  --cores 2      # period distance vs utilization (Fig. 6)
    hydra-c fig7a --cores 4      # acceptance ratio (Fig. 7a)
    hydra-c fig7b --cores 2      # period-vector differences (Fig. 7b)
    hydra-c sweep --cores 2 --checkpoint run.jsonl   # one resumable sweep,
                                 # all three figure tables from a single run
    hydra-c campaign --trials 500 --jobs 4 --checkpoint camp.jsonl
                                 # Monte Carlo attack campaign on the rover
    hydra-c schemes              # list every registered integration scheme
    hydra-c kernels              # list the fixed-point kernel backends
    hydra-c backends             # list the simulation backends
    hydra-c serve --socket /tmp/hydra.sock   # online admission daemon
    hydra-c query --socket /tmp/hydra.sock '{"op":"ping"}'

``campaign`` runs the Monte Carlo extension of the Fig. 5 security
evaluation: paired attack trials across any set of registered schemes,
resumable at chunk granularity, aggregated into detection-latency
distributions.  ``--backend`` picks the simulation backend (``batch``
trace-free per-trial loop, the default; ``fast`` event-compressed with
slice replay; ``tick`` the slow oracle; all bit-identical, see
``hydra-c backends``), ``--no-dedup``
disables the cross-scheme design dedup (a pure execution knob), and
``--stats`` prints the campaign fast-path counters after the report.

``sweep`` runs the batched design-space sweep once and derives every
synthetic figure from it; with ``--checkpoint`` the run is chunked into a
resumable store and a rerun of the same command resumes where it stopped.
``--checkpoint`` takes a plain path to one JSONL file (a value starting
with a former checkpoint-URI prefix, ``jsonl:``, ``sqlite:`` or
``shards:``, is refused with a one-line error).  The
synthetic sweeps accept ``--tasksets-per-group`` (paper value: 250),
``--jobs`` for parallel evaluation, ``--schemes`` to pick which
registered schemes to evaluate (default: the paper's four; see
``hydra-c schemes`` for the full list, including the parameterised
HYDRA-C/HYDRA variants the scheme registry adds) and ``--search-mode``
to pick HYDRA-C's Algorithm 2 period search (binary/linear; identical
periods either way, but checkpoint-fingerprint relevant).  They and
``serve`` also take ``--kernel`` (default ``auto``: the compiled backend
where it builds, else python; byte-identical results on every tier);
``fig5`` and ``campaign`` always run on that default, and
``REPRO_DISABLE_COMPILED=1`` forces python for every command.

Every experiment command (``sweep``, the fig* sweeps and ``campaign``)
additionally takes the platform-model flags
``--scheduler/--protocol/--overheads`` (see :mod:`repro.platform`); the
defaults ``rm``/``none``/``zero`` are the paper's platform and reproduce
the golden outputs byte-for-byte, and all three are checkpoint-fingerprint
relevant.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.campaign import (
    CampaignProgress,
    CampaignSpec,
    CampaignStats,
    JitterModel,
    format_campaign,
    run_campaign,
)
from repro.errors import ReproError
from repro.experiments import fig6_period_distance, fig7b_period_diff
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure_requirements import (
    missing_schemes,
    require_schemes,
)
from repro.schemes import REGISTRY
from repro.experiments.fig5_rover import format_fig5, run_fig5
from repro.experiments.fig6_period_distance import compute_fig6, format_fig6, run_fig6
from repro.experiments.fig7a_acceptance import compute_fig7a, format_fig7a, run_fig7a
from repro.experiments.fig7b_period_diff import compute_fig7b, format_fig7b, run_fig7b
from repro.experiments.sweep import SweepProgress, run_sweep
from repro.rta.compiled import DEFAULT_KERNEL, KERNEL_CHOICES

__all__ = ["main", "build_parser"]


def _add_platform_arguments(sub: argparse.ArgumentParser) -> None:
    """The three platform-model flags, shared by every experiment command.

    Choices come straight from the :mod:`repro.platform` registries, so a
    newly registered scheduler model is selectable without touching the CLI
    (the overhead models are parameterised, hence free-form with
    config-level validation).
    """
    from repro.platform import SCHEDULER_MODELS

    sub.add_argument(
        "--scheduler",
        choices=tuple(SCHEDULER_MODELS),
        default="rm",
        help=(
            "runtime scheduler model: 'rm' (the paper's fixed-priority "
            "platform) or 'edf' (banded EDF; RT jobs still outrank "
            "security jobs).  Checkpoint-fingerprint relevant"
        ),
    )
    sub.add_argument(
        "--protocol",
        choices=("none", "pip", "pcp"),
        default="none",
        help=(
            "resource-sharing protocol over the task model's declared "
            "claims: 'none' (claims ignored -- the paper's independent-"
            "task model), 'pip' (priority inheritance) or 'pcp' "
            "(priority ceiling).  Checkpoint-fingerprint relevant"
        ),
    )
    sub.add_argument(
        "--overheads",
        default="zero",
        metavar="MODEL",
        help=(
            "context-switch overhead model: 'zero' (the paper's free "
            "switches) or 'const:S[,M]' charging S ticks per switch-in "
            "plus M per migration.  Checkpoint-fingerprint relevant"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="hydra-c",
        description="Reproduce the HYDRA-C (DATE 2020) evaluation figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    fig5 = subparsers.add_parser("fig5", help="rover case study (Fig. 5a/5b)")
    fig5.add_argument("--trials", type=int, default=35, help="trials per scheme")
    fig5.add_argument(
        "--horizon", type=int, default=45_000, help="observation window [ms]"
    )
    fig5.add_argument("--seed", type=int, default=2020)

    for name, help_text in (
        ("fig6", "period distance vs utilization (Fig. 6)"),
        ("fig7a", "acceptance ratio per scheme (Fig. 7a)"),
        ("fig7b", "period-vector differences (Fig. 7b)"),
        ("sweep", "resumable batched sweep; derives all synthetic figures"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--cores", type=int, default=2, choices=(2, 4))
        sub.add_argument(
            "--tasksets-per-group",
            type=int,
            default=40,
            help="task sets per utilization group (paper: 250)",
        )
        sub.add_argument("--jobs", type=int, default=1, help="worker processes")
        sub.add_argument("--seed", type=int, default=2020)
        sub.add_argument(
            "--schemes",
            default=None,
            metavar="NAME[,NAME...]",
            help=(
                "comma-separated registered schemes to evaluate "
                "(default: the paper's four; see 'hydra-c schemes')"
            ),
        )
        sub.add_argument(
            "--search-mode",
            choices=("binary", "linear"),
            default="binary",
            help=(
                "HYDRA-C Algorithm 2 period search (identical periods "
                "either way; linear is the ablation mode and is "
                "checkpoint-fingerprint relevant)"
            ),
        )
        sub.add_argument(
            "--kernel",
            choices=KERNEL_CHOICES,
            default=DEFAULT_KERNEL,
            help=(
                "fixed-point kernel tier: 'auto' (default: the compiled "
                "backend where it builds, else python), 'python' "
                "(reference) or 'compiled' (warns and falls back when "
                "unavailable).  Byte-identical results either way; see "
                "'hydra-c kernels'"
            ),
        )
        sub.add_argument(
            "--stats",
            action="store_true",
            help=(
                "print a one-line RTA-kernel summary after the run "
                "(exact, warm-seeded and compiled solves, LL/Bini "
                "quick-accepts, dedup pinned/certified sets and "
                "pinned/reused solves); observability only, never "
                "affects results"
            ),
        )
        _add_platform_arguments(sub)

    campaign = subparsers.add_parser(
        "campaign",
        help="Monte Carlo attack campaign on the rover (Fig. 5 at scale)",
    )
    campaign.add_argument(
        "--trials", type=int, default=35, help="trials (paper Fig. 5: 35)"
    )
    campaign.add_argument(
        "--horizon", type=int, default=45_000, help="observation window [ms]"
    )
    campaign.add_argument("--seed", type=int, default=2020)
    campaign.add_argument(
        "--schemes",
        default=None,
        metavar="NAME[,NAME...]",
        help=(
            "comma-separated registered schemes to evaluate "
            "(default: the paper's four; see 'hydra-c schemes')"
        ),
    )
    campaign.add_argument(
        "--backend",
        default="batch",
        metavar="NAME",
        help=(
            "simulation backend: 'batch' (default: trace-free event loop "
            "per trial), 'fast' (event-compressed with slice replay) or "
            "'tick' (the slow oracle); bit-identical results either way, "
            "see 'hydra-c backends'"
        ),
    )
    campaign.add_argument(
        "--no-dedup",
        action="store_true",
        help=(
            "simulate every scheme separately even when several schemes "
            "integrated to the same design (results are identical; this "
            "knob exists for benchmarking the dedup fast path)"
        ),
    )
    campaign.add_argument(
        "--stats",
        action="store_true",
        help=(
            "after the report, print the campaign fast-path counters "
            "(design-dedup hits, batched design-trials and how many of "
            "them ran compiled, fallback design-trials) to stderr"
        ),
    )
    campaign.add_argument(
        "--jitter",
        type=int,
        default=0,
        metavar="TICKS",
        help="max uniform release offset per task and trial (0 = synchronous)",
    )
    campaign.add_argument(
        "--jobs", type=int, default=1, help="worker processes"
    )
    campaign.add_argument(
        "--chunk-size",
        type=int,
        default=8,
        help="trials per checkpoint/progress chunk",
    )
    campaign.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "JSONL checkpoint file; rerunning the same command resumes "
            "where it stopped"
        ),
    )
    campaign.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-chunk progress on stderr",
    )
    _add_platform_arguments(campaign)

    subparsers.add_parser(
        "schemes", help="list the registered integration schemes"
    )

    subparsers.add_parser(
        "kernels",
        help="list the fixed-point kernel backends importable on this machine",
    )

    subparsers.add_parser(
        "backends",
        help="list the simulation backends selectable via campaign --backend",
    )

    serve = subparsers.add_parser(
        "serve",
        help="long-lived online admission daemon (JSON-lines queries)",
    )
    serve_transport = serve.add_mutually_exclusive_group(required=True)
    serve_transport.add_argument(
        "--socket",
        metavar="PATH",
        help="listen on a Unix domain socket at PATH",
    )
    serve_transport.add_argument(
        "--stdio",
        action="store_true",
        help="serve one JSON-lines session over stdin/stdout",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for evaluation queries (1 = in-process, "
            "one shared warm cache)"
        ),
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "default per-query evaluation timeout (a query's own "
            "'timeout' field overrides it; default: none)"
        ),
    )
    serve.add_argument(
        "--max-contexts",
        type=int,
        default=64,
        metavar="N",
        help="answer LRU size per service: re-asked queries reuse their "
        "answer (0 = every query runs cold)",
    )
    serve.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default=DEFAULT_KERNEL,
        help=(
            "fixed-point kernel tier of the warm services: 'auto' "
            "(default: compiled where it builds, else python), 'python' "
            "or 'compiled'; resolved before the socket opens, named in "
            "the 'listening on' line and the 'stats' op.  Byte-identical "
            "answers either way; see 'hydra-c kernels'"
        ),
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the lifecycle log lines on stderr",
    )

    query = subparsers.add_parser(
        "query",
        help="send one JSON query (or stdin lines) to a running daemon",
    )
    query.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="Unix socket of the running 'hydra-c serve' daemon",
    )
    query.add_argument(
        "request",
        nargs="?",
        default=None,
        help=(
            "one JSON request object; omitted = read one request per "
            "line from stdin"
        ),
    )

    sweep = subparsers.choices["sweep"]
    sweep.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "JSONL checkpoint file; rerunning the same command resumes "
            "where it stopped"
        ),
    )
    sweep.add_argument(
        "--chunk-size",
        type=int,
        default=25,
        help="task sets per checkpoint/progress chunk",
    )
    sweep.add_argument(
        "--report",
        choices=("fig6", "fig7a", "fig7b", "all"),
        default="all",
        help="which figure tables to print from the finished sweep",
    )
    sweep.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-chunk progress on stderr",
    )

    return parser


#: Schemes each figure's computation dereferences -- declared by the
#: figure modules themselves (the CLI only surfaces them early, before a
#: sweep has been paid for; the compute_* functions enforce them too).
_FIGURE_SCHEME_REQUIREMENTS = {
    "fig6": fig6_period_distance.REQUIRED_SCHEMES,
    "fig7b": fig7b_period_diff.REQUIRED_SCHEMES,
}


def _parse_schemes(value: Optional[str]) -> Optional[Sequence[str]]:
    """Split a comma-separated ``--schemes`` value (validated by the config)."""
    if value is None:
        return None
    return tuple(name.strip() for name in value.split(",") if name.strip())


def _sweep_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        num_cores=args.cores,
        tasksets_per_group=args.tasksets_per_group,
        seed=args.seed,
        n_jobs=args.jobs,
        schemes=_parse_schemes(args.schemes),
        search_mode=args.search_mode,
        kernel=args.kernel,
        scheduler=args.scheduler,
        protocol=args.protocol,
        overheads=args.overheads,
    )


def _batch_sweep_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        num_cores=args.cores,
        tasksets_per_group=args.tasksets_per_group,
        seed=args.seed,
        n_jobs=args.jobs,
        chunk_size=args.chunk_size,
        checkpoint_path=args.checkpoint,
        schemes=_parse_schemes(args.schemes),
        search_mode=args.search_mode,
        kernel=args.kernel,
        scheduler=args.scheduler,
        protocol=args.protocol,
        overheads=args.overheads,
    )


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned text columns, two blanks apart, each as wide as its
    widest cell."""
    widths = [
        max(len(headers[column]), *(len(row[column]) for row in rows))
        for column in range(len(headers))
    ]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        for line in (headers, *rows)
    )


def _format_schemes_table() -> str:
    """Render the scheme registry as a text table."""
    return _format_table(
        (
            "scheme",
            "policy",
            "adapts periods",
            "origin",
            "shared phases",
            "description",
        ),
        [
            (
                spec.name,
                spec.policy.value,
                "yes" if spec.adapts_periods else "no",
                "canonical" if spec.canonical else "variant",
                ",".join(sorted(phase.value for phase in spec.phases)) or "-",
                spec.description or "-",
            )
            for spec in REGISTRY
        ],
    )


def _format_kernels_table() -> str:
    """Render the kernel-backend availability report as a text table."""
    from repro.rta import kernel_status

    return _format_table(
        ("kernel", "available", "detail"),
        [
            (name, "yes" if info["available"] else "no", info["detail"])
            for name, info in kernel_status().items()
        ],
    )


def _format_backends_table() -> str:
    """Render the simulation-backend registry as a text table."""
    from repro.sim import SIMULATOR_BACKENDS

    descriptions = {
        "tick": "tick-accurate oracle (slow; the frozen reference)",
        "fast": "event-compressed (jumps between scheduling events)",
        "batch": (
            "trace-free event loop per campaign trial (campaign default; "
            "falls back to 'fast' outside its envelope)"
        ),
    }
    return _format_table(
        ("backend", "class", "description"),
        [
            (
                name,
                f"{cls.__module__}.{cls.__name__}",
                descriptions.get(name, "-"),
            )
            for name, cls in SIMULATOR_BACKENDS.items()
        ],
    )


def _campaign_spec(args: argparse.Namespace) -> CampaignSpec:
    jitter = (
        JitterModel.uniform(args.jitter) if args.jitter else JitterModel.none()
    )
    return CampaignSpec(
        schemes=_parse_schemes(args.schemes),
        num_trials=args.trials,
        horizon=args.horizon,
        seed=args.seed,
        jitter=jitter,
        backend=args.backend,
        dedup=not args.no_dedup,
        n_jobs=args.jobs,
        chunk_size=args.chunk_size,
        checkpoint_path=args.checkpoint,
        scheduler=args.scheduler,
        protocol=args.protocol,
        overheads=args.overheads,
    )


def _campaign_progress_printer(progress: CampaignProgress) -> None:
    resumed = (
        f" ({progress.resumed_trials} resumed from checkpoint)"
        if progress.resumed_trials
        else ""
    )
    print(
        f"campaign: chunk {progress.chunk_index}/{progress.num_chunks} done, "
        f"{progress.completed_trials}/{progress.total_trials} trials "
        f"[{progress.fraction:.0%}]{resumed}",
        file=sys.stderr,
    )


def _run_campaign(args: argparse.Namespace) -> str:
    spec = _campaign_spec(args)
    progress = None if args.quiet else _campaign_progress_printer
    stats = CampaignStats() if args.stats else None
    result = run_campaign(spec, progress=progress, stats_sink=stats)
    if stats is not None:
        print(stats.summary_line(), file=sys.stderr)
    return format_campaign(result)


def _progress_printer(progress: SweepProgress) -> None:
    resumed = (
        f" ({progress.resumed_jobs} resumed from checkpoint)"
        if progress.resumed_jobs
        else ""
    )
    print(
        f"sweep: chunk {progress.chunk_index}/{progress.num_chunks} done, "
        f"{progress.completed_jobs}/{progress.total_jobs} task sets "
        f"[{progress.fraction:.0%}]{resumed}",
        file=sys.stderr,
    )


def _print_stats(sink: Optional[dict]) -> None:
    """Print the aggregate kernel counters of a finished run (--stats)."""
    if sink is None:
        return
    from repro.rta import KernelStats

    stats = KernelStats()
    stats.merge(sink)
    print(stats.summary_line(), file=sys.stderr)


def _run_batch_sweep(args: argparse.Namespace) -> str:
    config = _batch_sweep_config(args)
    # Figs. 6 and 7b are defined relative to HYDRA-C's adapted periods (and
    # Fig. 7b's first series additionally compares against HYDRA); a sweep
    # missing those schemes cannot render those tables.  Validate before
    # the sweep runs, not after it has been paid for.
    dropped = set()
    for figure, required in _FIGURE_SCHEME_REQUIREMENTS.items():
        if not missing_schemes(config.schemes, required):
            continue
        if args.report == figure:
            require_schemes(config.schemes, required, figure)
        dropped.add(figure)
    progress = None if args.quiet else _progress_printer
    sink = {} if args.stats else None
    result = run_sweep(config, progress=progress, stats_sink=sink)
    _print_stats(sink)
    sections = {
        "fig6": lambda: format_fig6(compute_fig6(result)),
        "fig7a": lambda: format_fig7a(compute_fig7a(result)),
        "fig7b": lambda: format_fig7b(compute_fig7b(result)),
    }
    wanted = (
        [name for name in sections if name not in dropped]
        if args.report == "all"
        else [args.report]
    )
    return "\n\n".join(sections[name]() for name in wanted)


def _run_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeDaemon

    daemon = ServeDaemon(
        jobs=args.jobs,
        timeout=args.timeout,
        max_contexts=args.max_contexts,
        kernel=args.kernel,
        quiet=args.quiet,
    )
    return daemon.serve(socket_path=args.socket if not args.stdio else None)


def _run_query(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeClient

    lines = (
        [args.request]
        if args.request is not None
        else [line for line in sys.stdin.read().splitlines() if line.strip()]
    )
    exit_code = 0
    with ServeClient.connect(args.socket) as client:
        for line in lines:
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                print(f"error: request is not valid JSON: {exc}", file=sys.stderr)
                return 2
            response = client.request(payload)
            print(json.dumps(response, separators=(",", ":")))
            if not response.get("ok"):
                exit_code = 1
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fig5":
            result = run_fig5(
                num_trials=args.trials, horizon=args.horizon, seed=args.seed
            )
            print(format_fig5(result))
        elif args.command in ("fig6", "fig7b"):
            config = _sweep_config(args)
            require_schemes(
                config.schemes,
                _FIGURE_SCHEME_REQUIREMENTS[args.command],
                args.command,
            )
            sink = {} if args.stats else None
            if args.command == "fig6":
                print(format_fig6(run_fig6(config, stats_sink=sink)))
            else:
                print(format_fig7b(run_fig7b(config, stats_sink=sink)))
            _print_stats(sink)
        elif args.command == "fig7a":
            sink = {} if args.stats else None
            print(format_fig7a(run_fig7a(_sweep_config(args), stats_sink=sink)))
            _print_stats(sink)
        elif args.command == "sweep":
            print(_run_batch_sweep(args))
        elif args.command == "campaign":
            print(_run_campaign(args))
        elif args.command == "schemes":
            print(_format_schemes_table())
        elif args.command == "kernels":
            print(_format_kernels_table())
        elif args.command == "backends":
            print(_format_backends_table())
        elif args.command == "serve":
            return _run_serve(args)
        elif args.command == "query":
            return _run_query(args)
        else:  # pragma: no cover - argparse enforces choices
            return 2
    except ReproError as exc:
        # Expected operational failures (invalid knobs, mismatched
        # checkpoints) get a one-line message instead of a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
