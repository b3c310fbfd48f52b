#!/usr/bin/env bash
# Continuous-integration entry point.
#
# Usage: scripts/ci.sh [tier1|smoke|bench|bench-compiled|all]   (default: all)
#
# Four gates:
#   tier1 -- the fast tier-1 suite (unit/property/integration, benchmarks
#            excluded).  Runs the RTA-kernel-vs-frozen-reference
#            differential smoke first so an analysis regression fails
#            fast with a labelled gate, then replays the RTA, RT
#            partitioning, HYDRA/GLOBAL-TMax baseline, HYDRA-C period
#            selection, scheme end-to-end, generation and model suites
#            and the trial-batched simulation differential suite under
#            REPRO_DISABLE_COMPILED=1 so the pure-python fallback paths
#            -- the python kernels, the python RT partitioner and its
#            Eq. 1 check, HYDRA's python security allocation, the python
#            period selector, the task-copy paths and the python trial
#            loop -- can never silently regress on machines where the compiled
#            backend normally takes over (it is the default `auto` tier
#            wherever it builds, so there every other run of this stage
#            is on it).  Deterministic; always blocking.
#   smoke -- deterministic end-to-end drills, always blocking:
#            (a) a tiny Monte Carlo attack campaign executed with no
#            --backend (the default, trial-batched), again with no
#            --backend under REPRO_DISABLE_COMPILED=1 (the python kernel
#            tier designs every scheme and the python trial loop
#            simulates, so this run also compares the C trial loop with
#            the python one), and under ALL THREE named
#            simulation backends (batch, event-compressed fast and the
#            tick oracle); their aggregate reports AND their --checkpoint
#            files (which carry every trial's latencies and counters) must
#            match byte for byte.  Run twice: once on the default platform
#            (where the batch backend runs its trace-free loop) and once
#            under a non-default platform model (--scheduler edf
#            --protocol pip, where it must transparently fall back per
#            trial and every scheme's design -- HYDRA-C's re-partitioning
#            FF/WF variants included -- carries the PIP blocking terms),
#            so the platform plugin layer AND the campaign fast path are
#            exercised end to end through the CLI.
#            (b) a live `hydra-c serve` daemon on a Unix socket, driven
#            through `hydra-c query`: ping, a design query asked twice
#            (byte-identical replies, and `stats` then counts an
#            answer-store hit), the same design query to a second daemon
#            started with --kernel python and to a third started with
#            --jobs 2 (byte-identical replies; after a re-ask the --jobs 2
#            daemon's `stats` counts a hit and its workers' kernel
#            solves), an infeasible admission (an answer, not an error,
#            whose reason names the RT task that fits on no core) and a
#            feasible one, both also sent to the --kernel python daemon
#            and the feasible one to the --jobs 2 daemon (byte-identical
#            replies: the compiled RT partitioner against the python one,
#            worker processes against the daemon's thread), a query with
#            a key the daemon has not seen that exceeds a tiny timeout
#            budget, a second `serve` on the first daemon's live socket
#            (exit 2, one `error:` line, and the first daemon still
#            answers), then SIGTERM and a clean (exit 0) drain of all
#            three daemons.
#            (c) a 4-core sweep under --kernel compiled and --kernel
#            python must print byte-identical reports; then a 2-core
#            sweep over HYDRA-C, HYDRA, HYDRA-TMax, GLOBAL-TMax (every
#            scheme whose phases are each one compiled call), HYDRA-RF
#            (its allocation is the shared python placement loop on both
#            tiers, its period phase one compiled call) and HYDRA-C-FF /
#            HYDRA-C-WF (first-fit and worst-fit RT partitioning) must
#            print byte-identical reports AND write byte-identical
#            checkpoints (the checkpoint carries every scheme's periods;
#            the reports never print HYDRA-RF's or the FF/WF variants').
#            The default kernel tier is `auto`, so the tier comparisons
#            in (a)-(c) are only meaningful where the compiled backend
#            builds (the compiled-extra CI job); elsewhere every run is
#            the python tier and the diffs are trivially equal.
#            (d) a resume drill through the CLI: a 2-core sweep
#            checkpoint cut to its header, its first chunk and a torn
#            fragment of the next record is resumed, and its checkpoint
#            and report must equal the uninterrupted run's byte for
#            byte; a campaign run with --trials 2 and then --trials 4 on
#            one checkpoint must equal a direct --trials 4 run (checkpoint
#            and report); and `--checkpoint sqlite:...` (a removed backend
#            prefix) must exit 2 with one `error:` line, creating nothing.
#   bench -- the speedup gates: the batched pipeline must stay >= 2x
#            faster than the frozen seed path (repro/batch/reference.py),
#            the RTA kernel >= 2x on the allocation-heavy Fig. 7a columns,
#            the python tier (per-slot generation, quick-accepts, warm
#            seeds, solve-skipping) >= 22x / >= 15x over the frozen seed
#            path on the period-selection-heavy Fig. 6 / Fig. 7b columns
#            (benchmarks/test_bench_vectorized_screen.py), the
#            event-compressed simulation backend >= 5x faster than
#            the tick engine on the rover horizon, the campaign fast path
#            (design dedup + trial-batched trace-free loop) >= 3x over the
#            PR 8 campaign path (dedup alone >= 1.3x), and the serve
#            layer's repeat-query p50 (answer LRU) below its cold p50.
#            None of these rewrite benchmarks/figures_output.txt or
#            campaign_golden.txt
#            -- that is asserted after the stage, because a dirty golden
#            pin means results changed.  The recorded measurement is
#            perfbench/ (python3 perfbench/run.py), not these gates.
#            Wall-clock based, so on shared CI runners they
#            run as a separate, non-blocking workflow step; locally they
#            are a hard gate.
#   bench-compiled -- the kernel-tier gate: the compiled tier (Eq. 1
#            fixed points + one-call period selection) >= 36x over the
#            frozen seed path on the Fig. 6 column.  It skips cleanly when
#            no C compiler / cffi is available (its pure-python
#            counterpart runs in the bench stage).  Wall-clock based, same
#            non-blocking-on-shared-runners policy as bench.
#
# The remaining benchmarks (full figure regenerations) are not run here --
# they are the local `pytest benchmarks` workflow and rewrite
# benchmarks/figures_output.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:${PYTHONPATH}}"

stage="${1:-all}"
case "$stage" in
    tier1|smoke|bench|bench-compiled|all) ;;
    *)
        echo "usage: $0 [tier1|smoke|bench|bench-compiled|all]" >&2
        exit 64
        ;;
esac

if [[ "$stage" == "tier1" || "$stage" == "all" ]]; then
    echo "== tier 1a: RTA kernel vs frozen reference (differential smoke) =="
    python -m pytest -x -q tests/rta
    echo "== tier 1b: RTA, partitioning, baseline, period-selection, scheme, generation, model and trial-loop suites under forced pure-python fallback =="
    REPRO_DISABLE_COMPILED=1 python -m pytest -x -q tests/rta tests/partitioning \
        tests/baselines tests/core tests/schemes tests/generation tests/model \
        tests/sim/test_batched_engine.py
    echo "== tier 1c: platform models, fast-vs-tick differential (smoke) =="
    python -m pytest -x -q tests/platform
    echo "== tier 1d: pytest -m 'not bench' =="
    python -m pytest -x -q -m "not bench"
fi

if [[ "$stage" == "smoke" || "$stage" == "all" ]]; then
    campaign_dir=$(mktemp -d)
    trap 'rm -rf "$campaign_dir"' EXIT
    # The re-partitioning HYDRA-C variants ride along: under PIP their
    # designs carry the blocking terms, on either kernel tier.
    campaign_args=(--trials 2 --horizon 9000
                   --schemes HYDRA-C,HYDRA,HYDRA-C-FF,HYDRA-C-WF
                   --jitter 50 --quiet)
    # campaign_drill LABEL ARGS...: the campaign with no --backend, with
    # no --backend on the forced python kernel tier, and under each named
    # backend; every run's report and checkpoint must equal the default
    # run's byte for byte.
    campaign_drill() {
        local label=$1
        shift
        local run command
        for run in default python batch fast tick; do
            command=(python -m repro campaign "$@")
            case "$run" in
                default) ;;
                python) command=(env REPRO_DISABLE_COMPILED=1 "${command[@]}") ;;
                *) command+=(--backend "$run") ;;
            esac
            "${command[@]}" --checkpoint "$campaign_dir/$label-$run.jsonl" \
                > "$campaign_dir/$label-$run.txt"
        done
        for run in python batch fast tick; do
            for suffix in txt jsonl; do
                if ! cmp "$campaign_dir/$label-default.$suffix" "$campaign_dir/$label-$run.$suffix"; then
                    echo "campaign smoke FAILED ($label): the default run and the $run run disagree ($suffix)" >&2
                    diff "$campaign_dir/$label-default.$suffix" "$campaign_dir/$label-$run.$suffix" >&2 || true
                    exit 1
                fi
            done
        done
        cat "$campaign_dir/$label-default.txt"
    }

    echo "== campaign smoke: tiny campaign, default run vs python kernel tier and all three backends (reports + checkpoints) =="
    campaign_drill default-platform "${campaign_args[@]}"

    echo "== campaign smoke: non-default platform (EDF + PIP), default run vs python kernel tier and all three backends (reports + checkpoints) =="
    campaign_drill edf-pip "${campaign_args[@]}" --scheduler edf --protocol pip
    trap - EXIT
    rm -rf "$campaign_dir"

    echo "== serve smoke: live admission daemon over a Unix socket =="
    serve_dir=$(mktemp -d)
    serve_sock="$serve_dir/serve.sock"
    python_sock="$serve_dir/serve-python.sock"
    jobs_sock="$serve_dir/serve-jobs.sock"
    python -m repro serve --socket "$serve_sock" --quiet &
    serve_pid=$!
    python -m repro serve --socket "$python_sock" --kernel python --quiet &
    python_pid=$!
    python -m repro serve --socket "$jobs_sock" --jobs 2 --quiet &
    jobs_pid=$!
    trap 'kill "$serve_pid" "$python_pid" "$jobs_pid" 2>/dev/null || true; rm -rf "$serve_dir"' EXIT

    query() { python -m repro query --socket "$serve_sock" "$1"; }

    ping_reply=$(query '{"op": "ping"}')
    grep -q '"pong":true' <<<"$ping_reply"

    design_query='{"op": "design", "num_cores": 2, "seed": 2020,
                   "group_index": 0, "normalized_range": [0.05, 0.2]}'
    design_reply=$(query "$design_query")
    grep -q '"ok":true' <<<"$design_reply"

    # Re-asking a key is answered from the answer store: byte-identical
    # reply, and the daemon counts the hit.
    repeat_reply=$(query "$design_query")
    if [[ "$repeat_reply" != "$design_reply" ]]; then
        echo "serve smoke FAILED: a re-asked design query changed its answer" >&2
        exit 1
    fi
    hits=$(query '{"op": "stats"}' | grep -o '"context_hits":[0-9]*' | cut -d: -f2 || true)
    if [[ -z "$hits" || "$hits" -lt 1 ]]; then
        echo "serve smoke FAILED: stats reports no answer-store hit" >&2
        exit 1
    fi

    # A --jobs 2 daemon computes misses on worker processes but stores
    # and counts on its event loop: the same bytes, a counted hit on the
    # re-ask, and the workers' kernel solves in its stats.
    for _ask in 1 2; do
        jobs_reply=$(python -m repro query --socket "$jobs_sock" "$design_query")
        if [[ "$jobs_reply" != "$design_reply" ]]; then
            echo "serve smoke FAILED: the --jobs 2 daemon answered differently" >&2
            diff <(printf '%s\n' "$design_reply") <(printf '%s\n' "$jobs_reply") >&2 || true
            exit 1
        fi
    done
    jobs_stats=$(python -m repro query --socket "$jobs_sock" '{"op": "stats"}')
    # jobs_stat NAME: one integer field of the --jobs 2 daemon's stats.
    jobs_stat() { grep -o "\"$1\":[0-9]*" <<<"$jobs_stats" | cut -d: -f2; }
    # The python tier counts its solves as exact ones, the compiled tier
    # mostly as compiled ones.
    solves=compiled_solves
    grep -q '"kernel_tier":"python"' <<<"$jobs_stats" && solves=exact_solves
    if [[ "$(jobs_stat context_hits)" -lt 1 || "$(jobs_stat "$solves")" -lt 1 ]]; then
        echo "serve smoke FAILED: the --jobs 2 daemon's stats miss the hit or the workers' $solves" >&2
        echo "$jobs_stats" >&2
        exit 1
    fi

    # The default daemon runs the default (auto) kernel tier; a daemon on
    # the python reference tier must answer the same bytes.
    python_reply=$(python -m repro query --socket "$python_sock" "$design_query")
    if [[ "$python_reply" != "$design_reply" ]]; then
        echo "serve smoke FAILED: the --kernel python daemon answered differently" >&2
        diff <(printf '%s\n' "$design_reply") <(printf '%s\n' "$python_reply") >&2 || true
        exit 1
    fi

    # An infeasible admission is an answer (ok:true, feasible:false), not
    # an error -- the query CLI must exit 0 here -- and its reason names
    # the RT task that fits on no core.
    infeasible_query='{"op": "admit", "num_cores": 2,
        "rt_tasks": [{"name": "rt0", "wcet": 9, "period": 10},
                     {"name": "rt1", "wcet": 9, "period": 10},
                     {"name": "rt2", "wcet": 9, "period": 10}],
        "security_tasks": []}'
    infeasible_reply=$(query "$infeasible_query")
    grep -q '"feasible":false' <<<"$infeasible_reply"
    grep -q "\"reason\":\"RT task 'rt2'" <<<"$infeasible_reply"
    feasible_query='{"op": "admit", "num_cores": 2,
        "rt_tasks": [{"name": "nav", "wcet": 240, "period": 500},
                     {"name": "camera", "wcet": 1120, "period": 5000},
                     {"name": "radio", "wcet": 90, "period": 400,
                      "deadline": 300}],
        "security_tasks": [{"name": "tripwire", "wcet": 534, "max_period": 10000},
                           {"name": "kmod", "wcet": 223, "max_period": 10000}]}'
    feasible_reply=$(query "$feasible_query")
    grep -q '"feasible":true' <<<"$feasible_reply"
    jobs_admit=$(python -m repro query --socket "$jobs_sock" "$feasible_query")
    if [[ "$jobs_admit" != "$feasible_reply" ]]; then
        echo "serve smoke FAILED: the --jobs 2 daemon answered the feasible admission differently" >&2
        diff <(printf '%s\n' "$feasible_reply") <(printf '%s\n' "$jobs_admit") >&2 || true
        exit 1
    fi

    # Both admissions partition the RT tasks; the --kernel python daemon
    # must answer the same bytes.
    for admit in infeasible feasible; do
        admit_query_var="${admit}_query"
        admit_reply_var="${admit}_reply"
        python_admit=$(python -m repro query --socket "$python_sock" "${!admit_query_var}")
        if [[ "$python_admit" != "${!admit_reply_var}" ]]; then
            echo "serve smoke FAILED: the --kernel python daemon answered the $admit admission differently" >&2
            diff <(printf '%s\n' "${!admit_reply_var}") <(printf '%s\n' "$python_admit") >&2 || true
            exit 1
        fi
    done

    # A query over its evaluation budget answers a timeout error (exit 1)
    # and the daemon keeps serving afterwards.  Its key is new to the
    # daemon: a stored answer could beat even a tiny budget.
    if timeout_reply=$(query '{"op": "design", "num_cores": 2, "seed": 2021,
            "group_index": 0, "normalized_range": [0.05, 0.2],
            "timeout": 0.000001}'); then
        echo "serve smoke FAILED: over-budget query did not report an error" >&2
        exit 1
    fi
    grep -q '"type":"timeout"' <<<"$timeout_reply"
    grep -q '"pong":true' <<<"$(query '{"op": "ping"}')"

    # A second daemon on a live socket is refused in one line (exit 2),
    # and the first keeps its socket.
    second_status=0
    python -m repro serve --socket "$serve_sock" --quiet \
        2> "$serve_dir/second.err" || second_status=$?
    if [[ $second_status -ne 2 || $(wc -l < "$serve_dir/second.err") -ne 1 ]] \
            || ! grep -q '^error: ' "$serve_dir/second.err"; then
        echo "serve smoke FAILED: a second serve on a live socket exited $second_status" >&2
        cat "$serve_dir/second.err" >&2
        exit 1
    fi
    grep -q '"pong":true' <<<"$(query '{"op": "ping"}')"

    kill -TERM "$serve_pid" "$python_pid" "$jobs_pid"
    for pid in "$serve_pid" "$python_pid" "$jobs_pid"; do
        if ! wait "$pid"; then
            echo "serve smoke FAILED: daemon did not drain cleanly on SIGTERM" >&2
            exit 1
        fi
    done
    trap - EXIT
    rm -rf "$serve_dir"
    echo "serve smoke OK"

    echo "== kernel smoke: 4-core sweep, compiled and python tiers byte-identical =="
    sweep_args=(--cores 4 --tasksets-per-group 2 --quiet)
    compiled_report=$(python -m repro sweep "${sweep_args[@]}" --kernel compiled)
    python_report=$(python -m repro sweep "${sweep_args[@]}" --kernel python)
    if [[ "$compiled_report" != "$python_report" ]]; then
        echo "kernel smoke FAILED: compiled and python sweeps disagree" >&2
        diff <(printf '%s\n' "$python_report") <(printf '%s\n' "$compiled_report") >&2 || true
        exit 1
    fi

    echo "== kernel smoke: 2-core baseline and first-/worst-fit sweep, compiled and python reports and checkpoints byte-identical =="
    kernel_dir=$(mktemp -d)
    trap 'rm -rf "$kernel_dir"' EXIT
    baseline_args=(--cores 2 --tasksets-per-group 2 --quiet
                   --schemes HYDRA-C,HYDRA,HYDRA-TMax,GLOBAL-TMax,HYDRA-RF,HYDRA-C-FF,HYDRA-C-WF)
    for tier in compiled python; do
        python -m repro sweep "${baseline_args[@]}" --kernel "$tier" \
            --checkpoint "$kernel_dir/$tier.jsonl" > "$kernel_dir/$tier.txt"
    done
    for suffix in txt jsonl; do
        if ! cmp "$kernel_dir/compiled.$suffix" "$kernel_dir/python.$suffix"; then
            echo "kernel smoke FAILED: compiled and python baseline sweeps disagree ($suffix)" >&2
            diff "$kernel_dir/python.$suffix" "$kernel_dir/compiled.$suffix" >&2 || true
            exit 1
        fi
    done
    trap - EXIT
    rm -rf "$kernel_dir"
    echo "kernel smoke OK"

    echo "== checkpoint smoke: a torn sweep checkpoint and a grown campaign resume byte-identical; a removed backend prefix is refused =="
    resume_dir=$(mktemp -d)
    trap 'rm -rf "$resume_dir"' EXIT
    # same_bytes LABEL A B: fail the stage unless files A and B are equal.
    same_bytes() {
        if ! cmp "$2" "$3"; then
            echo "checkpoint smoke FAILED: $1" >&2
            diff "$2" "$3" >&2 || true
            exit 1
        fi
    }
    resume_sweep=(python -m repro sweep --cores 2 --tasksets-per-group 2
                  --chunk-size 5 --quiet)
    "${resume_sweep[@]}" --checkpoint "$resume_dir/sweep-full.jsonl" \
        > "$resume_dir/sweep-full.txt"
    # What a kill mid-append leaves: the header, the first chunk and a
    # torn fragment of the next record.
    kept=$(head -n 6 "$resume_dir/sweep-full.jsonl" | wc -c)
    head -c "$((kept + 40))" "$resume_dir/sweep-full.jsonl" \
        > "$resume_dir/sweep-cut.jsonl"
    "${resume_sweep[@]}" --checkpoint "$resume_dir/sweep-cut.jsonl" \
        > "$resume_dir/sweep-cut.txt"
    for suffix in jsonl txt; do
        same_bytes "the resumed sweep differs from the uninterrupted one ($suffix)" \
            "$resume_dir/sweep-full.$suffix" "$resume_dir/sweep-cut.$suffix"
    done
    # Trial seeds are prefix-stable: growing --trials on a checkpoint
    # extends it to exactly what a direct run writes.
    resume_campaign=(python -m repro campaign --horizon 9000
                     --schemes HYDRA-C,HYDRA --jitter 50 --quiet)
    "${resume_campaign[@]}" --trials 4 --checkpoint "$resume_dir/campaign-direct.jsonl" \
        > "$resume_dir/campaign-direct.txt"
    "${resume_campaign[@]}" --trials 2 --checkpoint "$resume_dir/campaign-grown.jsonl" \
        > /dev/null
    "${resume_campaign[@]}" --trials 4 --checkpoint "$resume_dir/campaign-grown.jsonl" \
        > "$resume_dir/campaign-grown.txt"
    for suffix in jsonl txt; do
        same_bytes "the grown campaign differs from the direct one ($suffix)" \
            "$resume_dir/campaign-direct.$suffix" "$resume_dir/campaign-grown.$suffix"
    done
    # refused ARGS...: a removed backend's URI is one error line and
    # exit 2, not a new file named after it.
    refused() {
        local status=0
        python -m repro "$@" --quiet --checkpoint "sqlite:$resume_dir/x.db" \
            > /dev/null 2> "$resume_dir/prefix.err" || status=$?
        if [[ $status -ne 2 || $(wc -l < "$resume_dir/prefix.err") -ne 1 ]] \
                || ! grep -q '^error: ' "$resume_dir/prefix.err" \
                || [[ -e "$resume_dir/x.db" || -e sqlite: ]]; then
            echo "checkpoint smoke FAILED: $1 --checkpoint sqlite:... exited $status" >&2
            cat "$resume_dir/prefix.err" >&2
            exit 1
        fi
    }
    refused sweep --tasksets-per-group 1
    refused campaign --trials 1
    trap - EXIT
    rm -rf "$resume_dir"
    echo "checkpoint smoke OK"
fi

if [[ "$stage" == "bench" || "$stage" == "all" ]]; then
    echo "== bench gates: batch-service, RTA-kernel, python-tier-vs-frozen-seed-path (Fig. 6 / Fig. 7b), fast-simulation, campaign-fast-path and serve-latency speedups =="
    python -m pytest -x -q benchmarks/test_bench_batch_service.py \
        benchmarks/test_bench_rta_kernel.py \
        benchmarks/test_bench_vectorized_screen.py \
        benchmarks/test_bench_sim_fast.py \
        benchmarks/test_bench_campaign_fast.py \
        benchmarks/test_bench_serve.py
    echo "== golden pins: figures_output.txt and campaign_golden.txt must be unchanged =="
    if ! git diff --exit-code -- benchmarks/figures_output.txt \
            benchmarks/campaign_golden.txt \
            benchmarks/campaign_edf_pip_golden.txt; then
        echo "bench stage FAILED: a golden pin changed (results drift)" >&2
        exit 1
    fi
fi

if [[ "$stage" == "bench-compiled" || "$stage" == "all" ]]; then
    echo "== bench-compiled gate: compiled kernel vs the frozen seed path =="
    # The gate self-skips (pytest.mark.skipif) when the cffi/gcc backend
    # cannot build.
    python -m pytest -x -q benchmarks/test_bench_compiled_kernel.py
    echo "== golden pins: unchanged after the kernel gates =="
    if ! git diff --exit-code -- benchmarks/figures_output.txt \
            benchmarks/campaign_golden.txt \
            benchmarks/campaign_edf_pip_golden.txt; then
        echo "bench-compiled stage FAILED: a golden pin changed (results drift)" >&2
        exit 1
    fi
fi
