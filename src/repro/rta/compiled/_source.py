"""C source of the compiled kernels (cffi API mode).

Four exported functions cover every integer fixed point the kernel tier
dispatches, and a fifth runs the campaign's trace-free trial loop (see
:mod:`repro.rta.compiled`):

* ``hydra_eq1_solve`` -- the Eq. 1 demand iteration behind
  :meth:`~repro.rta.core_state.CoreState._solve` (prefix and
  appended-at-the-bottom demand), dispatched per solve;
* ``hydra_partitioned_periods`` -- HYDRA's per-core period assignment for
  every core of a task set: per core one Eq. 1 operand buffer holds the
  RT tasks followed by the security tasks at their current trial periods
  (both contribute identical ``ceil(x/T) * C`` terms), and CORE_AWARE
  runs :meth:`~repro.baselines.hydra.Hydra._core_aware_minimum_period`'s
  binary search over it solve for solve, each solve by
  ``hydra_eq1_solve``;
* ``hydra_global_rta`` -- GLOBAL-TMax's whole priority-ordered global RTA
  (:meth:`~repro.rta.global_fp.GlobalRtaEngine.taskset_schedulable`):
  the static Eq. 7 iteration ``hydra_fixed_point`` with no RT term, the
  greedy top-``(M-1)`` carry-in bound and each solved task's Eq. 4 shift;
* ``hydra_select_periods`` -- HYDRA-C period adaptation for a whole task
  set: Algorithm 1 (the all-``T^max`` pass, then the per-task period
  fixing and Line-8 refresh) around Algorithm 2's binary or linear
  search, with the warm-start seed ledger of
  :class:`~repro.core.period_selection.PeriodSelector` kept per
  ``(task, carry-in set)``.  Each response is the static Eq. 6-8 solver
  ``hydra_eq7_solve``: clamped per-core RT workloads (Eq. 2-3), clamped
  non-carry-in/carry-in security terms (Eq. 4-5, the arithmetic of
  :mod:`repro.rta.terms` inlined), greedy top-k carry-in selection or
  exact carry-in-set enumeration -- in exactly the order of
  :func:`repro.schedulability.carry_in.enumerate_carry_in_sets`, so ledger
  slots line up with the python tier's seed keys -- and the Eq. 7
  iteration ``x = floor(Omega(x)/M) + C_s`` per set;
* ``hydra_simulate_trials`` -- the batch simulation backend's event loop
  (:meth:`repro.sim.batched._TrialEngine.run`) for every trial of one
  design: releases, the priority-indexed scheduler round with affinity
  placement, switch/preemption/migration accounting and the detection
  thresholds, round for round; a trial that leaves the loop's envelope
  is reported, not simulated.

The iterates are the same integers the pure-python kernels produce (the
Python callers guard every operand below ``2**31`` and per-task
``wcet <= period`` where the argument needs it; accumulations that could
exceed 63 bits run in ``__int128``), so results are byte-equal -- pinned
by the differential suites in ``tests/rta/`` and, for the trial loop,
``tests/sim/test_batched_engine.py``.
"""

from __future__ import annotations

__all__ = ["CDEF", "C_SOURCE"]

#: Declarations shared with cffi (must match the definitions below).
CDEF = """
int64_t hydra_eq1_solve(int64_t wcet, int64_t threshold, int64_t n,
                        const int64_t *periods, const int64_t *wcets);
int64_t hydra_select_periods(int64_t num_cores,
                             int64_t n_rt, const int64_t *rt_cores,
                             const int64_t *rt_wcets,
                             const int64_t *rt_periods,
                             int64_t n_partition_cores,
                             int64_t n_sec, const int64_t *demands,
                             const int64_t *wcets,
                             const int64_t *max_periods,
                             const int64_t *set_counts, int linear,
                             int64_t *periods, int64_t *responses,
                             int64_t *counters);
int64_t hydra_partitioned_periods(int64_t num_cores,
                                  const int64_t *rt_offsets,
                                  const int64_t *rt_wcets,
                                  const int64_t *rt_periods,
                                  const int64_t *sec_offsets,
                                  const int64_t *sec_wcets,
                                  const int64_t *max_periods, int core_aware,
                                  int64_t *periods, int64_t *responses);
int64_t hydra_global_rta(int64_t num_cores, int64_t n, const int64_t *wcets,
                         const int64_t *periods, const int64_t *limits,
                         int64_t *responses, int64_t *counters);
int64_t hydra_simulate_trials(int64_t num_tasks, int64_t num_rt,
                              int64_t num_cores, const int64_t *wcets,
                              const int64_t *periods,
                              const int64_t *deadlines,
                              const int64_t *core_offsets,
                              const int64_t *core_tasks, int64_t n_affinity,
                              const int64_t *affinity, int64_t horizon,
                              int fail_on_miss, int64_t num_trials,
                              const int64_t *releases,
                              const int64_t *attack_offsets,
                              const int64_t *attack_tasks,
                              const int64_t *start_reqs,
                              const int64_t *detect_reqs,
                              const int64_t *injects, int64_t *statuses,
                              int64_t *counters, int64_t *latencies);
"""

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* ---- Eq. 1: x = C + sum_i ceil(x / T_i) * C_i ------------------------- */

int64_t hydra_eq1_solve(int64_t wcet, int64_t threshold, int64_t n,
                        const int64_t *periods, const int64_t *wcets)
{
    int64_t response = wcet;
    for (;;) {
        __int128 total = wcet;
        int64_t i;
        for (i = 0; i < n; i++) {
            int64_t q = (response + periods[i] - 1) / periods[i];
            total += (__int128)q * wcets[i];
            if (total > threshold)
                return -1;
        }
        if ((int64_t)total == response)
            return response;
        response = (int64_t)total;
    }
}

/* ---- Eq. 6: Omega(x) for one window --------------------------------- */

/* Eq. 2 synchronous-release workload of one task in window x (x >= 0). */
static inline int64_t hydra_workload(int64_t x, int64_t c, int64_t t)
{
    int64_t rem = x % t;
    return (x / t) * c + (rem < c ? rem : c);
}

/* Clamped per-core RT interference summed over cores (first Eq. 6 term),
 * plus the hp base (sum of clamped NC terms) and per-task CI-NC deltas
 * written to delta_scratch.  Returns base = rt + sum(nc). */
static int64_t hydra_omega_base(
    int64_t window, int64_t security_wcet,
    int64_t n_rt, const int64_t *rt_cores,
    const int64_t *rt_wcets, const int64_t *rt_periods,
    int64_t n_partition_cores, int64_t *core_scratch,
    int64_t n_hp, const int64_t *hp_wcets,
    const int64_t *hp_periods, const int64_t *hp_shifts,
    int64_t *delta_scratch)
{
    int64_t cap = window - security_wcet + 1;
    int64_t base = 0;
    int64_t i;

    if (cap > 0 && n_rt > 0) {
        for (i = 0; i < n_partition_cores; i++)
            core_scratch[i] = 0;
        for (i = 0; i < n_rt; i++)
            core_scratch[rt_cores[i]] +=
                hydra_workload(window, rt_wcets[i], rt_periods[i]);
        for (i = 0; i < n_partition_cores; i++)
            base += core_scratch[i] < cap ? core_scratch[i] : cap;
    }

    if (n_hp > 0) {
        int64_t hp_cap = cap > 0 ? cap : 0;
        for (i = 0; i < n_hp; i++) {
            int64_t c = hp_wcets[i];
            int64_t nc = hydra_workload(window, c, hp_periods[i]);
            int64_t shifted = window - hp_shifts[i];
            int64_t ci;
            if (shifted < 0)
                shifted = 0;
            ci = hydra_workload(shifted, c, hp_periods[i]);
            ci += window < c - 1 ? window : c - 1;
            if (nc > hp_cap)
                nc = hp_cap;
            if (ci > hp_cap)
                ci = hp_cap;
            base += nc;
            delta_scratch[i] = ci - nc;
        }
    }
    return base;
}

/* Sum of the largest max_carry_in positive deltas (Lemma 2 bound). */
static int64_t hydra_greedy_positive(const int64_t *deltas, int64_t n,
                                     int64_t k, int64_t *topk)
{
    int64_t filled = 0, total = 0, i, j;
    if (k <= 0)
        return 0;
    for (i = 0; i < n; i++) {
        int64_t d = deltas[i];
        if (d <= 0)
            continue;
        if (filled < k) {
            /* insertion keeping topk descending */
            j = filled++;
            while (j > 0 && topk[j - 1] < d) {
                topk[j] = topk[j - 1];
                j--;
            }
            topk[j] = d;
        } else if (d > topk[k - 1]) {
            j = k - 1;
            while (j > 0 && topk[j - 1] < d) {
                topk[j] = topk[j - 1];
                j--;
            }
            topk[j] = d;
        }
    }
    for (i = 0; i < filled; i++)
        total += topk[i];
    return total;
}

/* ---- Eq. 7/8: per-carry-in-set fixed points --------------------------- */

/* One Eq. 7 iteration chain for a fixed carry-in selection.  set_len < 0
 * selects the greedy per-window bound instead of an explicit set. */
static int64_t hydra_fixed_point(
    int64_t security_wcet, int64_t limit, int64_t num_cores, int64_t seed,
    const int64_t *set_indices, int64_t set_len, int64_t max_carry_in,
    int64_t n_rt, const int64_t *rt_cores,
    const int64_t *rt_wcets, const int64_t *rt_periods,
    int64_t n_partition_cores, int64_t *core_scratch,
    int64_t n_hp, const int64_t *hp_wcets,
    const int64_t *hp_periods, const int64_t *hp_shifts,
    int64_t *delta_scratch, int64_t *topk_scratch)
{
    int64_t window = security_wcet;
    if (seed > window)
        window = seed;
    for (;;) {
        int64_t total = hydra_omega_base(
            window, security_wcet,
            n_rt, rt_cores, rt_wcets, rt_periods,
            n_partition_cores, core_scratch,
            n_hp, hp_wcets, hp_periods, hp_shifts, delta_scratch);
        int64_t candidate, i;
        if (set_len < 0)
            total += hydra_greedy_positive(delta_scratch, n_hp,
                                           max_carry_in, topk_scratch);
        else
            for (i = 0; i < set_len; i++)
                total += delta_scratch[set_indices[i]];
        candidate = total / num_cores + security_wcet;
        if (candidate == window)
            return window;
        if (candidate > limit)
            return -1;
        window = candidate;
    }
}

/* Eq. 8: the worst per-set fixed point (-1 once any set exceeds limit).
 * seeds[i] > 0 warm-starts set i; sink[i] receives each solved set's fixed
 * point (seeds and sink may alias: every slot is read before written). */
static int64_t hydra_eq7_solve(
    int64_t security_wcet, int64_t limit, int64_t num_cores,
    int64_t n_rt, const int64_t *rt_cores,
    const int64_t *rt_wcets, const int64_t *rt_periods,
    int64_t n_partition_cores, int64_t *core_scratch,
    int64_t n_hp, const int64_t *hp_wcets,
    const int64_t *hp_periods, const int64_t *hp_shifts,
    int64_t *delta_scratch, int64_t *topk_scratch,
    int64_t max_carry_in, int use_greedy,
    const int64_t *seeds, int64_t *sink, int64_t *set_scratch)
{
    int64_t worst = 0;
    int64_t set_index = 0;
    int64_t k, kmax;

    if (use_greedy) {
        int64_t fp = hydra_fixed_point(
            security_wcet, limit, num_cores, seeds[0],
            (const int64_t *)0, -1, max_carry_in,
            n_rt, rt_cores, rt_wcets, rt_periods,
            n_partition_cores, core_scratch,
            n_hp, hp_wcets, hp_periods, hp_shifts,
            delta_scratch, topk_scratch);
        if (fp >= 0)
            sink[0] = fp;
        return fp;
    }

    /* Exact Eq. 8: enumerate carry-in sets by size then lexicographically,
     * matching enumerate_carry_in_sets() so seed/sink indices align. */
    kmax = max_carry_in < n_hp ? max_carry_in : n_hp;
    for (k = 0; k <= kmax; k++) {
        int64_t i;
        int more = 1;
        for (i = 0; i < k; i++)
            set_scratch[i] = i;
        while (more) {
            int64_t fp = hydra_fixed_point(
                security_wcet, limit, num_cores, seeds[set_index],
                set_scratch, k, max_carry_in,
                n_rt, rt_cores, rt_wcets, rt_periods,
                n_partition_cores, core_scratch,
                n_hp, hp_wcets, hp_periods, hp_shifts,
                delta_scratch, topk_scratch);
            if (fp < 0)
                return -1;
            sink[set_index] = fp;
            if (fp > worst)
                worst = fp;
            set_index++;
            /* next lexicographic combination of size k */
            i = k - 1;
            while (i >= 0 && set_scratch[i] == n_hp - k + i)
                i--;
            if (i < 0) {
                more = 0;
            } else {
                int64_t j;
                set_scratch[i]++;
                for (j = i + 1; j < k; j++)
                    set_scratch[j] = set_scratch[j - 1] + 1;
            }
        }
    }
    return worst;
}

/* ---- Algorithms 1-2: period selection for a whole task set ------------ */

/* Security tasks are indexed in priority order.  Task j has j higher-
 * priority security tasks; its per-set ledger slots start at offsets[j]
 * (set_counts[j] exact carry-in sets, or one greedy slot when 0). */
typedef struct {
    int64_t num_cores, n_rt, n_partition_cores, n_sec;
    const int64_t *rt_cores, *rt_wcets, *rt_periods;
    const int64_t *demands, *wcets, *max_periods, *set_counts;
    int64_t *periods, *responses;
    int64_t *offsets, *shifts, *trial, *chosen, *ledger, *probe_sink;
    int64_t *core_scratch, *delta_scratch, *topk_scratch, *set_scratch;
    int64_t calls, solves, seeded;
} hydra_selector;

/* WCRT of task j (-1 above its T^max) against the current periods[] and
 * the Eq. 4 shifts of tasks 0..j-1.  Blocking is already folded into
 * demands[j]; higher-priority tasks interfere with their raw wcets. */
static int64_t hydra_task_response(hydra_selector *s, int64_t j,
                                   const int64_t *seeds, int64_t *sink)
{
    int64_t slots = s->offsets[j + 1] - s->offsets[j], i;
    s->calls++;
    if (s->demands[j] > s->max_periods[j])
        return -1;
    s->solves++;
    for (i = 0; i < slots; i++)
        if (seeds[i] > 0) {
            s->seeded++;
            break;
        }
    return hydra_eq7_solve(
        s->demands[j], s->max_periods[j], s->num_cores,
        s->n_rt, s->rt_cores, s->rt_wcets, s->rt_periods,
        s->n_partition_cores, s->core_scratch,
        j, s->wcets, s->periods, s->shifts,
        s->delta_scratch, s->topk_scratch,
        s->num_cores - 1, s->set_counts[j] == 0,
        seeds, sink, s->set_scratch);
}

/* Algorithm 2 feasibility: with T_index = candidate, is every lower task
 * schedulable?  Seeds come from the ledger; a feasible probe's chain
 * becomes chosen[] and its per-set fixed points are merged into the
 * ledger (in binary search the feasible probes are exactly those larger
 * than every later candidate, so they soundly seed the rest of the run). */
static int hydra_probe(hydra_selector *s, int64_t index, int64_t candidate)
{
    int64_t j;
    s->periods[index] = candidate;
    s->shifts[index] = s->wcets[index] - 1 + candidate - s->responses[index];
    for (j = index + 1; j < s->n_sec; j++) {
        int64_t r = hydra_task_response(s, j, s->ledger + s->offsets[j],
                                        s->probe_sink + s->offsets[j]);
        if (r < 0)
            return 0;
        s->trial[j] = r;
        s->shifts[j] = s->wcets[j] - 1 + s->periods[j] - r;
    }
    for (j = s->offsets[index + 1]; j < s->offsets[s->n_sec]; j++)
        if (s->ledger[j] < s->probe_sink[j])
            s->ledger[j] = s->probe_sink[j];
    for (j = index + 1; j < s->n_sec; j++)
        s->chosen[j] = s->trial[j];
    return 1;
}

/* Returns n_sec when schedulable (periods[] and responses[] filled), the
 * index of the first task unschedulable at T^max (responses[] filled
 * before it), -1 when out of memory, or -2 if a lower task failed the
 * Line-8 refresh (impossible after a feasible Algorithm 2 search).
 * counters[] receives (analysis calls, Eq. 6-8 solves, seeded solves). */
int64_t hydra_select_periods(int64_t num_cores,
                             int64_t n_rt, const int64_t *rt_cores,
                             const int64_t *rt_wcets,
                             const int64_t *rt_periods,
                             int64_t n_partition_cores,
                             int64_t n_sec, const int64_t *demands,
                             const int64_t *wcets,
                             const int64_t *max_periods,
                             const int64_t *set_counts, int linear,
                             int64_t *periods, int64_t *responses,
                             int64_t *counters)
{
    hydra_selector s;
    int64_t total = 0, width = num_cores > 1 ? num_cores - 1 : 1;
    int64_t index, j, result = n_sec;
    int64_t *block;

    for (j = 0; j < n_sec; j++)
        total += set_counts[j] > 0 ? set_counts[j] : 1;
    block = (int64_t *)calloc(
        (size_t)(5 * n_sec + 2 + 2 * total + n_partition_cores + 2 * width),
        sizeof(int64_t));
    if (!block)
        return -1;
    s.num_cores = num_cores;
    s.n_rt = n_rt;
    s.n_partition_cores = n_partition_cores;
    s.n_sec = n_sec;
    s.rt_cores = rt_cores;
    s.rt_wcets = rt_wcets;
    s.rt_periods = rt_periods;
    s.demands = demands;
    s.wcets = wcets;
    s.max_periods = max_periods;
    s.set_counts = set_counts;
    s.periods = periods;
    s.responses = responses;
    s.offsets = block;
    s.shifts = s.offsets + n_sec + 1;
    s.trial = s.shifts + n_sec;
    s.chosen = s.trial + n_sec;
    s.delta_scratch = s.chosen + n_sec;
    s.ledger = s.delta_scratch + n_sec + 1;
    s.probe_sink = s.ledger + total;
    s.core_scratch = s.probe_sink + total;
    s.topk_scratch = s.core_scratch + n_partition_cores;
    s.set_scratch = s.topk_scratch + width;
    s.calls = s.solves = s.seeded = 0;
    for (j = 0; j < n_sec; j++)
        s.offsets[j + 1] =
            s.offsets[j] + (set_counts[j] > 0 ? set_counts[j] : 1);

    /* Lines 1-4: every task at T^max; its fixed points open the ledger. */
    for (j = 0; j < n_sec; j++)
        periods[j] = max_periods[j];
    for (j = 0; j < n_sec; j++) {
        int64_t r = hydra_task_response(&s, j, s.ledger + s.offsets[j],
                                        s.ledger + s.offsets[j]);
        if (r < 0) {
            result = j;
            goto done;
        }
        responses[j] = r;
        s.shifts[j] = wcets[j] - 1 + periods[j] - r;
    }

    /* Lines 5-9: fix periods from highest to lowest priority. */
    for (index = 0; index < n_sec; index++) {
        int64_t low = responses[index], high = max_periods[index];
        int64_t best = high;
        int probed = 0;
        for (j = 0; j < index; j++)
            s.shifts[j] = wcets[j] - 1 + periods[j] - responses[j];
        if (linear) {
            for (; low <= high; low++)
                if (hydra_probe(&s, index, low)) {
                    best = low;
                    probed = 1;
                    break;
                }
        } else {
            while (low <= high) {
                int64_t mid = (low + high) / 2;
                if (hydra_probe(&s, index, mid)) {
                    best = mid;
                    probed = 1;
                    high = mid - 1;
                } else {
                    low = mid + 1;
                }
            }
        }
        periods[index] = best;
        s.shifts[index] = wcets[index] - 1 + best - responses[index];
        /* Line 8: the feasible probe at best analysed exactly this state;
         * otherwise re-solve from ledger seeds and merge the result last. */
        for (j = index + 1; j < n_sec; j++) {
            int64_t r = s.chosen[j], k;
            if (!probed) {
                r = hydra_task_response(&s, j, s.ledger + s.offsets[j],
                                        s.probe_sink + s.offsets[j]);
                if (r < 0) {
                    result = -2;
                    goto done;
                }
                for (k = s.offsets[j]; k < s.offsets[j + 1]; k++)
                    if (s.ledger[k] < s.probe_sink[k])
                        s.ledger[k] = s.probe_sink[k];
                s.shifts[j] = wcets[j] - 1 + periods[j] - r;
            }
            responses[j] = r;
        }
    }

done:
    counters[0] = s.calls;
    counters[1] = s.solves;
    counters[2] = s.seeded;
    free(block);
    return result;
}

/* ---- HYDRA: per-core period adaptation for a whole task set ----------- */

/* Eq. 1 response of a task below the first n_hp operands of a core's
 * buffer (-1 above limit); every fixed point run is counted in *solves. */
static int64_t hydra_core_response(const int64_t *periods,
                                   const int64_t *wcets, int64_t n_hp,
                                   int64_t wcet, int64_t limit,
                                   int64_t *solves)
{
    if (wcet > limit)
        return -1;
    (*solves)++;
    return hydra_eq1_solve(wcet, limit, n_hp, periods, wcets);
}

/* Core c holds RT tasks rt_offsets[c]..rt_offsets[c+1]-1 and security
 * tasks sec_offsets[c]..sec_offsets[c+1]-1, each in priority order.  Per
 * core one Eq. 1 operand buffer holds the RT tasks followed by the
 * security tasks at their current periods (T^max until fixed).  With
 * core_aware, each security task's period is minimised in priority order:
 * its own response at the bottom of the core, else a binary search over
 * [R, T^max] whose probe re-solves every lower-priority task of the core
 * and stops at the first one above its T^max.  Otherwise (TMAX) every
 * period stays T^max.  periods[]/responses[] receive the final periods
 * and responses (-1 = above T^max).  Returns the number of Eq. 1 solves,
 * or -1 when out of memory. */
int64_t hydra_partitioned_periods(int64_t num_cores,
                                  const int64_t *rt_offsets,
                                  const int64_t *rt_wcets,
                                  const int64_t *rt_periods,
                                  const int64_t *sec_offsets,
                                  const int64_t *sec_wcets,
                                  const int64_t *max_periods, int core_aware,
                                  int64_t *periods, int64_t *responses)
{
    int64_t width = 1, solves = 0, core;
    int64_t *buf_periods, *buf_wcets;

    for (core = 0; core < num_cores; core++) {
        int64_t size = rt_offsets[core + 1] - rt_offsets[core]
                       + sec_offsets[core + 1] - sec_offsets[core];
        if (size > width)
            width = size;
    }
    buf_periods = (int64_t *)malloc((size_t)(2 * width) * sizeof(int64_t));
    if (!buf_periods)
        return -1;
    buf_wcets = buf_periods + width;

    for (core = 0; core < num_cores; core++) {
        int64_t n_rt = rt_offsets[core + 1] - rt_offsets[core];
        int64_t first = sec_offsets[core];
        int64_t n_sec = sec_offsets[core + 1] - first;
        int64_t *sec_periods = buf_periods + n_rt;
        int64_t p, q;
        if (n_sec == 0)
            continue;
        for (q = 0; q < n_rt; q++) {
            buf_periods[q] = rt_periods[rt_offsets[core] + q];
            buf_wcets[q] = rt_wcets[rt_offsets[core] + q];
        }
        for (p = 0; p < n_sec; p++) {
            sec_periods[p] = max_periods[first + p];
            buf_wcets[n_rt + p] = sec_wcets[first + p];
        }
        for (p = 0; core_aware && p < n_sec; p++) {
            int64_t low, high, best;
            low = hydra_core_response(buf_periods, buf_wcets, n_rt + p,
                                      sec_wcets[first + p],
                                      max_periods[first + p], &solves);
            if (low < 0)
                continue; /* allocation guarantees a fit; keep T^max */
            if (p + 1 == n_sec) {
                sec_periods[p] = low;
                continue;
            }
            high = max_periods[first + p];
            best = high;
            while (low <= high) {
                int64_t mid = (low + high) / 2;
                int feasible = 1;
                sec_periods[p] = mid;
                for (q = p + 1; q < n_sec; q++)
                    if (hydra_core_response(buf_periods, buf_wcets, n_rt + q,
                                            sec_wcets[first + q],
                                            max_periods[first + q],
                                            &solves) < 0) {
                        feasible = 0;
                        break;
                    }
                if (feasible) {
                    best = mid;
                    high = mid - 1;
                } else {
                    low = mid + 1;
                }
            }
            sec_periods[p] = best;
        }
        for (p = 0; p < n_sec; p++) {
            periods[first + p] = sec_periods[p];
            responses[first + p] = hydra_core_response(
                buf_periods, buf_wcets, n_rt + p, sec_wcets[first + p],
                max_periods[first + p], &solves);
        }
    }
    free(buf_periods);
    return solves;
}

/* ---- GLOBAL-TMax: global fixed-priority RTA of a whole task set ------- */

/* Tasks are indexed in priority order.  Each is solved by the Eq. 7
 * iteration against every task above it, with the greedy top-(M-1)
 * carry-in bound and no partitioned RT term; a solved response R fixes
 * the task's Eq. 4 shift C - 1 + T - R for the tasks below.  Returns the
 * index of the first task above its limit (n when all fit; responses[]
 * valid before it) or -1 when out of memory.  counters[0] receives the
 * number of fixed points run. */
int64_t hydra_global_rta(int64_t num_cores, int64_t n, const int64_t *wcets,
                         const int64_t *periods, const int64_t *limits,
                         int64_t *responses, int64_t *counters)
{
    int64_t width = num_cores > 1 ? num_cores - 1 : 1;
    int64_t j, solves = 0, result = n;
    int64_t *shifts, *deltas, *topk;

    shifts = (int64_t *)malloc((size_t)(2 * n + width) * sizeof(int64_t));
    if (!shifts)
        return -1;
    deltas = shifts + n;
    topk = deltas + n;
    for (j = 0; j < n; j++) {
        int64_t r;
        if (wcets[j] > limits[j]) {
            result = j;
            break;
        }
        solves++;
        r = hydra_fixed_point(
            wcets[j], limits[j], num_cores, 0, (const int64_t *)0, -1,
            num_cores - 1, 0, (const int64_t *)0, (const int64_t *)0,
            (const int64_t *)0, 0, (int64_t *)0,
            j, wcets, periods, shifts, deltas, topk);
        if (r < 0) {
            result = j;
            break;
        }
        responses[j] = r;
        shifts[j] = wcets[j] - 1 + periods[j] - r;
    }
    counters[0] = solves;
    free(shifts);
    return result;
}

/* ---- Campaign trials: the batch backend's trace-free event loop ------- */

/* One design's envelope and the per-task, per-core and per-attack state
 * of the trial being simulated (all state lives in one workspace). */
typedef struct {
    int64_t num_tasks, num_rt, num_cores, n_affinity, horizon;
    int fail_on_miss;
    const int64_t *wcets, *periods, *deadlines;
    const int64_t *core_offsets, *core_tasks, *affinity;
    int64_t *next_release, *active, *job_index, *release_time, *progress;
    int64_t *last_core, *occupant, *previous_task, *previous_job, *pending;
    int64_t *scan_start;
} hydra_trials;

/* Task-index twin of _BaseScheduler._place_with_affinity: the first
 * free_cores active tasks of the affinity order are selected; those whose
 * last core is still free keep it, claimed in selection order; the rest
 * fill the remaining free cores in ascending index order. */
static void hydra_place_with_affinity(hydra_trials *s, int64_t free_cores)
{
    int64_t selected = 0, n_pending = 0, core = 0, i;
    for (i = 0; i < s->n_affinity && selected < free_cores; i++) {
        int64_t k = s->affinity[i], last;
        if (!s->active[k])
            continue;
        selected++;
        last = s->last_core[k];
        if (last >= 0 && s->occupant[last] < 0)
            s->occupant[last] = k;
        else
            s->pending[n_pending++] = k;
    }
    for (i = 0; i < n_pending; i++) {
        while (s->occupant[core] >= 0)
            core++;
        s->occupant[core] = s->pending[i];
    }
}

/* One trial of repro.sim.batched._TrialEngine.run, round for round.
 * Returns 1 with counters[0..2] (context switches, migrations,
 * preemptions) and latencies[] (detection - inject, -1 = undetected)
 * filled, or 0 when the trial leaves the envelope: an RT release overlap,
 * or an RT deadline miss under fail_on_miss.  A trial carries few
 * attacks (the campaign draws one per monitor), so a task's attacks are
 * found by scanning them all. */
static int hydra_trial(hydra_trials *s, const int64_t *releases,
                       int64_t n_attacks, const int64_t *attack_tasks,
                       const int64_t *start_reqs, const int64_t *detect_reqs,
                       const int64_t *injects, int64_t *counters,
                       int64_t *latencies)
{
    const int64_t n = s->num_tasks, m = s->num_cores, horizon = s->horizon;
    int64_t *active = s->active, *job_index = s->job_index;
    int64_t *progress = s->progress, *last_core = s->last_core;
    int64_t *occupant = s->occupant, *next_release = s->next_release;
    int64_t *detection = latencies; /* absolute ticks until the end */
    int64_t switches = 0, migrations = 0, preemptions = 0, now = 0;
    int64_t k, c, a, i;

    for (k = 0; k < n; k++) {
        next_release[k] = releases[k];
        active[k] = 0;
        job_index[k] = -1;
        s->release_time[k] = 0;
        progress[k] = 0;
        last_core[k] = -1;
    }
    for (c = 0; c < m; c++)
        s->previous_task[c] = s->previous_job[c] = -1;
    for (a = 0; a < n_attacks; a++)
        s->scan_start[a] = detection[a] = -1;

    for (;;) {
        int64_t next_time, delta, free_cores = 0;

        /* releases due at now */
        for (k = 0; k < n; k++) {
            if (next_release[k] > now)
                continue;
            next_release[k] += s->periods[k];
            if (active[k]) {
                if (k < s->num_rt)
                    return 0; /* a second concurrent RT job */
                continue;     /* a busy monitor skips the boundary */
            }
            active[k] = 1;
            job_index[k]++;
            s->release_time[k] = now;
            progress[k] = 0;
            last_core[k] = -1;
        }

        /* scheduler round: each core's highest-priority active bound
         * task, then the idle cores by affinity */
        for (c = 0; c < m; c++) {
            occupant[c] = -1;
            for (i = s->core_offsets[c]; i < s->core_offsets[c + 1]; i++)
                if (active[s->core_tasks[i]]) {
                    occupant[c] = s->core_tasks[i];
                    break;
                }
            if (occupant[c] < 0)
                free_cores++;
        }
        if (s->n_affinity >= 0 && free_cores > 0)
            hydra_place_with_affinity(s, free_cores);

        /* switches, preemptions, migrations, first runs */
        for (c = 0; c < m; c++) {
            int64_t job, before;
            k = occupant[c];
            job = k >= 0 ? job_index[k] : -1;
            before = s->previous_task[c];
            if (k != before || job != s->previous_job[c]) {
                switches++;
                if (before >= 0 && active[before]
                    && job_index[before] == s->previous_job[c]) {
                    int64_t placed = 0;
                    for (i = 0; i < m; i++)
                        if (occupant[i] == before)
                            placed = 1;
                    if (!placed)
                        preemptions++;
                }
            }
            s->previous_task[c] = k;
            s->previous_job[c] = job;
            if (k < 0)
                continue;
            if (last_core[k] < 0) {
                /* the job's first run: a zero start threshold means the
                 * sweep over the unit begins now */
                for (a = 0; a < n_attacks; a++)
                    if (attack_tasks[a] == k && start_reqs[a] == 0)
                        s->scan_start[a] = now;
            } else if (last_core[k] != c) {
                migrations++;
            }
            last_core[k] = c;
        }

        /* jump to the next event */
        next_time = horizon;
        for (k = 0; k < n; k++)
            if (next_release[k] < next_time)
                next_time = next_release[k];
        for (c = 0; c < m; c++) {
            k = occupant[c];
            if (k >= 0 && now + s->wcets[k] - progress[k] < next_time)
                next_time = now + s->wcets[k] - progress[k];
        }
        delta = next_time - now;

        for (c = 0; c < m; c++) {
            int64_t done, reached;
            k = occupant[c];
            if (k < 0)
                continue;
            done = progress[k];
            reached = done + delta;
            /* threshold X with done < X <= reached is hit at
             * now + (X - done) */
            for (a = 0; a < n_attacks; a++) {
                if (attack_tasks[a] != k)
                    continue;
                if (done < start_reqs[a] && start_reqs[a] <= reached)
                    s->scan_start[a] = now + start_reqs[a] - done;
                if (detection[a] < 0 && done < detect_reqs[a]
                    && detect_reqs[a] <= reached) {
                    int64_t candidate = now + detect_reqs[a] - done;
                    if (s->scan_start[a] >= injects[a]
                        && candidate > injects[a])
                        detection[a] = candidate;
                }
            }
            progress[k] = reached;
            if (reached == s->wcets[k]) {
                active[k] = 0;
                if (s->fail_on_miss && k < s->num_rt) {
                    int64_t absolute = s->release_time[k] + s->deadlines[k];
                    if (next_time > absolute && absolute <= horizon)
                        return 0;
                }
            }
        }

        now = next_time;
        if (now >= horizon)
            break;
    }

    if (s->fail_on_miss)
        for (k = 0; k < s->num_rt; k++)
            if (active[k] && s->release_time[k] + s->deadlines[k] <= horizon)
                return 0;
    counters[0] = switches;
    counters[1] = migrations;
    counters[2] = preemptions;
    for (a = 0; a < n_attacks; a++)
        if (detection[a] >= 0)
            latencies[a] = detection[a] - injects[a];
    return 1;
}

/* Simulates num_trials trials of one design.  Tasks are indexed RT first
 * (0..num_rt-1), then security.  Core c's bound tasks, in priority order,
 * are core_tasks[core_offsets[c]..core_offsets[c+1]-1]; the idle cores
 * are filled from affinity[0..n_affinity-1] (n_affinity < 0: no affinity
 * placement, the partitioned policy).  Trial t first releases task k at
 * releases[t*num_tasks + k]; its attacks are attack_offsets[t] ..
 * attack_offsets[t+1]-1, each with its monitored task, scan-start and
 * detect thresholds and inject time.  statuses[t] receives 1 when the
 * trial was simulated (counters[3t..3t+2] = context switches, migrations,
 * preemptions; latencies[a] = detection - inject, -1 = undetected) and 0
 * when it left the envelope (the caller's fallback runs it).  Callers
 * keep every period positive and every operand below 2**31.  Returns 0,
 * or -1 when out of memory. */
int64_t hydra_simulate_trials(int64_t num_tasks, int64_t num_rt,
                              int64_t num_cores, const int64_t *wcets,
                              const int64_t *periods,
                              const int64_t *deadlines,
                              const int64_t *core_offsets,
                              const int64_t *core_tasks, int64_t n_affinity,
                              const int64_t *affinity, int64_t horizon,
                              int fail_on_miss, int64_t num_trials,
                              const int64_t *releases,
                              const int64_t *attack_offsets,
                              const int64_t *attack_tasks,
                              const int64_t *start_reqs,
                              const int64_t *detect_reqs,
                              const int64_t *injects, int64_t *statuses,
                              int64_t *counters, int64_t *latencies)
{
    hydra_trials s;
    int64_t max_attacks = 0, t;
    int64_t *block;

    for (t = 0; t < num_trials; t++)
        if (attack_offsets[t + 1] - attack_offsets[t] > max_attacks)
            max_attacks = attack_offsets[t + 1] - attack_offsets[t];
    block = (int64_t *)malloc(
        (size_t)(6 * num_tasks + 4 * num_cores + max_attacks + 1)
        * sizeof(int64_t));
    if (!block)
        return -1;
    s.num_tasks = num_tasks;
    s.num_rt = num_rt;
    s.num_cores = num_cores;
    s.n_affinity = n_affinity;
    s.horizon = horizon;
    s.fail_on_miss = fail_on_miss;
    s.wcets = wcets;
    s.periods = periods;
    s.deadlines = deadlines;
    s.core_offsets = core_offsets;
    s.core_tasks = core_tasks;
    s.affinity = affinity;
    s.next_release = block;
    s.active = s.next_release + num_tasks;
    s.job_index = s.active + num_tasks;
    s.release_time = s.job_index + num_tasks;
    s.progress = s.release_time + num_tasks;
    s.last_core = s.progress + num_tasks;
    s.occupant = s.last_core + num_tasks;
    s.previous_task = s.occupant + num_cores;
    s.previous_job = s.previous_task + num_cores;
    s.pending = s.previous_job + num_cores;
    s.scan_start = s.pending + num_cores;

    for (t = 0; t < num_trials; t++) {
        int64_t first = attack_offsets[t];
        statuses[t] = hydra_trial(
            &s, releases + t * num_tasks, attack_offsets[t + 1] - first,
            attack_tasks + first, start_reqs + first, detect_reqs + first,
            injects + first, counters + 3 * t, latencies + first);
    }
    free(block);
    return 0;
}
"""
