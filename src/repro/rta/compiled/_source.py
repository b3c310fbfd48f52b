"""C source of the compiled kernels (cffi API mode).

Six exported functions cover every integer fixed point the kernel tier
dispatches, and a seventh runs the campaign's trace-free trial loop (see
:mod:`repro.rta.compiled`):

* ``hydra_eq1_solve`` -- the Eq. 1 demand iteration behind
  :meth:`~repro.rta.core_state.CoreState._solve` (prefix and
  appended-at-the-bottom demand), dispatched per solve;
* ``hydra_partition_rt`` -- the whole best-, first- or worst-fit-decreasing
  RT partition of one task set
  (:func:`~repro.partitioning.heuristics.partition_rt_tasks`): each probe
  is the verdict of :meth:`~repro.rta.core_state.CoreState.admit` -- the
  candidate inserted at its priority position, then it and every task
  below it solved by ``hydra_eq1_solve`` -- and the core is chosen by the
  strategy's ``(load, core)`` order over the per-core utilization sums;
  the admitting probes' solves are every task's final Eq. 1 response,
  returned for the Eq. 1 check;
* ``hydra_allocate_security`` -- HYDRA's max-period best-fit security
  allocation of one task set
  (:meth:`~repro.baselines.hydra.Hydra.allocate_security`): each task, in
  priority order, probes every core with ``hydra_eq1_solve`` below the
  core's RT and already placed security tasks, takes the minimum of
  ``(-load, response, core)`` and occupies that core at ``T^max``;
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
  ``hydra_eq7_solve``: clamped per-core RT workloads (Eq. 2-3, the
  per-core sums memoised per window like
  :class:`~repro.rta.migrating.RtWorkloadCache`), clamped
  non-carry-in/carry-in security terms (Eq. 4-5, the arithmetic of
  :mod:`repro.rta.terms` inlined), greedy top-k carry-in selection or
  exact carry-in-set enumeration -- in exactly the order of
  :func:`repro.schedulability.carry_in.enumerate_carry_in_sets`, so ledger
  slots line up with the python tier's seed keys, with the sets that
  cannot raise the Eq. 8 maximum certified against the incumbent instead
  of solved -- and the Eq. 7 iteration ``x = floor(Omega(x)/M) + C_s``
  per set;
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
by the differential suites in ``tests/rta/``, ``tests/partitioning/``,
``tests/baselines/`` and, for the trial loop,
``tests/sim/test_batched_engine.py``; the partitioner's and the
allocation's per-core loads are the python float sums, accumulated in the
python order.  Every
entry point works in one heap workspace per call, freed on every path:
no fixed-size arrays and no ``static`` state (cffi releases the GIL).
"""

from __future__ import annotations

__all__ = ["CDEF", "C_SOURCE"]

#: Declarations shared with cffi (must match the definitions below).
CDEF = """
int64_t hydra_eq1_solve(int64_t wcet, int64_t threshold, int64_t n,
                        const int64_t *periods, const int64_t *wcets);
int64_t hydra_partition_rt(int64_t num_cores, int64_t n,
                           const int64_t *wcets, const int64_t *periods,
                           const int64_t *deadlines, const int64_t *demands,
                           const double *utilizations, const int64_t *order,
                           int strategy, int64_t *cores, int64_t *responses,
                           int64_t *counters);
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
int64_t hydra_allocate_security(int64_t num_cores,
                                const int64_t *rt_offsets,
                                const int64_t *rt_wcets,
                                const int64_t *rt_periods, int64_t n_sec,
                                const int64_t *demands, const int64_t *wcets,
                                const int64_t *max_periods, int64_t *cores,
                                int64_t *responses, int64_t *counters);
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

/* ---- RT partitioning: first/best/worst-fit decreasing over Eq. 1 ------ */

enum { HYDRA_FIRST_FIT = 0, HYDRA_BEST_FIT = 1, HYDRA_WORST_FIT = 2 };

/* One task set's RT tasks, indexed in priority order, and the packing so
 * far (assigned[i] = core of task i, -1 = not placed yet; responses[i] =
 * task i's Eq. 1 response on it). */
typedef struct {
    int64_t n;
    const int64_t *wcets, *periods, *deadlines, *demands;
    int64_t *assigned, *responses, *members, *probe, *buf_periods,
        *buf_wcets;
    int64_t solves;
} hydra_partition;

/* Does task t fit on core c?  The verdict of CoreState.admit: t is
 * inserted at its priority position among the core's tasks, and t and
 * every task below it must pass -- demand (wcet + blocking) within the
 * deadline, then the Eq. 1 fixed point over the tasks above it (raw
 * wcets) within the deadline.  The tasks above t keep their verdicts.
 * An admitting probe is always the placement (the caller stops at the
 * first core that admits), so its solves become the responses of t and
 * the tasks below it; a failing probe's solves are discarded.  Each
 * task's last solve thus saw its final higher-priority set. */
static int hydra_rt_admits(hydra_partition *p, int64_t t, int64_t c)
{
    int64_t m = 0, position = 0, i, q;
    for (i = 0; i < p->n; i++) {
        if (i == t)
            position = m;
        else if (p->assigned[i] != c)
            continue;
        p->buf_periods[m] = p->periods[i];
        p->buf_wcets[m] = p->wcets[i];
        p->members[m++] = i;
    }
    for (q = position; q < m; q++) {
        int64_t k = p->members[q];
        if (p->demands[k] > p->deadlines[k])
            return 0;
        p->solves++;
        p->probe[q] = hydra_eq1_solve(p->demands[k], p->deadlines[k], q,
                                      p->buf_periods, p->buf_wcets);
        if (p->probe[q] < 0)
            return 0;
    }
    for (q = position; q < m; q++)
        p->responses[p->members[q]] = p->probe[q];
    return 1;
}

/* Places the n RT tasks (indexed in priority order) in the placement
 * order order[0..n-1] on num_cores cores.  Each task goes to the first
 * core it fits on in the strategy's preference order -- first-fit: by
 * index; best-fit: by load descending, then index; worst-fit: by load
 * ascending, then index -- which is the strategy's pick among all the
 * cores it fits on.  A core's load is the sum of its tasks' utilizations
 * in placement order, the python loop's float sum.  cores[i] receives
 * task i's core (-1 = not placed), responses[i] its Eq. 1 response on
 * that core (-1 = not placed) and counters[0] the Eq. 1 fixed points
 * run.  Returns n when every task fits, the placement step of the first
 * task that fits on no core, or -1 when out of memory. */
int64_t hydra_partition_rt(int64_t num_cores, int64_t n,
                           const int64_t *wcets, const int64_t *periods,
                           const int64_t *deadlines, const int64_t *demands,
                           const double *utilizations, const int64_t *order,
                           int strategy, int64_t *cores, int64_t *responses,
                           int64_t *counters)
{
    hydra_partition p;
    double *loads;
    int64_t *rank;
    int64_t step, i, result = n;
    void *block = malloc((size_t)num_cores * (sizeof(double) + sizeof(int64_t))
                         + (size_t)(5 * n + 1) * sizeof(int64_t));

    if (!block)
        return -1;
    loads = (double *)block;
    rank = (int64_t *)(loads + num_cores);
    p.n = n;
    p.wcets = wcets;
    p.periods = periods;
    p.deadlines = deadlines;
    p.demands = demands;
    p.assigned = rank + num_cores;
    p.responses = responses;
    p.members = p.assigned + n;
    p.probe = p.members + n + 1;
    p.buf_periods = p.probe + n;
    p.buf_wcets = p.buf_periods + n;
    p.solves = 0;
    for (i = 0; i < num_cores; i++)
        loads[i] = 0.0;
    for (i = 0; i < n; i++) {
        p.assigned[i] = -1;
        responses[i] = -1;
    }

    for (step = 0; step < n; step++) {
        int64_t t = order[step], chosen = -1;
        /* rank the cores in preference order (insertion sort, stable) */
        for (i = 0; i < num_cores; i++) {
            int64_t j = i;
            while (j > 0
                   && ((strategy == HYDRA_BEST_FIT
                        && loads[i] > loads[rank[j - 1]])
                       || (strategy == HYDRA_WORST_FIT
                           && loads[i] < loads[rank[j - 1]]))) {
                rank[j] = rank[j - 1];
                j--;
            }
            rank[j] = i;
        }
        for (i = 0; i < num_cores; i++)
            if (hydra_rt_admits(&p, t, rank[i])) {
                chosen = rank[i];
                break;
            }
        if (chosen < 0) {
            result = step;
            break;
        }
        p.assigned[t] = chosen;
        loads[chosen] += utilizations[t];
    }
    for (i = 0; i < n; i++)
        cores[i] = p.assigned[i];
    counters[0] = p.solves;
    free(block);
    return result;
}

/* ---- Eq. 6: Omega(x) for one window --------------------------------- */

/* Eq. 2 synchronous-release workload of one task in window x (x >= 0). */
static inline int64_t hydra_workload(int64_t x, int64_t c, int64_t t)
{
    int64_t rem = x % t;
    return (x / t) * c + (rem < c ? rem : c);
}

/* Direct-mapped slots of the per-window RT workload memo: Table-3 windows
 * (<= 3000 ticks) never collide, larger ones just recompute. */
#define HYDRA_RT_MEMO_SLOTS 4096

/* The partitioned RT tasks of one period selection (n_cores = the
 * partition's core count) and their per-core unclamped Eq. 2 workload
 * sums, memoised by window: slot window % HYDRA_RT_MEMO_SLOTS holds the
 * n_cores sums of the window tagged on it (-1 = empty). */
typedef struct {
    int64_t n_rt, n_cores;
    const int64_t *cores, *wcets, *periods;
    int64_t *tags, *sums;
} hydra_rt;

static const int64_t *hydra_rt_workloads(hydra_rt *rt, int64_t window)
{
    int64_t slot = window & (HYDRA_RT_MEMO_SLOTS - 1), i;
    int64_t *sums = rt->sums + slot * rt->n_cores;
    if (rt->tags[slot] == window)
        return sums;
    rt->tags[slot] = window;
    for (i = 0; i < rt->n_cores; i++)
        sums[i] = 0;
    for (i = 0; i < rt->n_rt; i++)
        sums[rt->cores[i]] +=
            hydra_workload(window, rt->wcets[i], rt->periods[i]);
    return sums;
}

/* Clamped per-core RT interference summed over cores (first Eq. 6 term;
 * none when rt is NULL), plus the hp base (sum of clamped NC terms) and
 * per-task CI-NC deltas written to delta_scratch.  Returns base = rt +
 * sum(nc). */
static int64_t hydra_omega_base(
    int64_t window, int64_t security_wcet, hydra_rt *rt,
    int64_t n_hp, const int64_t *hp_wcets,
    const int64_t *hp_periods, const int64_t *hp_shifts,
    int64_t *delta_scratch)
{
    int64_t cap = window - security_wcet + 1;
    int64_t base = 0;
    int64_t i;

    if (cap > 0 && rt != NULL && rt->n_rt > 0) {
        const int64_t *sums = hydra_rt_workloads(rt, window);
        for (i = 0; i < rt->n_cores; i++)
            base += sums[i] < cap ? sums[i] : cap;
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
    hydra_rt *rt,
    int64_t n_hp, const int64_t *hp_wcets,
    const int64_t *hp_periods, const int64_t *hp_shifts,
    int64_t *delta_scratch, int64_t *topk_scratch)
{
    int64_t window = security_wcet;
    if (seed > window)
        window = seed;
    for (;;) {
        int64_t total = hydra_omega_base(
            window, security_wcet, rt,
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

/* ---- Algorithms 1-2: period selection for a whole task set ------------ */

/* Security tasks are indexed in priority order.  Task j has j higher-
 * priority security tasks; its per-set ledger slots start at offsets[j]
 * (set_counts[j] exact carry-in sets, or one greedy slot when 0). */
typedef struct {
    int64_t num_cores, n_sec;
    hydra_rt rt;
    const int64_t *demands, *wcets, *max_periods, *set_counts;
    int64_t *periods, *responses;
    int64_t *offsets, *shifts, *trial, *chosen, *ledger, *probe_sink;
    int64_t *delta_scratch, *cert_scratch, *topk_scratch, *set_scratch;
    int64_t calls, solves, seeded, certified;
} hydra_selector;

/* Eq. 8 for task j against the current periods[] and the Eq. 4 shifts of
 * tasks 0..j-1: the worst per-set fixed point, -1 once a set exceeds
 * T^max.  seeds[i] > 0 warm-starts set i and sink[i] receives its fixed
 * point (seeds and sink may alias: every slot is read before written).
 * Exact sets are enumerated by size, then lexicographically, as
 * enumerate_carry_in_sets() does.  From the second set on, the incumbent
 * (the largest fixed point so far) certifies sets: the solve map
 * h(x) = Omega(x)/M + C is monotone, so h(worst) <= worst bounds the set's
 * least fixed point by worst -- it can neither raise the maximum nor
 * exceed T^max -- and the set is not solved.  Its sink slot receives its
 * own seed, a sound lower bound, so the ledger merge leaves it as it is.
 * The checks share one Omega materialised at worst, re-materialised when
 * worst rises. */
static int64_t hydra_eq7_solve(hydra_selector *s, int64_t j,
                               const int64_t *seeds, int64_t *sink)
{
    int64_t demand = s->demands[j], limit = s->max_periods[j];
    int64_t m = s->num_cores, max_carry_in = s->num_cores - 1;
    int64_t worst = 0, set_index = 0, cert_window = -1;
    int64_t cert_base = 0, cert_budget = 0, k, kmax;

    if (s->set_counts[j] == 0) {
        int64_t fp = hydra_fixed_point(
            demand, limit, m, seeds[0], (const int64_t *)0, -1,
            max_carry_in, &s->rt, j, s->wcets, s->periods, s->shifts,
            s->delta_scratch, s->topk_scratch);
        if (fp >= 0)
            sink[0] = fp;
        return fp;
    }

    kmax = max_carry_in < j ? max_carry_in : j;
    for (k = 0; k <= kmax; k++) {
        int64_t i;
        int more = 1;
        for (i = 0; i < k; i++)
            s->set_scratch[i] = i;
        while (more) {
            int certified = 0;
            if (set_index > 0) {
                /* h(worst) <= worst  <=>  Omega(worst) < M (worst - C + 1) */
                int64_t total;
                if (cert_window != worst) {
                    cert_base = hydra_omega_base(
                        worst, demand, &s->rt, j, s->wcets, s->periods,
                        s->shifts, s->cert_scratch);
                    cert_budget = (worst - demand + 1) * m;
                    cert_window = worst;
                }
                total = cert_base;
                for (i = 0; i < k; i++)
                    total += s->cert_scratch[s->set_scratch[i]];
                certified = total < cert_budget;
            }
            if (certified) {
                sink[set_index] = seeds[set_index];
                s->certified++;
            } else {
                int64_t fp = hydra_fixed_point(
                    demand, limit, m, seeds[set_index], s->set_scratch, k,
                    max_carry_in, &s->rt, j, s->wcets, s->periods,
                    s->shifts, s->delta_scratch, s->topk_scratch);
                if (fp < 0)
                    return -1;
                sink[set_index] = fp;
                if (fp > worst)
                    worst = fp;
            }
            set_index++;
            /* next lexicographic combination of size k */
            i = k - 1;
            while (i >= 0 && s->set_scratch[i] == j - k + i)
                i--;
            if (i < 0) {
                more = 0;
            } else {
                int64_t next;
                s->set_scratch[i]++;
                for (next = i + 1; next < k; next++)
                    s->set_scratch[next] = s->set_scratch[next - 1] + 1;
            }
        }
    }
    return worst;
}

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
    return hydra_eq7_solve(s, j, seeds, sink);
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
 * counters[] receives (analysis calls, Eq. 6-8 solves, seeded solves,
 * certified carry-in sets). */
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
    int64_t memo = n_rt > 0 ? HYDRA_RT_MEMO_SLOTS : 0;
    int64_t index, j, result = n_sec;
    int64_t *block;

    for (j = 0; j < n_sec; j++)
        total += set_counts[j] > 0 ? set_counts[j] : 1;
    block = (int64_t *)calloc(
        (size_t)(6 * n_sec + 3 + 2 * total + 2 * width
                 + memo * (1 + n_partition_cores)),
        sizeof(int64_t));
    if (!block)
        return -1;
    s.num_cores = num_cores;
    s.n_sec = n_sec;
    s.rt.n_rt = n_rt;
    s.rt.n_cores = n_partition_cores;
    s.rt.cores = rt_cores;
    s.rt.wcets = rt_wcets;
    s.rt.periods = rt_periods;
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
    s.cert_scratch = s.delta_scratch + n_sec + 1;
    s.ledger = s.cert_scratch + n_sec + 1;
    s.probe_sink = s.ledger + total;
    s.topk_scratch = s.probe_sink + total;
    s.set_scratch = s.topk_scratch + width;
    s.rt.tags = s.set_scratch + width;
    s.rt.sums = s.rt.tags + memo;
    for (j = 0; j < memo; j++)
        s.rt.tags[j] = -1;
    s.calls = s.solves = s.seeded = s.certified = 0;
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
    counters[3] = s.certified;
    free(block);
    return result;
}

/* ---- HYDRA: max-period best-fit security allocation ------------------ */

/* Core c holds RT tasks rt_offsets[c]..rt_offsets[c+1]-1 (its priority
 * order); the n_sec security tasks are indexed in priority order.  Each
 * task probes every core in index order: the Eq. 1 fixed point of its
 * demand (wcet + blocking) below the core's tasks, limit T^max -- the
 * SecurityPacker probe.  Among the cores where it fits it takes the
 * minimum of (-load, response, core) (choose_best_fit_core), and then
 * occupies that core at T^max with its raw wcet.  A core's load is the
 * python float sum: 0.0, plus each RT task's wcet/period in order, plus
 * wcet/T^max per placement.  cores[j]/responses[j] receive task j's core
 * and response, and counters[0] the Eq. 1 fixed points run.  Returns
 * n_sec when every task is placed, the index of the first task that fits
 * on no core, or -1 when out of memory. */
int64_t hydra_allocate_security(int64_t num_cores,
                                const int64_t *rt_offsets,
                                const int64_t *rt_wcets,
                                const int64_t *rt_periods, int64_t n_sec,
                                const int64_t *demands, const int64_t *wcets,
                                const int64_t *max_periods, int64_t *cores,
                                int64_t *responses, int64_t *counters)
{
    /* per core: its load, the start of its operand buffer (room for its
     * RT tasks and every security task) and its task count */
    double *loads;
    int64_t *base, *count, *buf_periods, *buf_wcets;
    int64_t width = rt_offsets[num_cores] + num_cores * n_sec;
    int64_t solves = 0, result = n_sec, c, i, j;
    void *block = malloc((size_t)num_cores * (sizeof(double)
                                              + 2 * sizeof(int64_t))
                         + (size_t)(2 * width) * sizeof(int64_t));

    if (!block)
        return -1;
    loads = (double *)block;
    base = (int64_t *)(loads + num_cores);
    count = base + num_cores;
    buf_periods = count + num_cores;
    buf_wcets = buf_periods + width;
    for (c = 0; c < num_cores; c++) {
        base[c] = rt_offsets[c] + c * n_sec;
        count[c] = rt_offsets[c + 1] - rt_offsets[c];
        loads[c] = 0.0;
        for (i = 0; i < count[c]; i++) {
            int64_t k = rt_offsets[c] + i;
            buf_periods[base[c] + i] = rt_periods[k];
            buf_wcets[base[c] + i] = rt_wcets[k];
            loads[c] += (double)rt_wcets[k] / (double)rt_periods[k];
        }
    }

    for (j = 0; j < n_sec; j++) {
        int64_t chosen = -1, best = 0;
        cores[j] = -1;
        responses[j] = -1;
        if (demands[j] <= max_periods[j]) {
            for (c = 0; c < num_cores; c++) {
                int64_t response;
                solves++;
                response = hydra_eq1_solve(demands[j], max_periods[j],
                                           count[c], buf_periods + base[c],
                                           buf_wcets + base[c]);
                if (response < 0)
                    continue;
                if (chosen < 0 || loads[c] > loads[chosen]
                    || (loads[c] == loads[chosen] && response < best)) {
                    chosen = c;
                    best = response;
                }
            }
        }
        if (chosen < 0) {
            result = j;
            break;
        }
        cores[j] = chosen;
        responses[j] = best;
        buf_periods[base[chosen] + count[chosen]] = max_periods[j];
        buf_wcets[base[chosen] + count[chosen]] = wcets[j];
        count[chosen]++;
        loads[chosen] += (double)wcets[j] / (double)max_periods[j];
    }
    counters[0] = solves;
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
            num_cores - 1, (hydra_rt *)0,
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
