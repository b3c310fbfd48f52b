"""Optional compiled backend for the integer fixed-point kernels (and the
campaign's trial loop).

The PR 5 profile of the synthetic sweeps is dominated by the *scalar*
integer fixed points that no shortcut decides: the Eq. 1 demand
iteration and the Eq. 6-8 migrating-security-task busy
window.  NumPy loses to memoised scalar Python at the paper's tick scales
(measured in PR 5), so the next speed tier is compilation.  This package
provides it as a cffi API-mode extension compiled with the system C
compiler -- see DESIGN.md ("the compiled kernel layer") for why cffi was
chosen over Numba/Cython/mypyc in this environment.

The backend is strictly optional and strictly behind the
:class:`~repro.rta.context.RtaContext` seam:

* ``kernel="auto"`` (:data:`DEFAULT_KERNEL`, the default everywhere) uses
  the backend when it builds and silently runs the pure-python kernels
  when it does not; without a C compiler the build is tried once per
  process;
* ``kernel="python"`` never imports this package's build machinery --
  the reference tier, also forced for every default by
  ``REPRO_DISABLE_COMPILED=1``;
* ``kernel="compiled"`` requests the backend and, when it cannot be
  built (no cffi, no C compiler, ``REPRO_DISABLE_COMPILED=1``), warns
  **once per process** and falls back to the pure-python kernels.

Dispatch is guarded: operands must fit the C kernels' integer-width
preconditions (:data:`INT31_LIMIT`, ``wcet <= period`` -- see
:func:`operands_fit` -- and :data:`MAX_COMPILED_SETS`), otherwise the work
stays in Python.  Five analysis phases dispatch once per task set:

* RT partitioning (first-, best- or worst-fit decreasing with the exact
  Eq. 1 admission), from
  :func:`~repro.partitioning.heuristics.partition_rt_tasks` (the sweep's
  generation-time partition included); it also returns every RT task's
  final Eq. 1 response, which the Eq. 1 check
  (:func:`~repro.rta.partitioned.partitioned_rt_check`) reads instead of
  solving the partition again;
* HYDRA's max-period best-fit security allocation (HYDRA and HYDRA-TMax),
  from :meth:`~repro.baselines.hydra.Hydra.allocate_security`;
* HYDRA-C period selection (Algorithms 1-2 with every Eq. 6-8 solve
  inside, the per-window RT workload memo and incumbent certification),
  from :meth:`~repro.core.period_selection.PeriodSelector.select`;
* HYDRA's per-core period assignment (CORE_AWARE and TMAX, shared by
  HYDRA, HYDRA-TMax and HYDRA-RF; each Eq. 1 solve warm-started from the
  task's response in the last feasible probe), from
  :meth:`~repro.baselines.hydra.Hydra._assign_periods`;
* GLOBAL-TMax's priority-ordered global RTA, from
  :meth:`~repro.rta.global_fp.GlobalRtaEngine.taskset_schedulable`.

Eq. 1 still dispatches per solve from
:meth:`~repro.rta.core_state.CoreState._solve` for what stays in Python:
HYDRA-RF's random-fit allocation (its pick is interleaved with the
per-task hash), the GREEDY_MIN ablation, the Eq. 1 check of a partition
the compiled partitioner did not make, and guard fallbacks.  Every
one-call solve counts in ``KernelStats.compiled_solves`` (the global ones
in ``exact_solves`` too, as on the python tier), and the selector's
certified carry-in sets in ``dedup_certified_sets``.  The sixth one-call
entry point is not an analysis: :meth:`CompiledKernel.simulate_trials`
runs the campaign's
trace-free trial loop (:mod:`repro.sim.batched`) for a chunk of trials of
one design, dispatched from
:func:`~repro.sim.batched.simulate_trials_batched` on the default tier
(positive periods, every operand below :data:`INT31_LIMIT`) and counted
in ``CampaignStats.compiled_trials``.  Every result is byte-equal to the
pure path -- the differential suites in ``tests/rta/`` and
``tests/sim/test_batched_engine.py`` run both ways, and the frozen oracles
(:mod:`repro.schedulability`, :mod:`repro.batch.reference`, the tick
simulator) keep gating.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "KERNEL_CHOICES",
    "DEFAULT_KERNEL",
    "INT31_LIMIT",
    "UNSUPPORTED",
    "CONTRACT_VIOLATION",
    "KernelContractError",
    "CompiledKernel",
    "operands_fit",
    "normalise_kernel",
    "load_kernel",
    "kernel_available",
    "kernel_status",
    "resolve_kernel",
]

#: Valid values of the ``kernel=`` knob (context, service, config, CLI).
KERNEL_CHOICES = ("python", "compiled", "auto")

#: The tier every ``kernel=`` knob defaults to: compiled where the
#: backend builds, silently python where it does not.
DEFAULT_KERNEL = "auto"

#: Operands must stay below this for a solve to dispatch to C: every
#: C-side window iterate is then < 2**31 and the per-term/per-core
#: arithmetic provably fits ``int64`` (accumulations that could not are
#: carried in ``__int128``).
INT31_LIMIT = 1 << 31

#: Sentinel returned by the dispatch helpers when the operands fall
#: outside the compiled kernels' guarded range (caller stays in Python).
UNSUPPORTED = object()

#: A period selection with an exact carry-in enumeration larger than this
#: stays in Python; AUTO caps enumeration at 32 sets, so only an explicit
#: EXACT request on a large higher-priority set can exceed it.
MAX_COMPILED_SETS = 4096

#: ``HYDRA_CONTRACT_VIOLATION`` of the C source: a seeded Eq. 1 iteration
#: whose iterate fell below its predecessor, or (``hydra_select_periods``)
#: a lower-priority task failing the Line-8 refresh.
CONTRACT_VIOLATION = -2


class KernelContractError(RuntimeError):
    """A compiled kernel broke its own contract -- a bug in the kernel,
    never a property of the input.  Deliberately not a
    :class:`~repro.errors.ReproError`: the CLI and ``hydra-c serve``
    report it as an internal failure, not as a user error."""


def normalise_kernel(value) -> str:
    """Coerce a kernel name, with a one-line error on unknown values.

    The single validator behind ``RtaContext(kernel=...)``,
    ``BatchDesignService(kernel=...)``, ``ExperimentConfig.kernel`` and
    the CLI ``--kernel`` flag (mirrors :func:`normalise_search_mode`).
    """
    if isinstance(value, str) and value in KERNEL_CHOICES:
        return value
    raise ConfigurationError(
        f"unknown kernel {value!r}; expected one of {', '.join(KERNEL_CHOICES)}"
    )


class CompiledKernel:
    """Thin marshalling wrapper around the loaded C kernel module."""

    __slots__ = ("_ffi", "_lib")

    name = "compiled"

    def __init__(self, ffi, lib) -> None:
        self._ffi = ffi
        self._lib = lib

    def eq1(
        self,
        wcet: int,
        threshold: int,
        periods: Sequence[int],
        wcets: Sequence[int],
    ):
        """Eq. 1 fixed point; ``None`` = exceeds threshold, or UNSUPPORTED."""
        if wcet >= INT31_LIMIT or threshold >= INT31_LIMIT:
            return UNSUPPORTED
        for value in periods:
            if value >= INT31_LIMIT:
                return UNSUPPORTED
        for value in wcets:
            if value >= INT31_LIMIT:
                return UNSUPPORTED
        ffi = self._ffi
        result = self._lib.hydra_eq1_solve(
            wcet,
            threshold,
            len(periods),
            ffi.new("int64_t[]", list(periods)),
            ffi.new("int64_t[]", list(wcets)),
        )
        return None if result < 0 else int(result)

    def partition_rt(
        self,
        num_cores: int,
        wcets: Sequence[int],
        periods: Sequence[int],
        deadlines: Sequence[int],
        demands: Sequence[int],
        utilizations: Sequence[float],
        order: Sequence[int],
        strategy: int,
    ):
        """Fit-decreasing RT partition of one task set on ``num_cores`` cores.

        Operands are per RT task in ``(priority, name)`` order; ``demands``
        holds each task's ``wcet + blocking`` (the tasks above interfere
        with their raw ``wcets``), ``order`` the placement order as indices
        and ``strategy`` 0/1/2 for first/best/worst fit.  Returns
        ``(status, cores, responses, solves)`` where *status* is
        ``len(wcets)`` when every task fits, else the placement step of
        the first task that fits on no core, *cores* holds each task's
        core and *responses* its Eq. 1 response there (``-1`` = not
        placed; a placed task's response is its last solve, which saw its
        final higher-priority set) and *solves* counts the Eq. 1 fixed
        points run; or UNSUPPORTED when an operand reaches
        :data:`INT31_LIMIT`.
        """
        for values in (wcets, periods, deadlines, demands):
            for value in values:
                if value >= INT31_LIMIT:
                    return UNSUPPORTED
        ffi = self._ffi
        n = len(wcets)
        cores = ffi.new("int64_t[]", max(n, 1))
        responses = ffi.new("int64_t[]", max(n, 1))
        counters = ffi.new("int64_t[1]")
        status = self._lib.hydra_partition_rt(
            num_cores,
            n,
            ffi.new("int64_t[]", wcets),
            ffi.new("int64_t[]", periods),
            ffi.new("int64_t[]", deadlines),
            ffi.new("int64_t[]", demands),
            ffi.new("double[]", utilizations),
            ffi.new("int64_t[]", order),
            strategy,
            cores,
            responses,
            counters,
        )
        if status < 0:
            raise MemoryError("compiled RT partitioning: out of memory")
        return status, ffi.unpack(cores, n), ffi.unpack(responses, n), counters[0]

    def allocate_security(
        self,
        rt_offsets: Sequence[int],
        rt_wcets: Sequence[int],
        rt_periods: Sequence[int],
        demands: Sequence[int],
        wcets: Sequence[int],
        max_periods: Sequence[int],
    ):
        """HYDRA's max-period best-fit security allocation of one task set.

        Core ``c`` holds the RT tasks ``rt_offsets[c]:rt_offsets[c + 1]``
        of ``rt_wcets``/``rt_periods`` in its priority order; the
        security operands are per task in priority order, ``demands``
        holding each task's ``wcet + blocking``.  Returns ``(status,
        cores, responses, solves)`` where *status* is ``len(demands)``
        when every task is placed, else the index of the first task that
        fits on no core, *cores*/*responses* hold the placed tasks' cores
        and Eq. 1 responses (``status`` entries) and *solves* counts the
        Eq. 1 fixed points run; or UNSUPPORTED when an operand reaches
        :data:`INT31_LIMIT`.
        """
        for values in (rt_wcets, rt_periods, demands, wcets, max_periods):
            for value in values:
                if value >= INT31_LIMIT:
                    return UNSUPPORTED
        ffi = self._ffi
        n = len(demands)
        cores = ffi.new("int64_t[]", max(n, 1))
        responses = ffi.new("int64_t[]", max(n, 1))
        counters = ffi.new("int64_t[1]")
        status = self._lib.hydra_allocate_security(
            len(rt_offsets) - 1,
            ffi.new("int64_t[]", rt_offsets),
            ffi.new("int64_t[]", rt_wcets),
            ffi.new("int64_t[]", rt_periods),
            n,
            ffi.new("int64_t[]", demands),
            ffi.new("int64_t[]", wcets),
            ffi.new("int64_t[]", max_periods),
            cores,
            responses,
            counters,
        )
        if status < 0:
            raise MemoryError("compiled HYDRA security allocation: out of memory")
        return (
            status,
            ffi.unpack(cores, status),
            ffi.unpack(responses, status),
            counters[0],
        )

    def select_periods(
        self,
        num_cores: int,
        rt_arrays,
        demands: Sequence[int],
        wcets: Sequence[int],
        max_periods: Sequence[int],
        set_counts: Sequence[int],
        linear: bool,
    ):
        """Algorithms 1-2 for one task set's security tasks (priority order).

        ``rt_arrays`` is the partition's ``(core positions, wcets, periods,
        core count)`` (:meth:`RtWorkloadCache.partition_arrays`, already
        range-checked by ``compiled_fit``); ``demands`` holds each task's
        ``wcet + blocking`` and ``set_counts`` its number of exact
        carry-in sets (``0`` = greedy bound).  Returns ``(status, periods,
        responses, (analysis_calls, solves, seeded_solves,
        certified_sets))`` where *status* is ``len(demands)`` when
        schedulable, else the index of the first task unschedulable at
        ``T^max`` (``responses`` valid before it).  Raises
        :class:`KernelContractError`, naming the core count, the demands
        and the ``T^max`` values, when a lower-priority task fails the
        Line-8 refresh after a feasible period was selected.
        """
        ffi = self._ffi
        n_sec = len(demands)
        core_ids, rt_wcets, rt_periods, n_partition_cores = rt_arrays
        if len(rt_wcets):
            rt = [
                ffi.from_buffer("int64_t[]", array)
                for array in (core_ids, rt_wcets, rt_periods)
            ]
        else:
            rt = [ffi.NULL] * 3
        periods = ffi.new("int64_t[]", max(n_sec, 1))
        responses = ffi.new("int64_t[]", max(n_sec, 1))
        counters = ffi.new("int64_t[4]")
        status = self._lib.hydra_select_periods(
            num_cores,
            len(rt_wcets),
            *rt,
            n_partition_cores,
            n_sec,
            ffi.new("int64_t[]", list(demands)),
            ffi.new("int64_t[]", list(wcets)),
            ffi.new("int64_t[]", list(max_periods)),
            ffi.new("int64_t[]", list(set_counts)),
            1 if linear else 0,
            periods,
            responses,
            counters,
        )
        if status == CONTRACT_VIOLATION:
            raise KernelContractError(
                "hydra_select_periods: a lower-priority task became "
                "unschedulable in the Line-8 refresh after a feasible period "
                f"was selected ({num_cores} cores; security demands "
                f"(wcet + B) {list(demands)}, T^max {list(max_periods)})"
            )
        if status == -1:
            raise MemoryError("compiled period selection: out of memory")
        return (
            status,
            ffi.unpack(periods, n_sec),
            ffi.unpack(responses, n_sec),
            tuple(ffi.unpack(counters, 4)),
        )

    def partitioned_periods(
        self,
        cores: Sequence[Tuple[Sequence[Tuple[int, int]], Sequence[Tuple[int, int]]]],
        core_aware: bool,
    ):
        """HYDRA's per-core period assignment for every core of a task set.

        ``cores`` holds one ``(rt, security)`` pair per core, each a
        priority-ordered sequence of ``(wcet, period)`` operands (security
        tasks at ``T^max``).  ``core_aware`` minimises periods
        (CORE_AWARE), otherwise they stay at ``T^max`` (TMAX).  Returns
        ``(periods, responses, solves)`` over the security tasks in core
        order (``None`` = response above ``T^max``), or UNSUPPORTED when an
        operand fails :func:`operands_fit`.  Raises
        :class:`KernelContractError`, naming the core and its operands,
        when a warm-started Eq. 1 iteration went backwards.
        """
        rt_offsets, rt_wcets, rt_periods = [0], [], []
        sec_offsets, sec_wcets, max_periods = [0], [], []
        for rt, security in cores:
            for wcet, period in rt:
                rt_wcets.append(wcet)
                rt_periods.append(period)
            for wcet, period in security:
                sec_wcets.append(wcet)
                max_periods.append(period)
            rt_offsets.append(len(rt_wcets))
            sec_offsets.append(len(sec_wcets))
        if not (
            operands_fit(rt_wcets, rt_periods)
            and operands_fit(sec_wcets, max_periods)
        ):
            return UNSUPPORTED
        ffi = self._ffi
        n_sec = len(sec_wcets)
        periods = ffi.new("int64_t[]", max(n_sec, 1))
        responses = ffi.new("int64_t[]", max(n_sec, 1))
        solves = self._lib.hydra_partitioned_periods(
            len(cores),
            ffi.new("int64_t[]", rt_offsets),
            ffi.new("int64_t[]", rt_wcets),
            ffi.new("int64_t[]", rt_periods),
            ffi.new("int64_t[]", sec_offsets),
            ffi.new("int64_t[]", sec_wcets),
            ffi.new("int64_t[]", max_periods),
            1 if core_aware else 0,
            periods,
            responses,
        )
        if solves == CONTRACT_VIOLATION:
            failed = ffi.unpack(responses, n_sec).index(CONTRACT_VIOLATION)
            core = next(
                index for index in range(len(cores))
                if failed < sec_offsets[index + 1]
            )
            rt, security = cores[core]
            raise KernelContractError(
                "hydra_partitioned_periods: an Eq. 1 iterate fell below its "
                f"predecessor on core {core} (security task "
                f"{failed - sec_offsets[core]}; RT (wcet, period) {list(rt)}, "
                f"security (wcet, T^max) {list(security)})"
            )
        if solves < 0:
            raise MemoryError("compiled HYDRA period assignment: out of memory")
        return (
            ffi.unpack(periods, n_sec),
            [None if r < 0 else r for r in ffi.unpack(responses, n_sec)],
            solves,
        )

    def global_rta(
        self,
        num_cores: int,
        wcets: Sequence[int],
        periods: Sequence[int],
        limits: Sequence[int],
    ):
        """Global fixed-priority RTA (greedy carry-in) of a whole task set.

        Operands are per task in priority order; ``limits`` are the
        deadline limits.  Returns ``(status, responses, solves)`` where
        *status* is the index of the first unschedulable task (``len(wcets)``
        when all are schedulable; ``responses`` valid before it), or
        UNSUPPORTED when an operand fails :func:`operands_fit` or a limit
        reaches :data:`INT31_LIMIT`.
        """
        if not operands_fit(wcets, periods) or any(
            limit >= INT31_LIMIT for limit in limits
        ):
            return UNSUPPORTED
        ffi = self._ffi
        n = len(wcets)
        responses = ffi.new("int64_t[]", max(n, 1))
        counters = ffi.new("int64_t[1]")
        status = self._lib.hydra_global_rta(
            num_cores,
            n,
            ffi.new("int64_t[]", list(wcets)),
            ffi.new("int64_t[]", list(periods)),
            ffi.new("int64_t[]", list(limits)),
            responses,
            counters,
        )
        if status < 0:
            raise MemoryError("compiled global RTA: out of memory")
        return status, ffi.unpack(responses, status), counters[0]

    def simulate_trials(
        self,
        envelope,
        horizon: int,
        fail_on_rt_deadline_miss: bool,
        releases: Sequence[int],
        attack_offsets: Sequence[int],
        attack_tasks: Sequence[int],
        start_reqs: Sequence[int],
        detect_reqs: Sequence[int],
        injects: Sequence[int],
    ):
        """The batch simulation backend's event loop over trials of one design.

        ``envelope`` is the design's ``(num_rt, wcets, periods, deadlines,
        core offsets, core tasks, affinity order)``, int64 buffers built
        once per design (tasks RT first; the affinity order ``None`` for
        the partitioned policy).  Per trial, ``releases`` holds every
        task's first release (flattened) and ``attack_offsets`` delimits
        its attacks, each with its monitored task, thresholds and inject
        time.  The caller guards every period positive and every operand
        below :data:`INT31_LIMIT`.  Returns ``(statuses, counters,
        latencies)``: per trial 1 when simulated, 0 when it left the
        envelope; per trial its context switches, migrations and
        preemptions; per attack its detection latency (``-1`` =
        undetected).
        """
        ffi = self._ffi
        (num_rt, wcets, periods, deadlines,
         core_offsets, core_tasks, affinity) = envelope
        num_trials = len(attack_offsets) - 1
        num_attacks = attack_offsets[-1]
        statuses = ffi.new("int64_t[]", num_trials)
        counters = ffi.new("int64_t[]", 3 * num_trials)
        latencies = ffi.new("int64_t[]", max(num_attacks, 1))
        code = self._lib.hydra_simulate_trials(
            len(wcets),
            num_rt,
            len(core_offsets) - 1,
            ffi.from_buffer("int64_t[]", wcets),
            ffi.from_buffer("int64_t[]", periods),
            ffi.from_buffer("int64_t[]", deadlines),
            ffi.from_buffer("int64_t[]", core_offsets),
            ffi.from_buffer("int64_t[]", core_tasks),
            -1 if affinity is None else len(affinity),
            (
                ffi.NULL
                if affinity is None
                else ffi.from_buffer("int64_t[]", affinity)
            ),
            horizon,
            1 if fail_on_rt_deadline_miss else 0,
            num_trials,
            ffi.new("int64_t[]", releases),
            ffi.new("int64_t[]", attack_offsets),
            ffi.new("int64_t[]", attack_tasks),
            ffi.new("int64_t[]", start_reqs),
            ffi.new("int64_t[]", detect_reqs),
            ffi.new("int64_t[]", injects),
            statuses,
            counters,
            latencies,
        )
        if code < 0:
            raise MemoryError("compiled trial simulation: out of memory")
        return (
            ffi.unpack(statuses, num_trials),
            ffi.unpack(counters, 3 * num_trials),
            ffi.unpack(latencies, num_attacks),
        )


def operands_fit(wcets: Sequence[int], periods: Sequence[int]) -> bool:
    """The one-call entry points' guard: ``wcet <= period < INT31_LIMIT``
    for every task (the check
    :meth:`~repro.rta.migrating.RtWorkloadCache.compiled_fit` makes for the
    period selector's RT operands)."""
    for wcet, period in zip(wcets, periods):
        if wcet > period or period >= INT31_LIMIT:
            return False
    return True


# -- availability ------------------------------------------------------------

_LOAD_TRIED = False
_LOADED: Optional[CompiledKernel] = None
_LOAD_ERROR: Optional[str] = None
_FALLBACK_WARNED = False


def load_kernel() -> Optional[CompiledKernel]:
    """Build/load the backend once per process; ``None`` when unavailable."""
    global _LOAD_TRIED, _LOADED, _LOAD_ERROR
    if not _LOAD_TRIED:
        _LOAD_TRIED = True
        disabled = os.environ.get("REPRO_DISABLE_COMPILED", "")
        if disabled and disabled != "0":
            _LOAD_ERROR = "disabled by REPRO_DISABLE_COMPILED"
        else:
            try:
                from repro.rta.compiled.build import build_and_load

                ffi, lib = build_and_load()
                _LOADED = CompiledKernel(ffi, lib)
            except Exception as exc:  # any toolchain failure => unavailable
                _LOAD_ERROR = f"{type(exc).__name__}: {exc}"
    return _LOADED


def kernel_available() -> bool:
    """Whether the compiled backend can be built/loaded on this machine."""
    return load_kernel() is not None


def kernel_status() -> Dict[str, Dict[str, object]]:
    """Per-backend importability report (the ``hydra-c kernels`` listing)."""
    kernel = load_kernel()
    if kernel is not None:
        from repro.rta.compiled.build import cache_dir, module_tag

        detail = f"cffi API-mode extension (cache: {cache_dir()}, tag {module_tag()})"
    else:
        detail = f"unavailable: {_LOAD_ERROR}"
    return {
        "python": {
            "available": True,
            "detail": "pure-python reference kernel tier (always available)",
        },
        "compiled": {"available": kernel is not None, "detail": detail},
    }


def resolve_kernel(name) -> Optional[CompiledKernel]:
    """Resolve a (normalised) kernel name to a backend, honouring fallback.

    ``"python"`` -> ``None`` without touching the build machinery;
    ``"auto"`` -> the backend when available, silently ``None`` otherwise;
    ``"compiled"`` -> the backend, or ``None`` after warning **once per
    process** -- an explicit request deserves a diagnostic, but not one
    per task-set context.
    """
    name = normalise_kernel(name)
    if name == "python":
        return None
    kernel = load_kernel()
    if kernel is None and name == "compiled":
        global _FALLBACK_WARNED
        if not _FALLBACK_WARNED:
            _FALLBACK_WARNED = True
            warnings.warn(
                "compiled RTA kernel requested but unavailable "
                f"({_LOAD_ERROR}); falling back to the pure-python kernel",
                RuntimeWarning,
                stacklevel=3,
            )
    return kernel


def _reset_for_tests() -> None:
    """Forget the load attempt and the fallback warning (test isolation)."""
    global _LOAD_TRIED, _LOADED, _LOAD_ERROR, _FALLBACK_WARNED
    _LOAD_TRIED = False
    _LOADED = None
    _LOAD_ERROR = None
    _FALLBACK_WARNED = False
