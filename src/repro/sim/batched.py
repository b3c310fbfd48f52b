"""The trial-batched simulation backend.

A Monte Carlo campaign simulates the *same design* hundreds of times,
varying only the release jitter and the attack injection points.  The
event-compressed engine (:mod:`repro.sim.fast`) already collapses each
trial to a few hundred scheduler rounds, but it still builds every trial's
full execution-slice trace and replays the attacks against it afterwards.
This module skips the trace: the design's envelope (task tables, core
orders, priority orders) is built once per batch, and each trial then runs
one scalar event loop over plain per-task state that folds the detection
replay into the loop itself -- in C on the compiled kernel tier, in
python elsewhere (see "The compiled loop" below).

Why per-task state suffices
---------------------------
Two structural invariants of the supported workloads make one slot per
task enough (no per-job records):

* **At most one live job per task.**  Security scans never overlap (the
  engines skip a release while the previous scan is active), and a second
  concurrent RT job implies a deadline miss -- the analysis guarantees
  none, and the engines treat one as a loud error.  The loop watches for
  the overlap and *falls back* for that trial (see below) instead of
  modelling it.
* **Unique priorities.**  :meth:`repro.model.taskset.TaskSet.create`
  assigns every task a distinct priority with every RT priority above
  every security priority, so the engines' ``(priority, release, job_id)``
  tie-break never reaches its second component across tasks and the loop
  can select by static task priority alone.

The envelope and the fallback
-----------------------------
The loop replicates the engines' semantics only under the default
platform model (``rm`` / ``none`` / ``zero``): fixed priorities, inert
resource claims, free context switches.  A whole-design condition (a
non-default platform, duplicate priorities, a missing core binding) falls
back for every trial of the batch; a per-trial condition (an attack on an
unmonitored task or beyond its monitor's coverage, an unknown or negative
jitter key, an RT release overlap, an RT deadline miss under
``fail_on_rt_deadline_miss``) falls back for that trial alone.  The
fallback is the event-compressed engine plus the slice replay, which also
reproduces the tick oracle's errors exactly (e.g. the
:class:`~repro.errors.SimulationError` on an RT deadline miss).

Detection without traces
------------------------
The per-trial engines emit execution slices and replay attacks against
them afterwards (:func:`repro.security.detection.detection_time_for_attack`).
The loop instead watches each monitor job's progress: a job detects attack
*a* at the tick its cumulative progress reaches ``ticks_to_scan(unit + 1)``,
provided the sweep over the compromised unit started no earlier than the
injection.  Under zero overheads progress advances exactly one tick per
tick of occupancy, so both thresholds cross at uniquely determined ticks
inside a round's ``[now, next_event)`` interval -- the same instants the
slice replay computes -- and because a task's jobs never overlap in time,
the first qualifying crossing is the minimum over jobs that the oracle
takes.

Why scalar and not NumPy
------------------------
This backend used to advance a whole batch in NumPy lockstep over
``[trial, task]`` arrays.  At the campaign's widths (8-trial chunks, a
handful of tasks) each round paid a few dozen ufunc calls on arrays of a
few elements, and the per-call overhead made the lockstep slower than the
event-compressed engine *with* its traces.  The scalar loop does the same
work with neither traces nor ufuncs.

The compiled loop
-----------------
The loop exists twice.  On the compiled kernel tier (the default
``auto`` tier wherever the cffi backend builds, see
:mod:`repro.rta.compiled`) the trials of one call run in C, in one
``hydra_simulate_trials`` call per design per trial chunk: the design's
task tables are marshalled once in :meth:`_TrialEngine.build`, each call
passes only the chunk's release offsets and attack thresholds, and each
trial comes back with a status, its three counters and one latency per
attack.  Python keeps the up-front checks (:meth:`_TrialEngine.prepare`)
and the fallback; a trial the C loop reports as leaving the envelope goes
to the fallback exactly as one the python loop rejects, in trial order.
Only operands the C loop provably handles in ``int64`` are dispatched:
positive periods, and a horizon, periods, wcets, release offsets, inject
times and scan thresholds all below :data:`~repro.rta.compiled.INT31_LIMIT`;
anything else runs the python loop (:meth:`_TrialEngine.run`), which is
also the only loop on hosts without the backend and under
``REPRO_DISABLE_COMPILED=1``.

The differential suite (``tests/sim/test_batched_engine.py``) pins outcome
equality against both per-trial engines across random designs, jitter,
attack seeds and forced-fallback platform models, on both loops.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.framework import SystemDesign
from repro.platform.models import DEFAULT_PLATFORM, PlatformModel
from repro.rta.compiled import (
    DEFAULT_KERNEL,
    INT31_LIMIT,
    CompiledKernel,
    resolve_kernel,
)
from repro.security.attacks import AttackScenario
from repro.security.monitors import SecurityMonitor
from repro.sim.engine import SimulationConfig
from repro.sim.fast import SIMULATOR_BACKENDS, EventCompressedSimulator
from repro.sim.schedulers import SchedulerPolicy

__all__ = [
    "BatchTrialInput",
    "BatchTrialResult",
    "BatchSimulationResult",
    "TrialBatchedSimulator",
    "simulate_trials_batched",
]


@dataclass(frozen=True)
class BatchTrialInput:
    """One trial's randomness: its attacks and its release offsets."""

    scenario: AttackScenario
    release_jitter: Mapping[str, int]


@dataclass(frozen=True)
class BatchTrialResult:
    """One trial's outcome numbers (the campaign's per-scheme quantities).

    ``latencies`` holds one entry per attack of the trial's scenario, in
    scenario order: ticks from injection to detection, ``None`` when the
    attack goes undetected within the horizon.  ``batched`` records
    whether the trace-free loop produced the numbers or the trial fell
    back to the event-compressed engine; ``compiled`` whether that loop
    ran in C.
    """

    latencies: Tuple[Optional[int], ...]
    context_switches: int
    migrations: int
    preemptions: int
    batched: bool
    compiled: bool = False


@dataclass(frozen=True)
class BatchSimulationResult:
    """All trials' results plus the batch/fallback split."""

    results: Tuple[BatchTrialResult, ...]

    @property
    def batched_trials(self) -> int:
        return sum(1 for result in self.results if result.batched)

    @property
    def compiled_trials(self) -> int:
        return sum(1 for result in self.results if result.compiled)

    @property
    def fallback_trials(self) -> int:
        return sum(1 for result in self.results if not result.batched)


class TrialBatchedSimulator(EventCompressedSimulator):
    """Registry face of the ``batch`` backend.

    ``.run()`` must return a full :class:`~repro.sim.trace.SimulationTrace`,
    which the trace-free loop never builds -- so the one-design/one-trial
    behaviour is simply inherited from the event-compressed engine
    (bit-identical to the tick oracle by the differential suite).  The
    batching itself lives in :func:`simulate_trials_batched`, which the
    campaign runner invokes with a whole chunk of trials per distinct
    design.
    """


# Register under the same mapping the spec/CLI validation consults; the
# package ``repro.sim`` imports this module, so resolving "batch" works
# everywhere the other backends do.
SIMULATOR_BACKENDS["batch"] = TrialBatchedSimulator


def simulate_trials_batched(
    design: SystemDesign,
    monitors: Sequence[SecurityMonitor],
    trials: Sequence[BatchTrialInput],
    horizon: int,
    platform: PlatformModel = DEFAULT_PLATFORM,
    fail_on_rt_deadline_miss: bool = True,
) -> BatchSimulationResult:
    """Simulate every trial of *trials* under *design*, trace-free.

    The design's envelope is built once.  On the compiled kernel tier the
    trials whose operands pass the guard run in one C call; every other
    in-envelope trial runs the python event loop.  Trials outside the
    envelope are evaluated by the event-compressed engine instead (same
    outcomes, same errors, raised in trial order); the result records
    which path each trial took.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    engine = _TrialEngine.build(
        design, monitors, platform, resolve_kernel(DEFAULT_KERNEL)
    )
    prepared: List[Optional[_PreparedTrial]] = [None] * len(trials)
    compiled: Dict[int, Optional[BatchTrialResult]] = {}
    if engine is not None:
        prepared = [engine.prepare(trial) for trial in trials]
        compiled = engine.run_compiled(
            prepared, horizon, fail_on_rt_deadline_miss
        )
    results = []
    for index, trial in enumerate(trials):
        if index in compiled:
            result = compiled[index]
        elif prepared[index] is not None:
            result = engine.run(
                prepared[index], horizon, fail_on_rt_deadline_miss
            )
        else:
            result = None
        if result is None:
            result = _run_fallback(
                design, monitors, trial, horizon, platform,
                fail_on_rt_deadline_miss,
            )
        results.append(result)
    return BatchSimulationResult(results=tuple(results))


def _run_fallback(
    design: SystemDesign,
    monitors: Sequence[SecurityMonitor],
    trial: BatchTrialInput,
    horizon: int,
    platform: PlatformModel,
    fail_on_rt_deadline_miss: bool,
) -> BatchTrialResult:
    """One trial through the event-compressed engine + slice replay."""
    # Imported lazily: repro.security.detection imports repro.sim.trace,
    # so a module-level import would cycle through the package __init__
    # when repro.security is imported before repro.sim.
    from repro.security.detection import evaluate_detection

    config = SimulationConfig(
        horizon=horizon,
        fail_on_rt_deadline_miss=fail_on_rt_deadline_miss,
        release_jitter=dict(trial.release_jitter),
        platform=platform,
    )
    trace = EventCompressedSimulator.from_design(design, config).run()
    detections = evaluate_detection(trace, monitors, trial.scenario)
    return BatchTrialResult(
        latencies=tuple(result.latency for result in detections),
        context_switches=trace.context_switches,
        migrations=trace.migrations,
        preemptions=trace.preemptions,
        batched=False,
    )


def _place_with_affinity(
    order: Sequence[int],
    active: List[bool],
    last_core: List[int],
    occupant: List[int],
) -> None:
    """Task-index twin of ``_BaseScheduler._place_with_affinity``.

    The idle cores of *occupant* (``-1``) are the free ones.  The first
    ``free`` active tasks of *order* (priority order) are selected; those
    whose last core is still free keep it, claimed in selection order; the
    rest fill the remaining free cores in ascending index order.
    """
    free = occupant.count(-1)
    if not free:
        return
    selected = []
    for k in order:
        if active[k]:
            selected.append(k)
            if len(selected) == free:
                break
    pending = []
    for k in selected:
        core = last_core[k]
        if core >= 0 and occupant[core] < 0:
            occupant[core] = k
        else:
            pending.append(k)
    for k in pending:
        occupant[occupant.index(-1)] = k


class _PreparedTrial(NamedTuple):
    """One trial's loop inputs, indexed by task and by attack (scenario
    order): the first release of every task and, per attack, its monitored
    task, scan-start and detect thresholds and injection tick."""

    releases: List[int]
    attack_tasks: List[int]
    start_req: List[int]
    detect_req: List[int]
    inject: List[int]

    def fits_compiled(self) -> bool:
        """The C loop's per-trial guard: every operand below INT31_LIMIT
        (start thresholds never exceed detect thresholds)."""
        return (
            max(self.releases, default=0) < INT31_LIMIT
            and max(self.detect_req, default=0) < INT31_LIMIT
            and max(self.inject, default=0) < INT31_LIMIT
        )


class _TrialEngine:
    """The scalar trace-free event loop for one design.

    ``build`` returns ``None`` when the design/platform combination is
    outside the envelope (the caller then falls back wholesale);
    ``prepare`` returns ``None`` for a trial whose attacks or jitter the
    loop cannot represent; ``run`` (the python loop, one trial) and
    ``run_compiled`` (the C loop, a chunk of trials in one call) return
    ``None`` for a trial that leaves the envelope while simulating (a
    release overlap, an RT deadline miss).  ``run`` is the only loop on
    hosts without the compiled backend and the reference the C loop is
    tested against.
    """

    @classmethod
    def build(
        cls,
        design: SystemDesign,
        monitors: Sequence[SecurityMonitor],
        platform: PlatformModel,
        kernel: Optional[CompiledKernel] = None,
    ) -> Optional["_TrialEngine"]:
        if not platform.is_default:
            return None
        taskset = design.taskset
        policy = SchedulerPolicy(design.policy.value)
        rt_alloc = (
            design.rt_allocation.as_dict()
            if design.rt_allocation is not None
            else {}
        )
        sec_alloc = (
            design.security_allocation.as_dict()
            if design.security_allocation is not None
            else {}
        )

        num_cores = design.platform.num_cores
        num_rt = len(taskset.rt_tasks)
        tasks = list(taskset.rt_tasks) + list(taskset.security_tasks)
        priorities = [task.priority for task in tasks]
        if len(set(priorities)) != len(priorities):
            # The loop selects by static task priority; a duplicate would
            # need the engines' full tie-break.
            return None
        priority_order = sorted(range(len(tasks)), key=priorities.__getitem__)
        security_order = [k for k in priority_order if k >= num_rt]

        # Each core's bound tasks in priority order: RT tasks unless the
        # policy is global, security tasks only when it is partitioned.
        core_orders: List[List[int]] = [[] for _ in range(num_cores)]
        for k in priority_order:
            if k < num_rt and policy is not SchedulerPolicy.GLOBAL:
                core = rt_alloc.get(tasks[k].name)
            elif k >= num_rt and policy is SchedulerPolicy.PARTITIONED:
                core = sec_alloc.get(tasks[k].name)
            else:
                continue
            if core is None or not 0 <= core < num_cores:
                return None  # a missing or invalid binding: the engines raise
            core_orders[core].append(k)

        engine = cls()
        engine._num_cores = num_cores
        engine._num_rt = num_rt
        engine._index = {task.name: k for k, task in enumerate(tasks)}
        engine._monitors = {
            monitor.task_name: monitor for monitor in monitors
        }
        engine._wcet = [task.wcet for task in tasks]
        engine._period = [
            task.period if k < num_rt else task.effective_period
            for k, task in enumerate(tasks)
        ]
        engine._deadline = [
            task.deadline if k < num_rt else -1 for k, task in enumerate(tasks)
        ]
        engine._core_orders = core_orders
        # The tasks placed on the cores left idle, by affinity.
        engine._affinity_order = {
            SchedulerPolicy.PARTITIONED: None,
            SchedulerPolicy.SEMI_PARTITIONED: security_order,
            SchedulerPolicy.GLOBAL: priority_order,
        }[policy]
        # The C loop's design-level guard: positive periods, operands
        # below INT31_LIMIT (deadlines never exceed periods).  Its task
        # tables are marshalled here, once per design.
        engine._kernel = engine._envelope = None
        if kernel is not None and all(
            0 < period < INT31_LIMIT and wcet < INT31_LIMIT
            for wcet, period in zip(engine._wcet, engine._period)
        ):
            engine._kernel = kernel
            core_offsets = [0]
            for order in core_orders:
                core_offsets.append(core_offsets[-1] + len(order))
            engine._envelope = (
                num_rt,
                array("q", engine._wcet),
                array("q", engine._period),
                array("q", engine._deadline),
                array("q", core_offsets),
                array("q", [k for order in core_orders for k in order]),
                (
                    None
                    if engine._affinity_order is None
                    else array("q", engine._affinity_order)
                ),
            )
        return engine

    def prepare(self, trial: BatchTrialInput) -> Optional[_PreparedTrial]:
        """Index one trial's inputs; ``None`` hands it to the fallback."""
        index = self._index

        # Release offsets; unknown jitter keys are a configuration error
        # the engines raise, so such a trial is not representable here.
        releases = [0] * len(self._wcet)
        for name, offset in trial.release_jitter.items():
            k = index.get(name)
            if k is None or offset < 0:
                return None
            releases[k] = offset

        # Per-attack scan thresholds and the monitored task.
        attack_tasks: List[int] = []
        start_req: List[int] = []
        detect_req: List[int] = []
        inject: List[int] = []
        for attack in trial.scenario:
            monitor = self._monitors.get(attack.monitor_task)
            k = index.get(attack.monitor_task)
            if (
                monitor is None
                or k is None
                or attack.compromised_unit >= monitor.coverage_units
            ):
                return None
            attack_tasks.append(k)
            start_req.append(monitor.ticks_to_scan(attack.compromised_unit))
            detect_req.append(monitor.ticks_to_scan(attack.compromised_unit + 1))
            inject.append(attack.inject_time)
        return _PreparedTrial(releases, attack_tasks, start_req, detect_req, inject)

    def run_compiled(
        self,
        prepared: Sequence[Optional[_PreparedTrial]],
        horizon: int,
        fail_on_rt_deadline_miss: bool,
    ) -> Dict[int, Optional[BatchTrialResult]]:
        """Simulate every guarded trial of *prepared* in one C call.

        Returns the dispatched trials by position: their result, or
        ``None`` for one that left the envelope.  Empty when the engine
        has no compiled kernel or the horizon fails the guard.
        """
        if self._kernel is None or horizon >= INT31_LIMIT:
            return {}
        positions = [
            index
            for index, trial in enumerate(prepared)
            if trial is not None and trial.fits_compiled()
        ]
        if not positions:
            return {}
        releases: List[int] = []
        attack_offsets = [0]
        attack_tasks: List[int] = []
        start_req: List[int] = []
        detect_req: List[int] = []
        inject: List[int] = []
        for index in positions:
            trial = prepared[index]
            releases += trial.releases
            attack_tasks += trial.attack_tasks
            start_req += trial.start_req
            detect_req += trial.detect_req
            inject += trial.inject
            attack_offsets.append(len(inject))
        statuses, counters, latencies = self._kernel.simulate_trials(
            self._envelope,
            horizon,
            fail_on_rt_deadline_miss,
            releases,
            attack_offsets,
            attack_tasks,
            start_req,
            detect_req,
            inject,
        )
        results: Dict[int, Optional[BatchTrialResult]] = {}
        for slot, index in enumerate(positions):
            if not statuses[slot]:
                results[index] = None
                continue
            results[index] = BatchTrialResult(
                latencies=tuple(
                    None if latency < 0 else latency
                    for latency in latencies[
                        attack_offsets[slot]:attack_offsets[slot + 1]
                    ]
                ),
                context_switches=counters[3 * slot],
                migrations=counters[3 * slot + 1],
                preemptions=counters[3 * slot + 2],
                batched=True,
                compiled=True,
            )
        return results

    def run(
        self,
        prepared: _PreparedTrial,
        horizon: int,
        fail_on_rt_deadline_miss: bool,
    ) -> Optional[BatchTrialResult]:
        """The python event loop over one prepared trial; ``None`` hands
        it to the fallback."""
        num_tasks = len(self._wcet)
        start_req = prepared.start_req
        detect_req = prepared.detect_req
        inject = prepared.inject
        next_release = list(prepared.releases)
        attacks_of_task: List[List[int]] = [[] for _ in range(num_tasks)]
        for a, k in enumerate(prepared.attack_tasks):
            attacks_of_task[k].append(a)

        num_cores = self._num_cores
        num_rt = self._num_rt
        wcet = self._wcet
        period = self._period
        deadline = self._deadline
        core_orders = self._core_orders
        affinity_order = self._affinity_order

        active = [False] * num_tasks
        job_index = [-1] * num_tasks
        release_time = [0] * num_tasks
        # Work done by each task's live job; with zero overheads its
        # remaining occupancy is exactly wcet - progress.
        progress = [0] * num_tasks
        last_core = [-1] * num_tasks
        scan_start = [-1] * len(inject)
        detection = [-1] * len(inject)
        previous_task = [-1] * num_cores
        previous_job = [-1] * num_cores
        context_switches = migrations = preemptions = 0

        now = 0
        while True:
            # -- releases due at `now` ----------------------------------------
            for k in range(num_tasks):
                if next_release[k] > now:
                    continue
                next_release[k] += period[k]
                if active[k]:
                    if k < num_rt:
                        # A second concurrent RT job is beyond the per-task
                        # state model -- hand the trial to the fallback
                        # engine (which reproduces the oracle, miss error
                        # included).
                        return None
                    # Scans never overlap: an active monitor skips the
                    # boundary (no job, no index bump), like the engines.
                    continue
                active[k] = True
                job_index[k] += 1
                release_time[k] = now
                progress[k] = 0
                last_core[k] = -1

            # -- scheduler round ----------------------------------------------
            occupant = [-1] * num_cores
            for core, order in enumerate(core_orders):
                for k in order:
                    if active[k]:
                        occupant[core] = k
                        break
            if affinity_order is not None:
                _place_with_affinity(
                    affinity_order, active, last_core, occupant
                )

            # -- switches, preemptions, migrations, first runs ----------------
            for core in range(num_cores):
                k = occupant[core]
                job = job_index[k] if k >= 0 else -1
                before = previous_task[core]
                if k != before or job != previous_job[core]:
                    context_switches += 1
                    if (
                        before >= 0
                        and active[before]
                        and job_index[before] == previous_job[core]
                        and before not in occupant
                    ):
                        preemptions += 1
                previous_task[core] = k
                previous_job[core] = job
                if k < 0:
                    continue
                if last_core[k] < 0:
                    # The job's first run: a zero start threshold means
                    # the sweep over the unit begins now.
                    for a in attacks_of_task[k]:
                        if start_req[a] == 0:
                            scan_start[a] = now
                elif last_core[k] != core:
                    migrations += 1
                last_core[k] = core

            # -- jump to the next event ---------------------------------------
            next_time = min(next_release)
            if next_time > horizon:
                next_time = horizon
            for k in occupant:
                if k >= 0 and now + wcet[k] - progress[k] < next_time:
                    next_time = now + wcet[k] - progress[k]
            delta = next_time - now

            for k in occupant:
                if k < 0:
                    continue
                done = progress[k]
                reached = done + delta
                # Threshold crossings inside [now, next_time): progress
                # advances one tick per occupied tick, so a threshold X
                # with done < X <= reached is hit exactly at
                # now + (X - done).  A job reaches its scan start (or first
                # runs, for a zero threshold) no later than its detect
                # threshold, so the scan start read here is this job's.
                for a in attacks_of_task[k]:
                    if done < start_req[a] <= reached:
                        scan_start[a] = now + start_req[a] - done
                    if detection[a] < 0 and done < detect_req[a] <= reached:
                        candidate = now + detect_req[a] - done
                        # inject >= 0, so an unset scan start never
                        # qualifies.
                        if scan_start[a] >= inject[a] and candidate > inject[a]:
                            detection[a] = candidate
                progress[k] = reached
                if reached == wcet[k]:
                    active[k] = False
                    if fail_on_rt_deadline_miss and k < num_rt:
                        absolute = release_time[k] + deadline[k]
                        if next_time > absolute and absolute <= horizon:
                            return None

            now = next_time
            if now >= horizon:
                break

        if fail_on_rt_deadline_miss:
            for k in range(num_rt):
                if active[k] and release_time[k] + deadline[k] <= horizon:
                    return None
        return BatchTrialResult(
            latencies=tuple(
                detection[a] - inject[a] if detection[a] >= 0 else None
                for a in range(len(inject))
            ),
            context_switches=context_switches,
            migrations=migrations,
            preemptions=preemptions,
            batched=True,
        )
