"""The event-compressed simulation backend.

:class:`EventCompressedSimulator` produces traces *bit-identical* to the
tick engine's (:class:`~repro.sim.engine.Simulator`, which stays frozen as
the slow oracle) while advancing time between *scheduling events* instead
of tick by tick.  The key observation: under every supported policy the
core assignment is a pure function of the ready-job set and each job's
last-used core, and both only change at

* job releases (periodic boundaries, known in advance), and
* job completions (the running jobs' remaining work, known once the
  assignment is fixed).

Between two consecutive events the assignment is a fixpoint -- each placed
job's affinity core is its own core, so re-running the scheduler returns
the same placement -- which means every per-tick quantity the tick engine
records (context switches, preemptions, migrations, execution slices,
completion times) changes only *at* events and can be accounted for in one
jump.  A 45 000-tick rover window collapses from 45 000 scheduler rounds to
a few hundred.

The differential test suite (``tests/sim/test_fast_engine.py``) pins
equality against the tick engine across randomized designs, schemes from
the registry, release jitter and attack scenarios; the benchmark
(``benchmarks/test_bench_sim_fast.py``) gates the speedup at >= 5x on the
rover horizon.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.framework import SystemDesign
from repro.errors import ConfigurationError
from repro.platform.models import DEFAULT_PLATFORM, PlatformModel
from repro.sim.engine import SimulationConfig, Simulator, _JobRuntime
from repro.sim.trace import SimulationTrace

__all__ = [
    "EventCompressedSimulator",
    "simulate_design_fast",
    "SIMULATOR_BACKENDS",
    "resolve_backend",
]


class EventCompressedSimulator(Simulator):
    """Event-compressed drop-in replacement for the tick engine.

    Construction, validation, release bookkeeping and the RT deadline check
    are inherited from :class:`~repro.sim.engine.Simulator`; only the main
    loop differs.  ``run()`` returns a :class:`SimulationTrace` equal (same
    slices in the same order, same job records, same counters) to the tick
    engine's for the same inputs.
    """

    def run(self) -> SimulationTrace:
        config = self._config
        horizon = config.horizon
        num_cores = self._num_cores
        scheduler = self._scheduler
        tasks = self._build_task_runtimes()
        jobs: Dict[str, _JobRuntime] = {}
        trace = SimulationTrace(horizon=horizon, num_cores=num_cores)

        runtime = self._runtime
        runtime.reset()
        locking = runtime.locking
        charge_overheads = runtime.has_overheads

        open_slices: List[Optional[Tuple[str, int, int]]] = [None] * num_cores
        previous: List[Optional[str]] = [None] * num_cores

        now = 0
        while now < horizon:
            # -- event processing at `now` --------------------------------------
            # Completions that fall exactly on `now` were applied while
            # advancing to it (below), before any release at `now` -- the
            # same order the tick engine produces, where a job finishing
            # during tick `now - 1` frees its monitor before the release
            # scan of tick `now`.  Lock releases were likewise applied while
            # advancing, so this round's `begin_round` sees them freed.
            self._release_jobs(now, tasks, jobs, trace)
            ready = self._ready_jobs(jobs)
            if locking:
                runtime.begin_round(ready)
            assignment = scheduler.assign(ready)
            running_now: List[Optional[str]] = [
                assignment.get(core) for core in range(num_cores)
            ]
            running_set = {job_id for job_id in running_now if job_id is not None}

            # Context switches and preemptions: the tick engine compares
            # consecutive ticks, but occupants only change at events, so
            # comparing the old interval's occupants with the new ones
            # yields identical totals.
            for core in range(num_cores):
                before = previous[core]
                if before != running_now[core]:
                    trace.context_switches += 1
                    if (
                        before is not None
                        and before in jobs  # unfinished (completions were dropped)
                        and before not in running_set
                    ):
                        trace.preemptions += 1

            # Migrations, affinity state, switch-in charges and slice
            # transitions.  Overhead debt is charged exactly where the tick
            # engine charges it: when a core's occupant changed.
            for core in range(num_cores):
                job_id = running_now[core]
                if job_id is not None:
                    job = jobs[job_id]
                    migrated = job.last_core is not None and job.last_core != core
                    if migrated:
                        trace.migrations += 1
                    if charge_overheads and previous[core] != job_id:
                        cost = runtime.switch_in_cost(migrated)
                        if cost:
                            job.remaining += cost
                            job.debt += cost
                    job.last_core = core
                current = open_slices[core]
                if current is not None and current[0] != job_id:
                    self._emit_slice(core, current, now, trace)
                    current = None
                if job_id is not None and current is None:
                    current = (job_id, now, jobs[job_id].record.executed)
                open_slices[core] = current

            previous = running_now

            # -- jump to the next event ------------------------------------------
            # Events: releases, completions of the running jobs, and -- under
            # a locking protocol -- the next claim-section boundary any
            # running job will cross (acquisitions and releases change the
            # assignment function, so the interval must be cut there; the
            # assignment is a fixpoint strictly between boundaries).
            next_time = horizon
            for task in tasks.values():
                if task.next_release < next_time:
                    next_time = task.next_release
            for job_id in running_set:
                finish = now + jobs[job_id].remaining
                if finish < next_time:
                    next_time = finish
            if locking:
                for job_id in running_set:
                    job = jobs[job_id]
                    boundary = runtime.next_boundary_delta(
                        job.record.task_name, job.progress, job.debt
                    )
                    if boundary is not None and now + boundary < next_time:
                        next_time = now + boundary

            delta = next_time - now
            for job_id in running_set:
                job = jobs[job_id]
                if job.debt:
                    burn = job.debt if job.debt < delta else delta
                    job.debt -= burn
                    work = delta - burn
                else:
                    work = delta
                if work:
                    job.progress += work
                    if locking:
                        runtime.advance(job_id, job.record.task_name, job.progress)
                job.remaining -= delta
                job.record.executed += delta
                if job.remaining == 0:
                    job.record.completion_time = next_time
                    tasks[job.record.task_name].active_job = None
                    del jobs[job_id]
            now = next_time

        self._close_slices(horizon, open_slices, trace)
        self._check_rt_deadlines(trace)
        return trace


#: Selectable simulation backends: the frozen tick-accurate oracle and the
#: event-compressed fast path (:mod:`repro.sim.batched` adds ``"batch"``).
SIMULATOR_BACKENDS: Mapping[str, type] = {
    "tick": Simulator,
    "fast": EventCompressedSimulator,
}


def resolve_backend(name: str) -> type:
    """Map a backend name (``"tick"`` / ``"fast"`` / ``"batch"``) to its
    simulator class."""
    backend = SIMULATOR_BACKENDS.get(name)
    if backend is None:
        raise ConfigurationError(
            f"unknown simulation backend {name!r}; available: "
            f"{', '.join(SIMULATOR_BACKENDS)}"
        )
    return backend


def simulate_design_fast(
    design: SystemDesign,
    horizon: int,
    fail_on_rt_deadline_miss: bool = True,
    release_jitter: Optional[Mapping[str, int]] = None,
    platform: Optional[PlatformModel] = None,
) -> SimulationTrace:
    """Event-compressed twin of :func:`repro.sim.engine.simulate_design`."""
    config = SimulationConfig(
        horizon=horizon,
        fail_on_rt_deadline_miss=fail_on_rt_deadline_miss,
        release_jitter=dict(release_jitter or {}),
        platform=platform if platform is not None else DEFAULT_PLATFORM,
    )
    return EventCompressedSimulator.from_design(design, config).run()
