"""Differential suite for the trial-batched campaign backend.

The ``batch`` backend (the campaign default) builds a design's envelope
once per batch and runs each trial through one trace-free scalar event
loop with the detection replay folded in
(:func:`repro.sim.batched.simulate_trials_batched`).  Its contract is the
same as the fast engine's: every per-trial outcome -- detection latencies,
context switches, migrations, preemptions -- must be *bit-identical* to
running the tick oracle (and the event-compressed engine plus slice
replay) trial by trial.  This suite pins that equality over random
jitter/attack seeds x registry schemes x core counts x platform models,
including the edge cases of the loop (scan-start threshold 0, the last
scan unit, zero jitter, a horizon shorter than the longest period, a
monitor job cut off by the horizon, more free cores than tasks) and the
combinations that force the fallback path (non-default platforms, RT
release overlaps, RT deadline misses, unknown jitter keys).

The loop has two implementations: the C loop of the compiled kernel tier
(the default wherever the backend builds) and the python loop, the only
one on compiler-free hosts.  Every in-envelope comparison runs on both
(the ``loop_tier`` fixture; the compiled case skips without the backend),
including the operands the C loop's guard keeps on the python loop.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.batched as batched_module
from repro.core.framework import SchedulingPolicy, SystemDesign
from repro.errors import AllocationError, SimulationError, UnschedulableError
from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet
from repro.partitioning.allocation import Allocation
from repro.platform import DEFAULT_PLATFORM, PlatformModel
from repro.rover.case_study import RoverCaseStudy, rover_monitors
from repro.rta import compiled as compiled_pkg
from repro.rta.compiled import INT31_LIMIT
from repro.schemes import REGISTRY, SharedPhases
from repro.security.attacks import Attack, AttackScenario, generate_attacks
from repro.security.detection import evaluate_detection
from repro.security.monitors import SecurityMonitor
from repro.sim import (
    SIMULATOR_BACKENDS,
    BatchTrialInput,
    BatchTrialResult,
    EventCompressedSimulator,
    SimulationConfig,
    Simulator,
    TrialBatchedSimulator,
    resolve_backend,
    simulate_trials_batched,
)

FALLBACK_PLATFORMS = [
    PlatformModel.parse(scheduler, protocol, overheads)
    for scheduler, protocol, overheads in itertools.product(
        ["rm", "edf"], ["none", "pip"], ["zero", "const:2,3"]
    )
    if not (scheduler == "rm" and protocol == "none" and overheads == "zero")
]


@pytest.fixture(params=["compiled", "python"])
def loop_tier(request, monkeypatch):
    """Run on the C trial loop (the default tier; skipped where the
    backend is unavailable) and on the python loop, forced by
    ``REPRO_DISABLE_COMPILED=1``."""
    if request.param == "python":
        monkeypatch.setenv("REPRO_DISABLE_COMPILED", "1")
    compiled_pkg._reset_for_tests()
    if request.param == "compiled" and not compiled_pkg.kernel_available():
        compiled_pkg._reset_for_tests()
        pytest.skip("compiled backend unavailable")
    yield request.param
    compiled_pkg._reset_for_tests()


def _random_taskset(rng: np.random.Generator) -> TaskSet:
    """Small random task sets (the fast-engine suite's generator, sans
    claims: claims are inert under the default platform and the batch
    engine only batches there anyway)."""
    rt = []
    for index in range(int(rng.integers(1, 4))):
        period = int(rng.integers(20, 400))
        rt.append(
            RealTimeTask(
                name=f"rt{index}",
                wcet=int(rng.integers(1, max(2, period // 4))),
                period=period,
            )
        )
    sec = []
    for index in range(int(rng.integers(1, 4))):
        max_period = int(rng.integers(100, 1500))
        sec.append(
            SecurityTask(
                name=f"sec{index}",
                wcet=int(rng.integers(1, max(2, max_period // 6))),
                max_period=max_period,
                coverage_units=int(rng.integers(1, 24)),
            )
        )
    return TaskSet.create(rt, sec)


def _draw_trials(design, monitors, horizon, rng, count):
    """*count* random trials: an attack scenario plus release jitter."""
    trials = []
    for _ in range(count):
        scenario = generate_attacks(monitors, horizon, rng=rng)
        jitter = {
            task.name: int(rng.integers(0, 200))
            for task in design.taskset.all_tasks
            if rng.random() < 0.5
        }
        trials.append(BatchTrialInput(scenario=scenario, release_jitter=jitter))
    return trials


def _oracle_outcome(design, monitors, trial, horizon, platform, simulator_cls):
    """One trial through *simulator_cls* + detection replay, as the
    campaign runner's per-trial loop would compute it."""
    config = SimulationConfig(
        horizon=horizon,
        fail_on_rt_deadline_miss=False,
        release_jitter=dict(trial.release_jitter),
        platform=platform,
    )
    trace = simulator_cls.from_design(design, config).run()
    detections = evaluate_detection(trace, monitors, trial.scenario)
    return (
        tuple(result.latency for result in detections),
        trace.context_switches,
        trace.migrations,
        trace.preemptions,
    )


def _assert_matches_oracles(
    design, monitors, trials, horizon, platform, tier=None
):
    """The batched result of every trial equals both per-trial engines.

    With *tier* given, every batched trial must have run on that tier's
    loop (no operand here reaches the C loop's guard)."""
    batch = simulate_trials_batched(
        design,
        monitors,
        trials,
        horizon,
        platform=platform,
        fail_on_rt_deadline_miss=False,
    )
    assert len(batch.results) == len(trials)
    assert batch.batched_trials + batch.fallback_trials == len(trials)
    for trial, result in zip(trials, batch.results):
        got = (
            result.latencies,
            result.context_switches,
            result.migrations,
            result.preemptions,
        )
        for simulator_cls in (Simulator, EventCompressedSimulator):
            assert got == _oracle_outcome(
                design, monitors, trial, horizon, platform, simulator_cls
            )
    if tier is not None:
        assert batch.compiled_trials == (
            batch.batched_trials if tier == "compiled" else 0
        )
    return batch


def _design_and_monitors(scheme, num_cores, rng):
    """A random schedulable design for *scheme*, or ``None``."""
    taskset = _random_taskset(rng)
    try:
        design = REGISTRY.create(scheme, Platform(num_cores=num_cores)).design(
            taskset, SharedPhases()
        )
    except (UnschedulableError, AllocationError):
        return None
    if not design.schedulable:
        return None
    monitors = [
        SecurityMonitor.for_task(task) for task in design.taskset.security_tasks
    ]
    return design, monitors


class TestRegistration:
    def test_batch_backend_is_registered(self):
        assert SIMULATOR_BACKENDS["batch"] is TrialBatchedSimulator
        assert resolve_backend("batch") is TrialBatchedSimulator

    def test_single_run_face_is_the_fast_engine(self):
        """A width-one ``.run()`` inherits the event-compressed engine, so
        the registry face is bit-identical to ``fast`` by construction."""
        assert issubclass(TrialBatchedSimulator, EventCompressedSimulator)
        design = RoverCaseStudy().hydra_c_design()
        config = SimulationConfig(horizon=9_000)
        assert (
            TrialBatchedSimulator.from_design(design, config).run()
            == EventCompressedSimulator.from_design(design, config).run()
        )


class TestDifferential:
    """Hypothesis campaigns: batched == tick == fast, everywhere."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            # The tier fixture deliberately holds for every example.
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        scheme=st.sampled_from(REGISTRY.names()),
        design_seed=st.integers(min_value=0, max_value=2**32 - 1),
        trial_seed=st.integers(min_value=0, max_value=2**32 - 1),
        num_cores=st.integers(min_value=1, max_value=3),
        horizon=st.integers(min_value=100, max_value=3_000),
        num_trials=st.integers(min_value=1, max_value=4),
    )
    def test_default_platform_lockstep(
        self,
        loop_tier,
        scheme,
        design_seed,
        trial_seed,
        num_cores,
        horizon,
        num_trials,
    ):
        """Under the default platform (the lockstep envelope) every trial's
        outcome matches both per-trial engines bit for bit."""
        built = _design_and_monitors(
            scheme, num_cores, np.random.default_rng(design_seed)
        )
        if built is None:
            return
        design, monitors = built
        trials = _draw_trials(
            design, monitors, horizon, np.random.default_rng(trial_seed),
            num_trials,
        )
        _assert_matches_oracles(
            design, monitors, trials, horizon, DEFAULT_PLATFORM, loop_tier
        )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scheme=st.sampled_from(REGISTRY.names()),
        design_seed=st.integers(min_value=0, max_value=2**32 - 1),
        trial_seed=st.integers(min_value=0, max_value=2**32 - 1),
        horizon=st.integers(min_value=100, max_value=2_000),
        platform=st.sampled_from(FALLBACK_PLATFORMS),
    )
    def test_non_default_platform_falls_back_with_equal_outcomes(
        self, scheme, design_seed, trial_seed, horizon, platform
    ):
        """Outside the envelope the batch backend must hand every trial to
        the event-compressed engine -- same outcomes, fallback recorded."""
        built = _design_and_monitors(
            scheme, 2, np.random.default_rng(design_seed)
        )
        if built is None:
            return
        design, monitors = built
        trials = _draw_trials(
            design, monitors, horizon, np.random.default_rng(trial_seed), 3
        )
        batch = _assert_matches_oracles(
            design, monitors, trials, horizon, platform
        )
        assert batch.batched_trials == 0
        assert batch.fallback_trials == len(trials)
        assert all(not result.batched for result in batch.results)


def _longest_period(design):
    taskset = design.taskset
    return max(
        [task.period for task in taskset.rt_tasks]
        + [task.effective_period for task in taskset.security_tasks]
    )


def _mid_scan_horizon(design):
    """A horizon shorter than the design's longest period that cuts a
    monitor job off mid-scan under synchronous release, or ``None``."""
    limit = _longest_period(design)
    trace = EventCompressedSimulator.from_design(
        design,
        SimulationConfig(horizon=limit, fail_on_rt_deadline_miss=False),
    ).run()
    security = {task.name for task in design.taskset.security_tasks}
    for piece in trace.slices:
        if piece.task_name in security and piece.end - piece.start >= 2:
            return piece.start + (piece.end - piece.start) // 2
    return None


def _edge_case_trials(design, monitors, horizon, rng, count=8):
    """*count* trials over the loop's edge cases: trial 0 releases
    synchronously (zero jitter); each monitor's attack cycles through unit
    0 (scan-start threshold 0), its last unit and a random unit."""
    trials = []
    for index in range(count):
        attacks = []
        for offset, monitor in enumerate(monitors):
            units = (
                0,
                monitor.coverage_units - 1,
                int(rng.integers(0, monitor.coverage_units)),
            )
            attacks.append(
                Attack(
                    name=f"attack-{offset}",
                    monitor_task=monitor.task_name,
                    inject_time=int(rng.integers(0, max(1, horizon // 2))),
                    compromised_unit=units[(index + offset) % 3],
                )
            )
        jitter = (
            {}
            if index == 0
            else {
                task.name: int(rng.integers(0, 200))
                for task in design.taskset.all_tasks
                if rng.random() < 0.5
            }
        )
        trials.append(
            BatchTrialInput(
                scenario=AttackScenario(attacks), release_jitter=jitter
            )
        )
    return trials


class TestScalarLoopSweep:
    """Seeded sweep: every registry scheme on 1-4, 6 and 8 cores (more
    free cores than tasks for the affinity placement), 8 trials per batch,
    at a horizon that cuts a monitor job off mid-scan (shorter than the
    longest period) and at a longer one."""

    @pytest.mark.parametrize("num_cores", [1, 2, 3, 4, 6, 8])
    @pytest.mark.parametrize("scheme", REGISTRY.names())
    def test_equals_tick_and_fast(self, loop_tier, scheme, num_cores):
        rng = np.random.default_rng(
            [REGISTRY.names().index(scheme), num_cores]
        )
        for _ in range(50):
            built = _design_and_monitors(scheme, num_cores, rng)
            if built is None:
                continue
            short = _mid_scan_horizon(built[0])
            if short is not None:
                break
        else:
            pytest.fail(f"no usable {scheme} design on {num_cores} cores")
        design, monitors = built
        assert short < _longest_period(design)

        for horizon in (short, 2_000):
            trials = _edge_case_trials(design, monitors, horizon, rng)
            batch = _assert_matches_oracles(
                design, monitors, trials, horizon, DEFAULT_PLATFORM, loop_tier
            )
            assert batch.fallback_trials == 0
        # The zero-jitter trial of the short batch ends mid-scan: the
        # horizon cut a monitor job that had started but not finished.
        cut = EventCompressedSimulator.from_design(
            design, SimulationConfig(horizon=short)
        ).run()
        assert any(
            job.is_security and job.completion_time is None and job.executed
            for job in cut.jobs.values()
        )


@pytest.mark.usefixtures("loop_tier")
class TestEnvelope:
    """Deterministic pins of the batch/fallback split and edge cases, on
    both loops."""

    def _rover(self):
        design = RoverCaseStudy().hydra_c_design()
        return design, rover_monitors()

    def test_rover_trials_are_batched(self, loop_tier):
        design, monitors = self._rover()
        rng = np.random.default_rng(2020)
        trials = _draw_trials(design, monitors, 9_000, rng, 6)
        batch = _assert_matches_oracles(
            design, monitors, trials, 9_000, DEFAULT_PLATFORM, loop_tier
        )
        assert batch.batched_trials == len(trials)
        assert batch.fallback_trials == 0
        assert all(result.batched for result in batch.results)

    def test_int31_jitter_trial_stays_on_the_python_loop(self, loop_tier):
        """A release offset at INT31_LIMIT fails the C loop's per-trial
        guard: that trial alone runs the python loop (its batchmates stay
        in C) and every outcome still matches the oracles."""
        design, monitors = self._rover()
        rng = np.random.default_rng(7)
        trials = _draw_trials(design, monitors, 9_000, rng, 3)
        name = design.taskset.all_tasks[0].name
        trials[1] = BatchTrialInput(
            scenario=trials[1].scenario,
            release_jitter={**trials[1].release_jitter, name: INT31_LIMIT},
        )
        batch = _assert_matches_oracles(
            design, monitors, trials, 9_000, DEFAULT_PLATFORM
        )
        in_c = loop_tier == "compiled"
        assert [result.batched for result in batch.results] == [True] * 3
        assert [result.compiled for result in batch.results] == [
            in_c, False, in_c,
        ]

    def test_int31_period_keeps_the_design_on_the_python_loop(self, loop_tier):
        """A period at INT31_LIMIT fails the C loop's design guard: every
        trial of the design runs the python loop, equal to the oracles."""
        taskset = TaskSet.create(
            [RealTimeTask(name="rt", wcet=2, period=10)],
            [
                SecurityTask(
                    name="scan", wcet=3, max_period=INT31_LIMIT,
                    coverage_units=3,
                )
            ],
        )
        design = SystemDesign(
            scheme="HYDRA-C",
            policy=SchedulingPolicy.SEMI_PARTITIONED,
            taskset=taskset,
            platform=Platform(num_cores=1),
            rt_allocation=Allocation({"rt": 0}),
        )
        monitors = [
            SecurityMonitor.for_task(task)
            for task in design.taskset.security_tasks
        ]
        trials = _edge_case_trials(
            design, monitors, 400, np.random.default_rng(17), count=4
        )
        batch = _assert_matches_oracles(
            design, monitors, trials, 400, DEFAULT_PLATFORM, tier="python"
        )
        assert batch.batched_trials == len(trials)

    def test_per_trial_fallback_inside_a_batched_batch(self):
        """A trial that leaves the lockstep state model falls back *alone*;
        its batchmates stay on the lockstep path, and every outcome still
        matches the oracles.

        The trigger: concurrent jobs of one RT task (a release overlap,
        which the one-job-per-task lockstep arrays cannot represent).  On
        one core, ``blocker`` (higher priority, 6 of every 8 ticks) starves
        ``victim`` past its own period -- but only in trials where
        ``blocker`` is released inside the horizon at all.
        """
        taskset = TaskSet.create(
            [
                RealTimeTask(name="blocker", wcet=6, period=8),
                RealTimeTask(name="victim", wcet=3, period=12),
            ],
            [SecurityTask(name="sec", wcet=1, max_period=50)],
        )
        design = SystemDesign(
            scheme="HYDRA-C",
            policy=SchedulingPolicy.SEMI_PARTITIONED,
            taskset=taskset,
            platform=Platform(num_cores=1),
            rt_allocation=Allocation({"blocker": 0, "victim": 0}),
        )
        monitors = [
            SecurityMonitor.for_task(task)
            for task in design.taskset.security_tasks
        ]
        rng = np.random.default_rng(11)
        quiet = {"blocker": 500}  # released past the horizon: no contention
        trials = [
            BatchTrialInput(
                scenario=generate_attacks(monitors, 100, rng=rng),
                release_jitter=jitter,
            )
            for jitter in (quiet, {}, quiet)
        ]
        batch = _assert_matches_oracles(
            design, monitors, trials, 100, DEFAULT_PLATFORM
        )
        assert [result.batched for result in batch.results] == [
            True,
            False,
            True,
        ]

    def test_only_the_overlap_and_the_miss_fall_back(self, monkeypatch):
        """A batch mixing in-envelope trials with one RT deadline-miss
        trial and one RT release-overlap trial.

        Two cores, each with a ``blocker`` (6 of every 8 ticks) above a
        victim; jitter past the horizon keeps a blocker quiet.  On core 0
        the blocker pushes ``victim_a`` past its constrained deadline (a
        miss, no overlap); on core 1 it keeps ``victim_b`` running into
        its own next release (an overlap).
        """
        taskset = TaskSet.create(
            [
                RealTimeTask(name="blocker_a", wcet=6, period=8),
                RealTimeTask(name="victim_a", wcet=3, period=24, deadline=12),
                RealTimeTask(name="blocker_b", wcet=6, period=8),
                RealTimeTask(name="victim_b", wcet=3, period=12),
            ],
            [SecurityTask(name="sec", wcet=2, max_period=50)],
        )
        design = SystemDesign(
            scheme="HYDRA-C",
            policy=SchedulingPolicy.SEMI_PARTITIONED,
            taskset=taskset,
            platform=Platform(num_cores=2),
            rt_allocation=Allocation(
                {"blocker_a": 0, "victim_a": 0, "blocker_b": 1, "victim_b": 1}
            ),
        )
        monitors = [
            SecurityMonitor.for_task(task)
            for task in design.taskset.security_tasks
        ]
        rng = np.random.default_rng(23)
        quiet = {"blocker_a": 500, "blocker_b": 500}
        miss = {"blocker_b": 500}
        overlap = {"blocker_a": 500}
        trials = [
            BatchTrialInput(
                scenario=generate_attacks(monitors, 100, rng=rng),
                release_jitter=jitter,
            )
            for jitter in (quiet, miss, quiet, overlap, quiet)
        ]

        # Without the deadline check a miss is representable: only the
        # overlap leaves the per-task state model.
        unchecked = _assert_matches_oracles(
            design, monitors, trials, 100, DEFAULT_PLATFORM
        )
        assert [result.batched for result in unchecked.results] == [
            True, True, True, False, True,
        ]

        # With the check (the campaign default) both contended trials go
        # to the fallback engine, and only those two.
        handed = []

        def recording_fallback(design, monitors, trial, *args):
            handed.append(trial)
            return BatchTrialResult((), 0, 0, 0, batched=False)

        with monkeypatch.context() as patch:
            patch.setattr(batched_module, "_run_fallback", recording_fallback)
            checked = simulate_trials_batched(design, monitors, trials, 100)
        assert len(handed) == 2
        assert handed[0] is trials[1] and handed[1] is trials[3]
        for index in (0, 2, 4):
            assert checked.results[index] == unchecked.results[index]

        # ... and the real fallback raises the engines' error.
        with pytest.raises(SimulationError, match="deadline miss"):
            simulate_trials_batched(design, monitors, trials, 100)

    def test_busy_monitor_skips_its_release_inside_the_loop(self):
        """A monitor still scanning at its next period boundary skips that
        release (no new job, no progress reset) -- in the loop exactly as
        in the engines.  ``hog`` leaves ``scan`` 2 of every 8 ticks, so
        each 5-tick scan overruns its 10-tick period; no RT job misses, so
        every trial stays on the trace-free path."""
        taskset = TaskSet.create(
            [RealTimeTask(name="hog", wcet=6, period=8)],
            [SecurityTask(name="scan", wcet=5, max_period=10, coverage_units=5)],
        )
        design = SystemDesign(
            scheme="HYDRA-C",
            policy=SchedulingPolicy.SEMI_PARTITIONED,
            taskset=taskset,
            platform=Platform(num_cores=1),
            rt_allocation=Allocation({"hog": 0}),
        )
        monitors = [
            SecurityMonitor.for_task(task)
            for task in design.taskset.security_tasks
        ]
        trials = _edge_case_trials(
            design, monitors, 400, np.random.default_rng(31)
        )
        batch = _assert_matches_oracles(
            design, monitors, trials, 400, DEFAULT_PLATFORM
        )
        assert batch.fallback_trials == 0
        trace = EventCompressedSimulator.from_design(
            design, SimulationConfig(horizon=400)
        ).run()
        assert len(trace.jobs_for_task("scan")) < 400 // 10

    def test_unknown_jitter_key_raises_like_the_engines(self):
        """A jitter key naming no task is a configuration error in the
        engines; the batch backend must surface the same error rather than
        silently ignoring the key."""
        design, monitors = self._rover()
        scenario = generate_attacks(
            monitors, 2_000, rng=np.random.default_rng(5)
        )
        bad = BatchTrialInput(
            scenario=scenario, release_jitter={"no-such-task": 5}
        )
        with pytest.raises(SimulationError, match="no-such-task"):
            simulate_trials_batched(design, monitors, [bad], 2_000)

    def test_empty_trials_is_an_empty_result(self):
        design, monitors = self._rover()
        batch = simulate_trials_batched(design, monitors, [], 9_000)
        assert batch.results == ()
        assert batch.batched_trials == 0
        assert batch.fallback_trials == 0

    def test_nonpositive_horizon_rejected(self):
        design, monitors = self._rover()
        with pytest.raises(ValueError):
            simulate_trials_batched(design, monitors, [], 0)

    def test_rt_deadline_miss_raises_like_the_engines(self):
        """``fail_on_rt_deadline_miss=True`` (the campaign default) must
        surface the engines' SimulationError, not a silent number.  The
        registry would refuse this overloaded single core, so the design is
        assembled by hand (the fast-engine suite's overload scenario)."""
        taskset = TaskSet.create(
            [
                RealTimeTask(name="hog", wcet=9, period=10),
                RealTimeTask(name="starved", wcet=5, period=12),
            ],
            [SecurityTask(name="sec", wcet=4, max_period=50)],
        )
        design = SystemDesign(
            scheme="HYDRA-C",
            policy=SchedulingPolicy.SEMI_PARTITIONED,
            taskset=taskset,
            platform=Platform(num_cores=1),
            rt_allocation=Allocation({"hog": 0, "starved": 0}),
        )
        monitors = [
            SecurityMonitor.for_task(task)
            for task in design.taskset.security_tasks
        ]
        scenario = generate_attacks(monitors, 100, rng=np.random.default_rng(3))
        trial = BatchTrialInput(scenario=scenario, release_jitter={})
        with pytest.raises(SimulationError, match="deadline miss"):
            Simulator.from_design(design, SimulationConfig(horizon=100)).run()
        with pytest.raises(SimulationError, match="deadline miss"):
            simulate_trials_batched(design, monitors, [trial], 100)
        # With the check off, the trial simulates and matches the oracles.
        _assert_matches_oracles(
            design, monitors, [trial], 100, DEFAULT_PLATFORM
        )
