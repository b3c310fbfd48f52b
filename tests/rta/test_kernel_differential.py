"""Differential suite: the RTA kernel equals the frozen references everywhere.

The frozen oracles are :mod:`repro.schedulability` (uniprocessor,
partitioned and global analyses -- untouched since the seed) and the
pre-kernel packing paths preserved in :mod:`repro.batch.reference`.  On
randomized task sets -- including zero-slack tasks (``wcet == deadline``)
and overloaded cores (utilization above one) -- every kernel path must
reproduce the frozen response times and schedulability verdicts exactly.

The Eq. 1, global and HYDRA period-assignment classes run once per kernel
tier (``KERNEL_MODES``): the pure-python reference and the optional
compiled backend of :mod:`repro.rta.compiled`.  On the compiled tier
GLOBAL-TMax's whole priority-ordered sweep and HYDRA's per-core
Algorithm 2 (CORE_AWARE and TMAX) each run in one C call per task set,
with a guard-based fallback to the python path that the fallback cases
below pin; the C Algorithm 2 warm-starts its Eq. 1 solves, which the
Table-3-scale cases hold to the cold python assigner solve for solve.  Where the backend is unavailable (no cffi, no compiler, or
``REPRO_DISABLE_COMPILED=1`` -- the CI forced-fallback stage) the
``compiled`` parametrization transparently exercises the fallback path,
which must equal the frozen oracles all the same.  HYDRA-C's one-call
period selector (the Eq. 6-8 solves) has its own differential in
``test_selector_differential.py``.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.baselines.hydra import Hydra, PeriodPolicy
from repro.batch.reference import (
    _reference_allocate_security,
    reference_design_hydra,
    reference_security_response_time,
)
from repro.core.analysis import CarryInStrategy, SecurityTaskState
from repro.errors import UnschedulableError
from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet
from repro.rta import (
    RtaContext,
    TaskView,
    kernel_available,
    partitioned_rt_check,
    security_response_time,
)
from repro.rta.compiled import INT31_LIMIT
from repro.rta.packing import CorePeriodAssigner
from repro.schedulability.global_rta import global_taskset_schedulable
from repro.schedulability.partitioned import (
    partitioned_rt_schedulable,
    rt_tasks_by_core,
)
from repro.schemes.variants import RandomFitHydra
from repro.schedulability.uniprocessor import (
    UniprocessorTask,
    core_is_schedulable,
    uniprocessor_response_time,
)

#: Kernel tiers every Eq. 1 differential runs under.  The
#: compiled tier degrades to the (once-per-process warned) python fallback
#: when the backend cannot be built, so the suite runs on any machine --
#: under ``REPRO_DISABLE_COMPILED=1`` both parametrizations exercise the
#: pure path, which is exactly what the CI forced-fallback stage pins.
KERNEL_MODES = ("python", "compiled")


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def uniprocessor_cores(draw):
    """Priority-ordered cores incl. zero-slack and overloaded ones."""
    count = draw(st.integers(min_value=1, max_value=7))
    tasks = []
    for index in range(count):
        period = draw(st.integers(min_value=2, max_value=50))
        wcet = draw(st.integers(min_value=1, max_value=period))
        deadline = draw(st.integers(min_value=wcet, max_value=period))
        tasks.append(UniprocessorTask(f"t{index}", wcet, period, deadline))
    tasks.sort(key=lambda t: (t.period, t.name))
    return tasks


@st.composite
def tasksets(draw, max_cores=4):
    num_cores = draw(st.integers(min_value=1, max_value=max_cores))
    num_rt = draw(st.integers(min_value=1, max_value=8))
    num_security = draw(st.integers(min_value=0, max_value=4))
    rt_tasks = []
    for index in range(num_rt):
        period = draw(st.integers(min_value=6, max_value=80))
        wcet = draw(st.integers(min_value=1, max_value=max(1, period // 2)))
        rt_tasks.append(RealTimeTask(name=f"rt{index}", wcet=wcet, period=period))
    security_tasks = [
        SecurityTask(
            name=f"sec{index}",
            wcet=draw(st.integers(min_value=1, max_value=8)),
            max_period=draw(st.integers(min_value=60, max_value=240)),
        )
        for index in range(num_security)
    ]
    taskset = TaskSet.create(rt_tasks, security_tasks)
    allocation = {
        task.name: draw(st.integers(min_value=0, max_value=num_cores - 1))
        for task in taskset.rt_tasks
    }
    return Platform(num_cores=num_cores), taskset, allocation


# ---------------------------------------------------------------------------
# Uniprocessor (Eq. 1)
# ---------------------------------------------------------------------------


class TestUniprocessorDifferential:
    @pytest.mark.parametrize("kernel", KERNEL_MODES)
    @given(uniprocessor_cores())
    @settings(max_examples=200, deadline=None)
    def test_sequential_admission_equals_frozen_core_analysis(
        self, kernel, tasks
    ):
        context = RtaContext(2, kernel=kernel)
        state = context.core_state()
        kernel_ok = True
        for position, task in enumerate(tasks):
            admission = state.admit(
                TaskView(
                    name=task.name,
                    wcet=task.wcet,
                    period=task.period,
                    deadline=task.deadline,
                    key=(position, task.name),
                ),
                need_response=True,
            )
            if not admission.admitted:
                kernel_ok = False
                break
            # Exact per-task WCRT must equal the frozen fixed point.
            assert admission.response == uniprocessor_response_time(
                task.wcet, tasks[:position], limit=task.deadline
            )
            state = admission.state
        assert kernel_ok == core_is_schedulable(tasks)


# ---------------------------------------------------------------------------
# Partitioned (Eq. 1 per core)
# ---------------------------------------------------------------------------


class TestPartitionedDifferential:
    @pytest.mark.parametrize("kernel_mode", KERNEL_MODES)
    @given(tasksets())
    @settings(max_examples=100, deadline=None)
    def test_partitioned_check_equals_frozen(self, kernel_mode, data):
        platform, taskset, allocation = data
        frozen = partitioned_rt_schedulable(taskset, allocation, platform)
        kernel = partitioned_rt_check(
            taskset, allocation, platform, RtaContext(platform, kernel=kernel_mode)
        )
        assert kernel.schedulable == frozen.schedulable
        assert kernel.response_times == frozen.response_times
        assert kernel.unschedulable_tasks == frozen.unschedulable_tasks


# ---------------------------------------------------------------------------
# Global (GLOBAL-TMax)
# ---------------------------------------------------------------------------


def _context(platform, kernel):
    """A kernel context; the compiled tier's once-per-process fallback
    warning (backend unavailable) is expected and silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return RtaContext(platform, kernel=kernel)


def _global_equals_frozen(kernel_mode, platform, taskset, fits=True):
    """The engine equals the frozen analysis; ``fits`` says whether the
    operands pass the compiled path's guards."""
    frozen = global_taskset_schedulable(taskset, platform)
    context = _context(platform, kernel_mode)
    kernel = context.global_engine().taskset_schedulable(taskset)
    assert kernel.schedulable == frozen.schedulable
    assert list(kernel.response_times.items()) == list(
        frozen.response_times.items()
    )
    assert kernel.first_failure == frozen.first_failure
    # The one-call path counts every fixed point as exact *and* compiled.
    compiled = fits and context.compiled_kernel is not None
    stats = context.stats
    assert stats.compiled_solves == (stats.exact_solves if compiled else 0)
    return stats


class TestGlobalDifferential:
    @pytest.mark.parametrize("kernel_mode", KERNEL_MODES)
    @given(tasksets())
    @settings(max_examples=100, deadline=None)
    def test_global_engine_equals_frozen(self, kernel_mode, data):
        platform, taskset, _allocation = data
        _global_equals_frozen(kernel_mode, platform, taskset)

    @pytest.mark.parametrize("kernel_mode", KERNEL_MODES)
    def test_vector_path_equals_frozen_on_many_tasks(self, kernel_mode):
        """> 32 higher-priority tasks: the NumPy branch on the python tier."""
        rng = np.random.default_rng(5)
        rt_tasks = [
            RealTimeTask(
                name=f"rt{index:02d}",
                wcet=int(rng.integers(1, 4)),
                period=int(rng.integers(40, 200)),
            )
            for index in range(40)
        ]
        taskset = TaskSet.create(
            rt_tasks,
            [SecurityTask(name="sec0", wcet=3, max_period=4000)],
        )
        _global_equals_frozen(kernel_mode, Platform(num_cores=4), taskset)

    @pytest.mark.parametrize("kernel_mode", KERNEL_MODES)
    def test_operand_beyond_int31_runs_python(self, kernel_mode):
        taskset = TaskSet.create(
            [
                RealTimeTask(name="rt0", wcet=2, period=10),
                RealTimeTask(name="rt1", wcet=3, period=INT31_LIMIT),
            ],
            [SecurityTask(name="sec0", wcet=4, max_period=300)],
        )
        stats = _global_equals_frozen(
            kernel_mode, Platform(num_cores=2), taskset, fits=False
        )
        assert stats.exact_solves == 3


# ---------------------------------------------------------------------------
# HYDRA per-core period assignment (Algorithm 2 per core)
# ---------------------------------------------------------------------------


@st.composite
def hydra_scenarios(draw):
    """1-6-core sets with zero-slack security tasks (``wcet == T^max``),
    overloaded cores, and cores without RT or without security tasks."""
    num_cores = draw(st.integers(min_value=1, max_value=6))
    rt_tasks = []
    for index in range(draw(st.integers(min_value=0, max_value=8))):
        period = draw(st.integers(min_value=6, max_value=80))
        wcet = draw(st.integers(min_value=1, max_value=period))
        rt_tasks.append(RealTimeTask(name=f"rt{index}", wcet=wcet, period=period))
    security_tasks = []
    for index in range(draw(st.integers(min_value=1, max_value=7))):
        wcet = draw(st.integers(min_value=1, max_value=12))
        zero_slack = draw(st.integers(min_value=0, max_value=4)) == 0
        max_period = (
            wcet if zero_slack else draw(st.integers(min_value=wcet, max_value=400))
        )
        security_tasks.append(
            SecurityTask(name=f"sec{index}", wcet=wcet, max_period=max_period)
        )
    taskset = TaskSet.create(rt_tasks, security_tasks)
    # RT tasks land on the first ``rt_cores`` cores only, so the rest start
    # empty; piling several on one core overloads it.
    rt_cores = draw(st.integers(min_value=1, max_value=num_cores))
    allocation = {
        task.name: draw(st.integers(min_value=0, max_value=rt_cores - 1))
        for task in taskset.rt_tasks
    }
    return Platform(num_cores=num_cores), taskset, allocation


#: ``(scheme class, period policy)`` pairs: every period phase has a
#: compiled path.
HYDRA_VARIANTS = (
    (Hydra, PeriodPolicy.CORE_AWARE),
    (Hydra, PeriodPolicy.TMAX),
    (RandomFitHydra, PeriodPolicy.CORE_AWARE),
    (RandomFitHydra, PeriodPolicy.TMAX),
)


def _hydra_design(scheme, policy, kernel_mode, platform, taskset, allocation):
    """``(design fields, context)``; fields are ``None`` when the RT
    partition itself fails Eq. 1 (the design raises)."""
    context = _context(platform, kernel_mode)
    try:
        design = scheme(platform, period_policy=policy).design(
            taskset, allocation, rta_context=context
        )
    except UnschedulableError:
        return None, context
    return (
        design.schedulable,
        list(design.security_periods().items()),
        list(design.response_times.items()),
        design.metadata,
    ), context


def _period_phase(policy, kernel_mode, platform, taskset, allocation):
    """HYDRA's period phase alone on a fresh context (the RT check and the
    allocation are precomputed and passed in), as ``(design, stats)``."""
    hydra = Hydra(platform, period_policy=policy)
    rt_by_core = rt_tasks_by_core(taskset, allocation, platform)
    security_allocation = hydra.allocate_security(taskset, rt_by_core)
    context = _context(platform, kernel_mode)
    design = hydra.design(
        taskset,
        allocation,
        rt_check=partitioned_rt_schedulable(taskset, allocation, platform),
        security_allocation=security_allocation,
        rt_by_core=rt_by_core,
        rta_context=context,
    )
    return design, context.stats


def _fixed_hydra_taskset(max_period=400, rt_period=14):
    return TaskSet.create(
        [
            RealTimeTask(name="rt0", wcet=2, period=10),
            RealTimeTask(name="rt1", wcet=3, period=rt_period),
            RealTimeTask(name="rt2", wcet=4, period=25),
        ],
        [
            SecurityTask(name="sec0", wcet=4, max_period=max_period),
            SecurityTask(name="sec1", wcet=3, max_period=300),
            SecurityTask(name="sec2", wcet=5, max_period=500),
            SecurityTask(name="sec3", wcet=2, max_period=90),
            # Too large for the fuller core 0: best fit puts it on core 1.
            SecurityTask(name="sec4", wcet=12, max_period=40),
        ],
    )


_FIXED_ALLOCATION = {"rt0": 0, "rt1": 1, "rt2": 0}


class TestHydraPeriodsDifferential:
    @pytest.mark.parametrize("scheme,policy", HYDRA_VARIANTS)
    @given(hydra_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_compiled_equals_python_equals_frozen(self, scheme, policy, data):
        platform, taskset, allocation = data
        compiled, _ = _hydra_design(
            scheme, policy, "compiled", platform, taskset, allocation
        )
        python, _ = _hydra_design(
            scheme, policy, "python", platform, taskset, allocation
        )
        assert compiled == python
        if scheme is not Hydra:
            return  # the frozen oracle only has the best-fit allocation
        try:
            frozen = reference_design_hydra(
                platform,
                taskset,
                allocation,
                pin_periods_to_max=policy is PeriodPolicy.TMAX,
            )
        except UnschedulableError:
            assert compiled is None
            return
        assert compiled[0] == frozen.schedulable
        if frozen.schedulable:
            assert compiled[1] == list(frozen.security_periods().items())

    @pytest.mark.parametrize("policy", (PeriodPolicy.CORE_AWARE, PeriodPolicy.TMAX))
    @pytest.mark.parametrize(
        "taskset",
        (
            _fixed_hydra_taskset(max_period=INT31_LIMIT),
            _fixed_hydra_taskset(rt_period=INT31_LIMIT),
        ),
        ids=("tmax-2**31", "rt-period-2**31"),
    )
    def test_operand_beyond_int31_runs_python(self, policy, taskset):
        platform = Platform(num_cores=2)
        compiled, stats = _period_phase(
            policy, "compiled", platform, taskset, _FIXED_ALLOCATION
        )
        python, _ = _period_phase(
            policy, "python", platform, taskset, _FIXED_ALLOCATION
        )
        assert compiled.schedulable and python.schedulable
        assert compiled.security_periods() == python.security_periods()
        assert list(compiled.response_times.items()) == list(
            python.response_times.items()
        )
        assert stats.compiled_solves == 0

    @pytest.mark.parametrize(
        "policy,solves",
        ((PeriodPolicy.CORE_AWARE, 59), (PeriodPolicy.TMAX, 5)),
    )
    def test_compiled_solves_count_every_eq1_solve(
        self, policy, solves, monkeypatch
    ):
        """One compiled solve per Eq. 1 fixed point the python assigner runs
        (every ``response_time`` call within its limit) -- the count the
        per-solve dispatch recorded before the phase moved into one call."""
        platform = Platform(num_cores=2)
        taskset = _fixed_hydra_taskset()
        python_solves = []
        original = CorePeriodAssigner.response_time

        def counting(self, wcet, limit, higher_security):
            if wcet <= limit:
                python_solves.append(wcet)
            return original(self, wcet, limit, higher_security)

        monkeypatch.setattr(CorePeriodAssigner, "response_time", counting)
        _period_phase(policy, "python", platform, taskset, _FIXED_ALLOCATION)
        assert len(python_solves) == solves
        _design, stats = _period_phase(
            policy, "compiled", platform, taskset, _FIXED_ALLOCATION
        )
        assert stats.compiled_solves == (solves if kernel_available() else 0)


@st.composite
def table3_hydra_cores(draw):
    """HYDRA cores at the generator's scale: 4-8 security tasks on one or
    two cores, ``T^max`` in Table 3's [1500, 3000] (about 11 binary-search
    levels per task) and RT periods in its [10, 1000], so the compiled
    search's feasible probes seed several lower-priority tasks of a core."""
    num_cores = draw(st.integers(min_value=1, max_value=2))
    rt_tasks = []
    for index in range(draw(st.integers(min_value=0, max_value=4 * num_cores))):
        period = draw(st.integers(min_value=10, max_value=1000))
        wcet = draw(st.integers(min_value=1, max_value=max(1, period // 8)))
        rt_tasks.append(RealTimeTask(name=f"rt{index}", wcet=wcet, period=period))
    security_tasks = []
    for index in range(draw(st.integers(min_value=4, max_value=8))):
        max_period = draw(st.integers(min_value=1500, max_value=3000))
        wcet = draw(st.integers(min_value=1, max_value=max_period // 16))
        security_tasks.append(
            SecurityTask(name=f"sec{index}", wcet=wcet, max_period=max_period)
        )
    taskset = TaskSet.create(rt_tasks, security_tasks)
    allocation = {
        task.name: draw(st.integers(min_value=0, max_value=num_cores - 1))
        for task in taskset.rt_tasks
    }
    return Platform(num_cores=num_cores), taskset, allocation


def _security_core(*operands):
    """One core of security tasks ``(wcet, T^max)`` in priority order."""
    security_tasks = [
        SecurityTask(name=f"sec{index}", wcet=wcet, max_period=max_period)
        for index, (wcet, max_period) in enumerate(operands)
    ]
    return Platform(num_cores=1), TaskSet.create([], security_tasks), {}


#: Cores whose searches seed wrongly when infeasible probes also seed:
#: the first makes a seeded iterate fall (the kernel raises
#: ``KernelContractError``), the second starts a solve on a larger fixed
#: point and so changes a period.
SEED_ORDER_CORES = (
    _security_core((1, 1500), (4, 1500), (5, 1500), (79, 1500)),
    _security_core((1, 1500), (4, 1500), (1, 1500), (83, 1500)),
)


def _frozen_security_responses(platform, taskset, allocation, periods):
    """Each security task's response under the frozen best-fit allocation
    with the security tasks above it at ``periods`` (frozen Eq. 1)."""
    rt_by_core = rt_tasks_by_core(taskset, allocation, platform)
    mapping, _failed = _reference_allocate_security(platform, taskset, rt_by_core)
    responses = {}
    for core in range(platform.num_cores):
        higher = [
            UniprocessorTask(rt.name, rt.wcet, rt.period, rt.deadline)
            for rt in rt_by_core.get(core, ())
        ]
        for task in taskset.security_by_priority():
            if mapping.get(task.name) != core:
                continue
            responses[task.name] = uniprocessor_response_time(
                task.wcet, higher, limit=task.max_period
            )
            period = periods[task.name]
            higher.append(UniprocessorTask(task.name, task.wcet, period, period))
    return responses


class TestHydraPeriodsTable3Scale:
    """The compiled CORE_AWARE search warm-starts each Eq. 1 solve from
    the task's response in the last feasible probe; at Table-3 scale the
    searches are deep enough for those seeds to matter, and every period,
    response and solve count must still be the cold python assigner's."""

    @given(table3_hydra_cores())
    @example(SEED_ORDER_CORES[0])
    @example(SEED_ORDER_CORES[1])
    @settings(max_examples=60, deadline=None)
    def test_compiled_equals_python_equals_frozen(self, data):
        platform, taskset, allocation = data
        compiled, _ = _hydra_design(
            Hydra, PeriodPolicy.CORE_AWARE, "compiled", platform, taskset, allocation
        )
        python, _ = _hydra_design(
            Hydra, PeriodPolicy.CORE_AWARE, "python", platform, taskset, allocation
        )
        assert compiled == python
        try:
            frozen = reference_design_hydra(platform, taskset, allocation)
        except UnschedulableError:
            assert compiled is None
            return
        assert compiled[0] == frozen.schedulable
        if not frozen.schedulable:
            return
        periods = frozen.security_periods()
        assert compiled[1] == list(periods.items())
        expected = _frozen_security_responses(platform, taskset, allocation, periods)
        responses = dict(compiled[2])
        assert {name: responses[name] for name in expected} == expected

    @given(table3_hydra_cores())
    @example(SEED_ORDER_CORES[0])
    @example(SEED_ORDER_CORES[1])
    @settings(max_examples=40, deadline=None)
    def test_compiled_solves_count_every_eq1_solve(self, data):
        platform, taskset, allocation = data
        assume(partitioned_rt_schedulable(taskset, allocation, platform).schedulable)
        python_solves = []
        original = CorePeriodAssigner.response_time

        def counting(assigner, wcet, limit, higher_security):
            if wcet <= limit:
                python_solves.append(wcet)
            return original(assigner, wcet, limit, higher_security)

        with mock.patch.object(CorePeriodAssigner, "response_time", counting):
            _period_phase(
                PeriodPolicy.CORE_AWARE, "python", platform, taskset, allocation
            )
        _design, stats = _period_phase(
            PeriodPolicy.CORE_AWARE, "compiled", platform, taskset, allocation
        )
        assert stats.compiled_solves == (
            len(python_solves) if kernel_available() else 0
        )


# ---------------------------------------------------------------------------
# Migrating security tasks (Eq. 6-8)
# ---------------------------------------------------------------------------


@st.composite
def migrating_scenarios(draw):
    num_cores = draw(st.integers(min_value=1, max_value=4))
    rt_by_core = {}
    for core in range(num_cores):
        count = draw(st.integers(min_value=0, max_value=4))
        rt_by_core[core] = [
            RealTimeTask(
                name=f"rt{core}_{index}",
                wcet=draw(st.integers(min_value=1, max_value=6)),
                period=draw(st.integers(min_value=8, max_value=60)),
                priority=core * 10 + index,
            )
            for index in range(count)
        ]
    states = []
    for index in range(draw(st.integers(min_value=0, max_value=4))):
        wcet = draw(st.integers(min_value=1, max_value=6))
        period = draw(st.integers(min_value=20, max_value=120))
        response = draw(st.integers(min_value=wcet, max_value=period))
        states.append(
            SecurityTaskState(
                name=f"hp{index}", wcet=wcet, period=period, response_time=response
            )
        )
    wcet = draw(st.integers(min_value=1, max_value=10))
    limit = draw(st.integers(min_value=wcet, max_value=400))
    return num_cores, rt_by_core, states, wcet, limit


class TestMigratingDifferential:
    @given(migrating_scenarios(), st.sampled_from(list(CarryInStrategy)))
    @settings(max_examples=150, deadline=None)
    def test_kernel_engine_equals_frozen_seed_engine(self, scenario, strategy):
        num_cores, rt_by_core, states, wcet, limit = scenario
        kernel = security_response_time(
            security_wcet=wcet,
            limit=limit,
            rt_tasks_by_core=rt_by_core,
            higher_security=states,
            num_cores=num_cores,
            strategy=strategy,
            rta_context=RtaContext(num_cores),
        )
        frozen = reference_security_response_time(
            security_wcet=wcet,
            limit=limit,
            rt_tasks_by_core=rt_by_core,
            higher_security=states,
            num_cores=num_cores,
            strategy=strategy,
        )
        assert kernel == frozen
