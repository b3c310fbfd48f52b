"""Differential suite: the RTA kernel equals the frozen references everywhere.

The frozen oracles are :mod:`repro.schedulability` (uniprocessor,
partitioned and global analyses -- untouched since the seed) and the
pre-kernel packing paths preserved in :mod:`repro.batch.reference`.  On
randomized task sets -- including zero-slack tasks (``wcet == deadline``)
and overloaded cores (utilization above one) -- every kernel path must
reproduce the frozen response times and schedulability verdicts exactly.

The Eq. 1 classes run once per kernel tier (``KERNEL_MODES``): the
pure-python reference and the optional compiled backend of
:mod:`repro.rta.compiled`.  Where the backend is unavailable (no cffi, no
compiler, or ``REPRO_DISABLE_COMPILED=1`` -- the CI forced-fallback stage)
the ``compiled`` parametrization transparently exercises the fallback
path, which must equal the frozen oracles all the same.  Compiled Eq. 6-8
solves happen only inside the one-call period selector, whose
differential lives in ``test_selector_differential.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.reference import (
    reference_security_response_time,
)
from repro.core.analysis import CarryInStrategy, SecurityTaskState
from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet
from repro.rta import (
    RtaContext,
    TaskView,
    partitioned_rt_check,
    security_response_time,
)
from repro.schedulability.global_rta import global_taskset_schedulable
from repro.schedulability.partitioned import partitioned_rt_schedulable
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


class TestGlobalDifferential:
    @given(tasksets())
    @settings(max_examples=100, deadline=None)
    def test_global_engine_equals_frozen(self, data):
        platform, taskset, _allocation = data
        frozen = global_taskset_schedulable(taskset, platform)
        kernel = RtaContext(platform).global_engine().taskset_schedulable(taskset)
        assert kernel.schedulable == frozen.schedulable
        assert kernel.response_times == frozen.response_times
        assert kernel.first_failure == frozen.first_failure

    def test_vector_path_equals_frozen_on_many_tasks(self):
        """Force the NumPy branch (> 32 higher-priority tasks)."""
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
        platform = Platform(num_cores=4)
        frozen = global_taskset_schedulable(taskset, platform)
        kernel = RtaContext(platform).global_engine().taskset_schedulable(taskset)
        assert kernel.response_times == frozen.response_times
        assert kernel.schedulable == frozen.schedulable


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
