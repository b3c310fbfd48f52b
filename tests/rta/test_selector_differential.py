"""Differential suite: the compiled period selector equals the python one.

On the compiled kernel tier :meth:`PeriodSelector.select` runs Algorithms
1-2 in one C call; everywhere else (and whenever an operand fails the
kernel's guards) the python selector runs.  On random 1-4-core task sets
-- including zero-slack security tasks (``wcet == T^max``) and overloaded
cores -- under every carry-in strategy, both search modes and the
blocking terms of claim-annotated sets under PIP/PCP, the two tiers must
agree on every result field, the order of the result dicts included.
Blocking-free selections must also equal the frozen
:func:`~repro.batch.reference.reference_select_periods`.  A scaled-up
variant drives busy windows past the C selector's per-window RT workload
memo slot count, so windows share memo slots.

Where the backend is unavailable the compiled tier is the warned python
fallback, so the suite runs (trivially equal) on any machine.
"""

import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.reference import reference_select_periods
from repro.core import period_selection
from repro.core.analysis import CarryInStrategy
from repro.core.period_selection import SearchMode, select_periods
from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet
from repro.model.tasks import ResourceClaim
from repro.platform.models import PlatformModel
from repro.rta import RtaContext
from repro.rta import compiled as compiled_pkg

RESOURCES = ("bus", "disk")


@st.composite
def claims(draw, wcet):
    """Up to one non-overlapping section per resource, inside *wcet*."""
    sections = []
    start = 0
    for resource in RESOURCES:
        if start >= wcet or not draw(st.booleans()):
            continue
        duration = draw(st.integers(min_value=1, max_value=wcet - start))
        sections.append(ResourceClaim(resource=resource, start=start, duration=duration))
        start += duration
    return tuple(sections)


@st.composite
def selections(draw, scale=1):
    """A platform, a task set with a random RT allocation, a protocol.

    ``scale`` multiplies every time bound (periods, wcets, ``T^max``).
    """
    num_cores = draw(st.integers(min_value=1, max_value=4))
    rt_tasks = []
    for index in range(draw(st.integers(min_value=0, max_value=8))):
        period = draw(st.integers(min_value=6, max_value=80 * scale))
        wcet = draw(st.integers(min_value=1, max_value=period))
        rt_tasks.append(
            RealTimeTask(
                name=f"rt{index}",
                wcet=wcet,
                period=period,
                claims=draw(claims(wcet)),
            )
        )
    security_tasks = []
    # Up to 8 tasks, so AUTO's switch to the greedy bound (more than 32
    # exact carry-in sets: task index >= 6 on 4 cores) is exercised too.
    for index in range(draw(st.integers(min_value=1, max_value=8))):
        wcet = draw(st.integers(min_value=1, max_value=12 * scale))
        security_tasks.append(
            SecurityTask(
                name=f"sec{index}",
                wcet=wcet,
                max_period=draw(
                    st.integers(min_value=wcet, max_value=400 * scale)
                ),
                claims=draw(claims(wcet)),
            )
        )
    taskset = TaskSet.create(rt_tasks, security_tasks)
    allocation = {
        task.name: draw(st.integers(min_value=0, max_value=num_cores - 1))
        for task in taskset.rt_tasks
    }
    protocol = draw(st.sampled_from(("none", "pip", "pcp")))
    return Platform(num_cores=num_cores), taskset, allocation, protocol


def _select(kernel, platform, taskset, allocation, strategy, mode, protocol="none"):
    context = RtaContext(
        platform,
        kernel=kernel,
        platform_model=PlatformModel.parse(protocol=protocol),
    )
    result = select_periods(
        taskset,
        allocation,
        platform,
        strategy=strategy,
        search_mode=mode,
        rta_context=context,
    )
    return result, context


def _fields(result):
    """Every result field the sweep output depends on, dict order included."""
    return (
        result.schedulable,
        list(result.periods.items()),
        list(result.response_times.items()),
        result.unschedulable_task,
    )


def _assert_tiers_agree(data, strategy, mode):
    platform, taskset, allocation, protocol = data
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        compiled, context = _select(
            "compiled", platform, taskset, allocation, strategy, mode, protocol
        )
    python, _ = _select(
        "python", platform, taskset, allocation, strategy, mode, protocol
    )
    assert _fields(compiled) == _fields(python)
    if protocol == "none":
        frozen = reference_select_periods(
            taskset, allocation, platform, strategy=strategy
        )
        assert _fields(compiled) == _fields(frozen)
    return compiled, context


class TestSelectorDifferential:
    @given(
        selections(),
        st.sampled_from(list(CarryInStrategy)),
        st.sampled_from(list(SearchMode)),
    )
    @settings(max_examples=300, deadline=None)
    def test_compiled_equals_python_equals_frozen(self, data, strategy, mode):
        _assert_tiers_agree(data, strategy, mode)

    @given(selections(scale=40), st.sampled_from(list(CarryInStrategy)))
    @settings(max_examples=60, deadline=None)
    def test_windows_beyond_the_memo_slots(self, data, strategy):
        """``T^max`` up to 16000 ticks: the busy windows of one selection
        span several multiples of the RT workload memo's 4096 slots."""
        _assert_tiers_agree(data, strategy, SearchMode.BINARY)

    def test_exact_certification_fires_on_four_cores(self):
        platform = Platform(num_cores=4)
        taskset = TaskSet.create(
            [
                RealTimeTask(name="rt0", wcet=30, period=100),
                RealTimeTask(name="rt1", wcet=45, period=150),
                RealTimeTask(name="rt2", wcet=20, period=120),
            ],
            [
                SecurityTask(name=f"sec{index}", wcet=wcet, max_period=max_period)
                for index, (wcet, max_period) in enumerate(
                    ((12, 300), (25, 600), (9, 500), (40, 1500), (15, 2000))
                )
            ],
        )
        allocation = {"rt0": 0, "rt1": 1, "rt2": 2}
        data = (platform, taskset, allocation, "none")
        compiled, context = _assert_tiers_agree(
            data, CarryInStrategy.EXACT, SearchMode.BINARY
        )
        assert compiled.schedulable
        if compiled_pkg.kernel_available():
            assert context.stats.compiled_solves > 0
            assert context.stats.dedup_certified_sets > 0


# ---------------------------------------------------------------------------
# Guard-based fallback to the python selector
# ---------------------------------------------------------------------------


def _fallback_taskset(max_period=400):
    return TaskSet.create(
        [
            RealTimeTask(name="rt0", wcet=2, period=10),
            RealTimeTask(name="rt1", wcet=3, period=14),
        ],
        [
            SecurityTask(name="sec0", wcet=4, max_period=max_period),
            SecurityTask(name="sec1", wcet=3, max_period=300),
            SecurityTask(name="sec2", wcet=5, max_period=500),
        ],
    )


def _assert_python_fallback(taskset, strategy=CarryInStrategy.AUTO, num_cores=4):
    platform = Platform(num_cores=num_cores)
    allocation = {"rt0": 0, "rt1": 1}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        compiled, context = _select(
            "compiled", platform, taskset, allocation, strategy, SearchMode.BINARY
        )
    python, _ = _select(
        "python", platform, taskset, allocation, strategy, SearchMode.BINARY
    )
    assert _fields(compiled) == _fields(python)
    assert compiled.schedulable
    assert context.stats.compiled_solves == 0


class TestFallback:
    def test_operand_beyond_int31_runs_python(self):
        _assert_python_fallback(
            _fallback_taskset(max_period=compiled_pkg.INT31_LIMIT + 7)
        )

    def test_exact_beyond_max_compiled_sets_runs_python(self, monkeypatch):
        # sec2 has two higher-priority tasks: 4 exact carry-in sets on 4
        # cores, above a lowered cap (the real cap needs far larger sets).
        monkeypatch.setattr(period_selection, "MAX_COMPILED_SETS", 3)
        _assert_python_fallback(_fallback_taskset(), CarryInStrategy.EXACT)

    def test_disabled_backend_runs_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_COMPILED", "1")
        compiled_pkg._reset_for_tests()
        try:
            _assert_python_fallback(_fallback_taskset())
        finally:
            monkeypatch.delenv("REPRO_DISABLE_COMPILED")
            compiled_pkg._reset_for_tests()
