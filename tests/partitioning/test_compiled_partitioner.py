"""Differential suite: the compiled RT partitioner equals the python one.

On the compiled kernel tier :func:`partition_rt_tasks` packs a whole task
set in one C call (``hydra_partition_rt``); on the python tier the
incremental :class:`~repro.rta.CoreState` loop (with its flip-free
quick-accepts) runs.  On random 1-6-core task sets -- constrained
deadlines, equal periods and utilizations (name tie-breaks), blocking
terms of claim-annotated sets under PIP/PCP and sets that fit nowhere --
under every fit strategy, both tiers must give the same mapping (dict
order included) or the same ``AllocationError`` message, and best-fit
packings without blocking must equal the frozen
:func:`~repro.batch.reference.reference_partition_rt_tasks`.

Where the backend is unavailable the compiled tier is the warned python
fallback, so the suite runs (trivially equal) on any machine.
"""

import functools
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.orchestrator import build_specs
from repro.batch.reference import reference_partition_rt_tasks
import repro.batch.service as service_module
from repro.batch.service import BatchDesignService
from repro.core.framework import HydraC
from repro.errors import AllocationError, ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.generation.taskset_generator import (
    TasksetGenerationConfig,
    TasksetGenerator,
)
from repro.model import Platform, RealTimeTask, TaskSet
from repro.model.tasks import ResourceClaim
from repro.partitioning.heuristics import (
    FitStrategy,
    partition_rt_tasks,
    partition_utilizations,
)
from repro.platform.models import PlatformModel
from repro.rta import RtaContext, partitioned_rt_check
from repro.rta import compiled as compiled_pkg
from repro.schedulability.partitioned import partitioned_rt_schedulable
from repro.rta.vectorized import partition_column

RESOURCES = ("bus", "disk")

requires_backend = pytest.mark.skipif(
    not compiled_pkg.kernel_available(), reason="compiled backend unavailable"
)


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
def packings(draw):
    """A platform, an RT task set and a resource protocol."""
    num_cores = draw(st.integers(min_value=1, max_value=6))
    # Few distinct periods and wcets, so equal periods (RM name
    # tie-breaks) and equal utilizations (placement-order name
    # tie-breaks) are common.
    periods = st.sampled_from((10, 12, 20, 30, 40, 60))
    rt_tasks = []
    for index in range(draw(st.integers(min_value=1, max_value=10))):
        period = draw(periods)
        wcet = draw(st.integers(min_value=1, max_value=period))
        rt_tasks.append(
            RealTimeTask(
                name=f"rt{index}",
                wcet=wcet,
                period=period,
                deadline=draw(st.integers(min_value=wcet, max_value=period)),
                claims=draw(claims(wcet)),
            )
        )
    protocol = draw(st.sampled_from(("none", "pip", "pcp")))
    return Platform(num_cores=num_cores), TaskSet.create(rt_tasks, []), protocol


def _context(kernel, platform, protocol="none"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return RtaContext(
            platform,
            kernel=kernel,
            platform_model=PlatformModel.parse(protocol=protocol),
        )


def _outcome(packer, *args, **kwargs):
    """``("ok", mapping items in dict order)`` or ``("error", message)``."""
    try:
        allocation = packer(*args, **kwargs)
    except AllocationError as error:
        return "error", str(error)
    return "ok", list(allocation.mapping.items())


class TestCompiledPartitionerDifferential:
    @given(packings(), st.sampled_from(list(FitStrategy)))
    @settings(max_examples=300, deadline=None)
    def test_compiled_equals_python_equals_frozen(self, data, strategy):
        platform, taskset, protocol = data
        compiled = _outcome(
            partition_rt_tasks,
            taskset,
            platform,
            strategy,
            _context("compiled", platform, protocol),
        )
        python = _outcome(
            partition_rt_tasks,
            taskset,
            platform,
            strategy,
            _context("python", platform, protocol),
        )
        assert compiled == python
        if protocol == "none" and strategy is FitStrategy.BEST_FIT:
            frozen = _outcome(reference_partition_rt_tasks, taskset, platform)
            assert compiled == frozen

    @given(packings(), st.sampled_from(list(FitStrategy)))
    @settings(max_examples=100, deadline=None)
    def test_column_equals_per_set_packing_on_both_tiers(self, data, strategy):
        platform, taskset, protocol = data
        expected = _outcome(
            partition_rt_tasks,
            taskset,
            platform,
            strategy,
            _context("python", platform, protocol),
        )
        for kernel in ("compiled", "python"):
            (result,) = partition_column(
                [taskset], platform, [_context(kernel, platform, protocol)], strategy
            )
            got = (
                ("error", expected[1])
                if result is None
                else ("ok", list(result.mapping.items()))
            )
            assert got == expected, kernel

    @requires_backend
    def test_infeasible_set_reports_the_task_that_fits_nowhere(self):
        taskset = TaskSet.create(
            [RealTimeTask(name=f"rt{index}", wcet=9, period=10) for index in range(3)],
            [],
        )
        platform = Platform(num_cores=2)
        context = _context("compiled", platform)
        with pytest.raises(AllocationError) as error:
            partition_rt_tasks(taskset, platform, rta_context=context)
        assert str(error.value) == (
            "RT task 'rt2' (U=0.900) does not fit on any of the 2 cores "
            "under best-fit packing"
        )
        assert context.stats.compiled_solves > 0
        assert context.stats.exact_solves == 0


# ---------------------------------------------------------------------------
# Guard-based fallback to the python loop
# ---------------------------------------------------------------------------


class TestFallback:
    @pytest.mark.parametrize("field", ["period", "deadline"])
    def test_operand_at_int31_runs_python(self, field):
        big = compiled_pkg.INT31_LIMIT
        huge = RealTimeTask(
            name="rt-huge",
            wcet=3,
            period=big,
            deadline=big if field == "deadline" else big - 1,
        )
        taskset = TaskSet.create(
            [
                huge,
                RealTimeTask(name="rt0", wcet=2, period=10),
                RealTimeTask(name="rt1", wcet=3, period=14),
            ],
            [],
        )
        platform = Platform(num_cores=2)
        context = _context("compiled", platform)
        compiled = partition_rt_tasks(taskset, platform, rta_context=context)
        python = partition_rt_tasks(
            taskset, platform, rta_context=_context("python", platform)
        )
        assert list(compiled.mapping.items()) == list(python.mapping.items())
        assert context.stats.compiled_solves == 0


# ---------------------------------------------------------------------------
# Sweep generation: regeneration retries on both tiers
# ---------------------------------------------------------------------------


class TestEvaluateSpecsTiers:
    @pytest.fixture(scope="class")
    def specs(self):
        config = ExperimentConfig(
            num_cores=4,
            tasksets_per_group=3,
            utilization_groups=((0.05, 0.2), (0.75, 0.9), (0.9, 1.0)),
            seed=77,
            schemes=("HYDRA-C", "HYDRA"),
        )
        return config, build_specs(config)

    def test_compiled_equals_python(self, specs, monkeypatch):
        config, specs = specs
        # Table 3 caps the RT share at M / 1.3 over 3M-10M tasks, which
        # practically always partitions; 1-3 RT tasks per core with a 1%
        # security share fail often enough that slots redraw on every tier.
        monkeypatch.setattr(
            service_module,
            "TasksetGenerationConfig",
            functools.partial(
                TasksetGenerationConfig,
                rt_tasks_per_core=(1, 3),
                security_utilization_ratio=0.01,
            ),
        )
        draws = {"count": 0}
        generate_normalized = TasksetGenerator.generate_normalized

        def counted(generator, normalized):
            draws["count"] += 1
            return generate_normalized(generator, normalized)

        monkeypatch.setattr(TasksetGenerator, "generate_normalized", counted)
        results = {}
        redraws = {}
        for kernel in ("compiled", "python"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                service = BatchDesignService(
                    config.num_cores, scheme_names=config.schemes, kernel=kernel
                )
            draws["count"] = 0
            results[kernel] = service.evaluate_specs(specs)
            redraws[kernel] = draws["count"] - len(specs)
        assert results["compiled"] == results["python"]
        # Some slot needed a regeneration retry (a failed partition), and
        # both tiers redrew the same candidates.
        assert redraws["compiled"] == redraws["python"] > 0

    @requires_backend
    def test_default_tier_runs_the_compiled_layers(self, specs):
        """The default tier packs each set in C (no python probes, so no
        quick-accepts) and its C period selector certifies carry-in sets."""
        config, specs = specs
        service = BatchDesignService(config.num_cores, scheme_names=config.schemes)
        sink = {}
        service.evaluate_specs(specs, stats_sink=sink)
        assert sink["dedup_certified_sets"] > 0
        assert sink["compiled_solves"] > 0
        for name in ("exact_solves", "ll_accepts", "bound_accepts"):
            assert sink[name] == 0, name


# ---------------------------------------------------------------------------
# The Eq. 1 check reads the compiled partitioner's responses
# ---------------------------------------------------------------------------


def _check_items(result):
    return (
        result.schedulable,
        list(result.response_times.items()),
        result.unschedulable_tasks,
    )


class TestEq1CheckFromPartitioner:
    @given(packings(), st.sampled_from(list(FitStrategy)))
    @settings(max_examples=200, deadline=None)
    def test_check_equals_frozen_on_both_tiers(self, data, strategy):
        platform, taskset, protocol = data
        for kernel in ("compiled", "python"):
            context = _context(kernel, platform, protocol)
            try:
                allocation = partition_rt_tasks(taskset, platform, strategy, context)
            except AllocationError:
                return
            before = context.stats.as_dict()
            check = _check_items(
                partitioned_rt_check(taskset, allocation.mapping, platform, context)
            )
            # A fresh python context always solves every task.
            solved = partitioned_rt_check(
                taskset,
                allocation.mapping,
                platform,
                _context("python", platform, protocol),
            )
            assert check == _check_items(solved), kernel
            if protocol == "none":
                frozen = partitioned_rt_schedulable(
                    taskset, allocation.mapping, platform
                )
                assert check == _check_items(frozen), kernel
            if kernel == "compiled" and compiled_pkg.kernel_available():
                # The partitioner's responses were read, not re-solved.
                assert context.stats.as_dict() == before

    @pytest.mark.parametrize("kernel", ["compiled", "python"])
    def test_failed_probe_leaves_no_response_behind(self, kernel):
        """``t`` probes core 0 first: it and ``x`` pass there (``x`` at an
        inflated 8), ``y`` fails, so ``t`` lands on core 1.  Nothing is
        placed above ``x`` afterwards, so its response stays 6."""
        platform = Platform(num_cores=2)
        taskset = TaskSet.create(
            [
                RealTimeTask(name="y", wcet=21, period=40),
                RealTimeTask(name="x", wcet=6, period=20),
                RealTimeTask(name="t", wcet=2, period=10),
            ],
            [],
        )
        context = _context(kernel, platform)
        allocation = partition_rt_tasks(taskset, platform, rta_context=context)
        assert dict(allocation.mapping) == {"y": 0, "x": 0, "t": 1}
        check = partitioned_rt_check(taskset, allocation.mapping, platform, context)
        assert list(check.response_times.items()) == [
            ("x", 6), ("y", 33), ("t", 2)
        ]

    @requires_backend
    def test_other_candidate_or_mapping_solves_again(self):
        platform = Platform(num_cores=2)
        context = _context("compiled", platform)
        first = _strategy_taskset()
        first_allocation = partition_rt_tasks(first, platform, rta_context=context)
        # A regeneration retry packs another candidate on the same context.
        retry = TaskSet.create(
            [
                RealTimeTask(name=task.name, wcet=task.wcet + 1, period=task.period)
                for task in first.rt_tasks
            ],
            [],
        )
        retry_allocation = partition_rt_tasks(retry, platform, rta_context=context)
        moved = dict(retry_allocation.mapping)
        moved["d"] = 1 - moved["d"]
        equal_copy = TaskSet.create(list(retry.rt_tasks), [])
        for taskset, mapping, solves in (
            (first, first_allocation.mapping, True),
            (retry, moved, True),
            (equal_copy, retry_allocation.mapping, True),
            (retry, retry_allocation.mapping, False),
            (retry, dict(retry_allocation.mapping), False),
        ):
            before = context.stats.exact_solves
            check = partitioned_rt_check(taskset, mapping, platform, context)
            assert (context.stats.exact_solves > before) is solves
            assert _check_items(check) == _check_items(
                partitioned_rt_schedulable(taskset, mapping, platform)
            )


# ---------------------------------------------------------------------------
# Fit strategies given by their string values
# ---------------------------------------------------------------------------


def _strategy_taskset():
    return TaskSet.create(
        [
            RealTimeTask(name="a", wcet=2, period=10),
            RealTimeTask(name="b", wcet=3, period=15),
            RealTimeTask(name="c", wcet=1, period=20),
            RealTimeTask(name="d", wcet=6, period=40),
        ],
        [],
    )


class TestStrategyValues:
    @pytest.mark.parametrize("kernel", ["compiled", "python"])
    @pytest.mark.parametrize("strategy", list(FitStrategy))
    def test_string_value_equals_enum(self, kernel, strategy):
        platform = Platform(num_cores=2)
        taskset = _strategy_taskset()
        by_value = partition_rt_tasks(
            taskset, platform, strategy.value, _context(kernel, platform)
        )
        by_enum = partition_rt_tasks(
            taskset, platform, strategy, _context(kernel, platform)
        )
        assert list(by_value.mapping.items()) == list(by_enum.mapping.items())
        (column,) = partition_column(
            [taskset], platform, [_context(kernel, platform)], strategy.value
        )
        assert list(column.mapping.items()) == list(by_enum.mapping.items())

    def test_string_value_in_utilization_packing_and_hydra_c(self):
        items = [("a", 0.5), ("b", 0.4), ("c", 0.3)]
        assert partition_utilizations(
            items, num_bins=2, strategy="worst-fit"
        ) == partition_utilizations(
            items, num_bins=2, strategy=FitStrategy.WORST_FIT
        )
        platform = Platform(num_cores=2)
        design = HydraC(platform, rt_partition_strategy="first-fit").design(
            _strategy_taskset()
        )
        assert design.rt_allocation.mapping == HydraC(
            platform, rt_partition_strategy=FitStrategy.FIRST_FIT
        ).design(_strategy_taskset()).rt_allocation.mapping

    @pytest.mark.parametrize("kernel", ["compiled", "python"])
    def test_unknown_strategy_fails_before_any_probe(self, kernel):
        platform = Platform(num_cores=2)
        taskset = _strategy_taskset()
        context = _context(kernel, platform)
        with pytest.raises(ConfigurationError, match="unknown fit strategy 'bogus'"):
            partition_rt_tasks(taskset, platform, "bogus", context)
        with pytest.raises(ConfigurationError, match="first-fit, best-fit, worst-fit"):
            partition_column([taskset], platform, [context], "bogus")
        with pytest.raises(ConfigurationError, match="unknown fit strategy"):
            partition_utilizations([("a", 0.5)], num_bins=1, strategy="bogus")
        assert context.stats.exact_solves == 0
        assert context.stats.compiled_solves == 0
