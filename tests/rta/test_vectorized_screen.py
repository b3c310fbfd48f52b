"""Differential suite for the sweep's column path and its execution.

Three families of guarantees, all pinned against frozen oracles:

* column partitioning is per-set packing -- on random columns (including
  zero-slack tasks, overloaded cores and degenerate single-task-set
  columns) :func:`~repro.rta.vectorized.partition_column` on the python
  tier reproduces the default tier's per-set packing byte for byte, and
  the whole column pipeline equals ``reference_evaluate_one`` on both
  tiers;
* the warm-seeded, solve-skipping period selection returns results
  byte-equal to the cold loop of ``repro.batch.reference`` with no more
  ``analysis_calls``;
* the persistent-pool execution cannot change results: ``n_jobs``,
  ``chunk_size`` and resume are invariant through the reused pool, and a
  crashed worker is survived by one pool rebuild.
"""

import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.batch.orchestrator import SweepOrchestrator, build_specs
from repro.batch.reference import (
    reference_evaluate_one,
    reference_select_periods,
)
from repro.batch.service import BatchDesignService
from repro.core.period_selection import select_periods
from repro.errors import AllocationError
from repro.exec import PersistentPool, slice_evenly
from repro.experiments.config import ExperimentConfig
from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet
from repro.partitioning.heuristics import partition_rt_tasks
from repro.rta import DEFAULT_KERNEL, RtaContext
from repro.rta.vectorized import partition_column

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def rt_tasksets(draw):
    """An RT(+security) task set, including zero-slack tasks
    (``wcet == deadline``) and sets too heavy to partition."""
    num_rt = draw(st.integers(min_value=1, max_value=8))
    rt_tasks = []
    for index in range(num_rt):
        period = draw(st.integers(min_value=6, max_value=80))
        wcet = draw(st.integers(min_value=1, max_value=period))
        deadline = draw(st.integers(min_value=wcet, max_value=period))
        rt_tasks.append(
            RealTimeTask(
                name=f"rt{index}", wcet=wcet, period=period, deadline=deadline
            )
        )
    num_security = draw(st.integers(min_value=0, max_value=3))
    security = [
        SecurityTask(
            name=f"sec{index}",
            wcet=draw(st.integers(min_value=1, max_value=6)),
            max_period=draw(st.integers(min_value=60, max_value=240)),
        )
        for index in range(num_security)
    ]
    return TaskSet.create(rt_tasks, security)


@st.composite
def taskset_columns(draw):
    """A column of 1..5 task sets on one platform (incl. degenerate size 1)."""
    num_cores = draw(st.integers(min_value=1, max_value=4))
    size = draw(st.integers(min_value=1, max_value=5))
    return Platform(num_cores=num_cores), [
        draw(rt_tasksets()) for _ in range(size)
    ]


# ---------------------------------------------------------------------------
# Column partitioning
# ---------------------------------------------------------------------------


def _overloaded_taskset():
    """Three RT tasks at utilization 0.9: more than two cores can hold."""
    return TaskSet.create(
        [RealTimeTask(name=f"rt{index}", wcet=9, period=10) for index in range(3)],
        [],
    )


class TestColumnScreenDifferential:
    @given(taskset_columns())
    @example((Platform(num_cores=2), [_overloaded_taskset()]))
    @settings(max_examples=100, deadline=None)
    def test_partition_column_equals_scalar_packing(self, data):
        platform, tasksets = data
        # The column runs on the python tier, the per-set packing on the
        # default tier.
        contexts = [RtaContext(platform, kernel="python") for _ in tasksets]
        column = partition_column(tasksets, platform, contexts)
        for taskset, result in zip(tasksets, column):
            try:
                scalar = partition_rt_tasks(
                    taskset, platform, rta_context=RtaContext(platform)
                )
            except AllocationError:
                scalar = None
            if scalar is None:
                assert result is None
            else:
                assert result is not None
                assert result.mapping == scalar.mapping

    @pytest.mark.parametrize("kernel", ["python", DEFAULT_KERNEL])
    def test_screen_rejects_overloaded_single_set_column(self, kernel):
        """Degenerate one-set column whose total RT utilization exceeds the
        core count: the set fits nowhere, so its verdict is ``None`` (the
        differential above also runs this column)."""
        platform = Platform(num_cores=2)
        context = RtaContext(platform, kernel=kernel)
        assert partition_column([_overloaded_taskset()], platform, [context]) == [
            None
        ]

    @pytest.mark.parametrize("kernel", ["python", DEFAULT_KERNEL])
    def test_contexts_must_pair_with_tasksets(self, kernel):
        """One context per task set: a shorter or longer list is a one-line
        error naming both lengths, not a silently dropped verdict."""
        platform = Platform(num_cores=2)
        taskset = TaskSet.create(
            [RealTimeTask(name="rt0", wcet=1, period=10)], []
        )
        with pytest.raises(ValueError, match="2 task sets and 1 contexts"):
            partition_column(
                [taskset, taskset], platform, [RtaContext(platform, kernel=kernel)]
            )
        with pytest.raises(ValueError, match="1 task sets and 2 contexts"):
            partition_column(
                [taskset],
                platform,
                [RtaContext(platform, kernel=kernel) for _ in range(2)],
            )


# ---------------------------------------------------------------------------
# Warm-seeded period selection
# ---------------------------------------------------------------------------


@st.composite
def schedulable_partitions(draw):
    """A generated-and-partitioned task set (the selector's real input)."""
    seed = draw(st.integers(min_value=0, max_value=2**31))
    group = draw(st.integers(min_value=0, max_value=6))
    service = BatchDesignService(2, scheme_names=("HYDRA-C",))
    spec_range = (0.01 + 0.1 * group, 0.1 + 0.1 * group)
    from repro.batch.service import TasksetSpec

    generated = service.generate(
        TasksetSpec(
            job_index=0, group_index=group, normalized_range=spec_range, seed=seed
        )
    )
    if generated is None:
        return None
    return generated


class TestWarmStartDifferential:
    @given(schedulable_partitions())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_warm_selection_equals_cold_and_frozen(self, generated):
        if generated is None:
            return
        taskset, allocation = generated
        platform = Platform(num_cores=2)
        warm = select_periods(
            taskset, allocation.mapping, platform, rta_context=RtaContext(2)
        )
        frozen = reference_select_periods(
            taskset, allocation.mapping, platform
        )
        # Seeding shortens iterations; pinning and Line-8 reuse may *skip*
        # solves outright, so analysis_calls only shrink against the cold
        # frozen loop.  Every result field stays byte-equal.
        assert warm.schedulable == frozen.schedulable
        assert warm.periods == frozen.periods
        assert warm.response_times == frozen.response_times
        assert warm.unschedulable_task == frozen.unschedulable_task
        assert warm.analysis_calls <= frozen.analysis_calls


# ---------------------------------------------------------------------------
# Full column pipeline vs per-spec and frozen reference
# ---------------------------------------------------------------------------


class TestColumnPipeline:
    @pytest.fixture(scope="class")
    def config(self):
        return ExperimentConfig(
            num_cores=2,
            tasksets_per_group=2,
            utilization_groups=((0.05, 0.2), (0.45, 0.6), (0.75, 0.9)),
            seed=90125,
            schemes=("HYDRA-C", "HYDRA"),
        )

    @pytest.mark.parametrize("kernel", ["python", DEFAULT_KERNEL])
    def test_column_equals_per_spec_and_frozen_reference(self, config, kernel):
        service = BatchDesignService(
            config.num_cores, scheme_names=config.schemes, kernel=kernel
        )
        specs = build_specs(config)
        column = service.evaluate_specs(specs)
        per_spec = [service.evaluate_spec(spec) for spec in specs]
        frozen = [
            reference_evaluate_one(
                config.num_cores,
                spec.group_index,
                spec.normalized_range,
                spec.seed,
                scheme_names=config.schemes,
            )
            for spec in specs
        ]
        assert column == per_spec == frozen

    def test_single_spec_degenerate_column(self, config):
        service = BatchDesignService(
            config.num_cores, scheme_names=config.schemes
        )
        spec = build_specs(config)[0]
        assert service.evaluate_specs([spec]) == [service.evaluate_spec(spec)]

    def test_column_stats_are_populated(self, config):
        # The per-probe quick-accepts are python-tier layers.
        service = BatchDesignService(
            config.num_cores, scheme_names=config.schemes, kernel="python"
        )
        sink = {}
        service.evaluate_specs(build_specs(config), stats_sink=sink)
        assert sink["exact_solves"] > 0
        assert sink["seeded_solves"] > 0
        assert sink["ll_accepts"] + sink["bound_accepts"] > 0


# ---------------------------------------------------------------------------
# Persistent-pool determinism and crash recovery
# ---------------------------------------------------------------------------


def _double(value):
    return value * 2


def _crash_once(payload):
    flag_path, value = payload
    # Removing the flag is the atomic claim: of two workers that reach it
    # together, exactly one crashes (an exists-then-remove check let the
    # second one fail with FileNotFoundError instead).
    try:
        os.remove(flag_path)
    except FileNotFoundError:
        return value * 2
    os._exit(17)


class TestPersistentPoolExecution:
    @pytest.fixture(scope="class")
    def config_kwargs(self):
        return dict(
            num_cores=2,
            tasksets_per_group=2,
            utilization_groups=((0.05, 0.2), (0.45, 0.6)),
            seed=4242,
            schemes=("HYDRA-C", "HYDRA"),
        )

    def test_n_jobs_and_chunk_size_invariance_through_reused_pool(
        self, config_kwargs
    ):
        serial = SweepOrchestrator(
            ExperimentConfig(**config_kwargs, n_jobs=1, chunk_size=3)
        ).run()
        with PersistentPool(2) as pool:
            parallel_a = SweepOrchestrator(
                ExperimentConfig(**config_kwargs, n_jobs=2, chunk_size=2),
                pool=pool,
            ).run()
            parallel_b = SweepOrchestrator(
                ExperimentConfig(**config_kwargs, n_jobs=2, chunk_size=4),
                pool=pool,
            ).run()
            assert pool.active  # both runs shared one live pool
        assert serial.evaluations == parallel_a.evaluations
        assert serial.evaluations == parallel_b.evaluations

    def test_resume_through_reused_pool(self, config_kwargs, tmp_path):
        checkpoint = tmp_path / "resume.jsonl"
        config = ExperimentConfig(
            **config_kwargs,
            n_jobs=2,
            chunk_size=1,
            checkpoint_path=str(checkpoint),
        )
        full = SweepOrchestrator(
            ExperimentConfig(**config_kwargs, n_jobs=1)
        ).run()

        class StopAfterTwo(Exception):
            pass

        chunks_done = []

        def progress(update):
            chunks_done.append(update)
            if len(chunks_done) == 2:
                raise StopAfterTwo

        with PersistentPool(2) as pool:
            with pytest.raises(StopAfterTwo):
                SweepOrchestrator(config, progress=progress, pool=pool).run()
            resumed = SweepOrchestrator(config, pool=pool).run()
        assert resumed.evaluations == full.evaluations

    def test_worker_crash_rebuilds_pool_and_retries(self, tmp_path):
        flag = tmp_path / "crash-once"
        flag.write_text("arm")
        with PersistentPool(2) as pool:
            results = pool.map_chunk(
                _crash_once, [(str(flag), value) for value in range(4)]
            )
            assert results == [0, 2, 4, 6]
            assert pool.rebuilds == 1
            # pool remains usable after the rebuild
            assert pool.map_chunk(_double, [5]) == [10]

    def test_deterministic_crash_eventually_propagates(self, tmp_path):
        flag = tmp_path / "crash-always"

        def rearm_and_run():
            flag.write_text("arm")

        with PersistentPool(1, max_rebuilds=0) as pool:
            flag.write_text("arm")
            with pytest.raises(Exception):
                pool.map_chunk(_crash_once, [(str(flag), 1)])
        assert pool.closed

    def test_slice_evenly_preserves_order_and_balance(self):
        items = list(range(10))
        slices = slice_evenly(items, 4)
        assert [len(chunk) for chunk in slices] == [3, 3, 2, 2]
        assert [item for chunk in slices for item in chunk] == items
        assert slice_evenly([], 3) == []
        assert slice_evenly([1], 5) == [[1]]
