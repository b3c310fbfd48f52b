"""The accept-only admission shortcuts can never flip an admission outcome.

The kernel's Liu & Layland and Bini-bound shortcuts skip the exact Eq. 1
fixed point when they already prove schedulability.  Both are *sufficient*
tests, so the only way they could change behaviour is by accepting a task
the exact analysis rejects -- these suites pin that they never do, by
running the same admission streams with the shortcuts enabled and
disabled, and against the frozen reference analysis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.reference import reference_partition_rt_tasks
from repro.errors import AllocationError
from repro.generation.taskset_generator import (
    TasksetGenerationConfig,
    TasksetGenerator,
)
from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet
from repro.model.tasks import ResourceClaim
from repro.partitioning.heuristics import FitStrategy, partition_rt_tasks
from repro.platform import PlatformModel
from repro.rta import RtaContext, TaskView
from repro.rta.vectorized import partition_column
from repro.rover.case_study import rover_taskset
from repro.schedulability.uniprocessor import (
    UniprocessorTask,
    core_is_schedulable,
    liu_layland_bound,
    response_time_upper_bound,
)


@st.composite
def task_views(draw, index):
    period = draw(st.integers(min_value=2, max_value=60))
    wcet = draw(st.integers(min_value=1, max_value=period))
    implicit = draw(st.booleans())
    deadline = (
        period if implicit else draw(st.integers(min_value=wcet, max_value=period))
    )
    return TaskView(
        name=f"t{index}",
        wcet=wcet,
        period=period,
        deadline=deadline,
        key=(period, f"t{index}"),
    )


@st.composite
def admission_streams(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    views = [draw(task_views(index)) for index in range(count)]
    # Priority order = RM by (period, name); zero-slack and overloaded
    # streams arise naturally from wcet == period draws.
    return sorted(views, key=lambda v: v.key)


def run_stream(views, quick_accept):
    """Admit *views* in order; return per-step verdicts and the context."""
    context = RtaContext(2, quick_accept=quick_accept)
    state = context.core_state()
    verdicts = []
    for v in views:
        admission = state.admit(v)
        verdicts.append(admission.admitted)
        if admission.admitted:
            state = admission.state
        else:
            break
    return verdicts, context


class TestShortcutsNeverFlipAdmission:
    @given(admission_streams())
    @settings(max_examples=200, deadline=None)
    def test_quick_accept_on_equals_off(self, views):
        with_shortcuts, _ = run_stream(views, quick_accept=True)
        without, _ = run_stream(views, quick_accept=False)
        assert with_shortcuts == without

    @given(admission_streams())
    @settings(max_examples=200, deadline=None)
    def test_quick_accept_equals_frozen_full_analysis(self, views):
        verdicts, _ = run_stream(views, quick_accept=True)
        frozen = [
            UniprocessorTask(v.name, v.wcet, v.period, v.deadline) for v in views
        ]
        # Every verdict in the stream (all-admitted prefixes plus the first
        # rejection, where the loop stops) must match the frozen whole-core
        # analysis of the same prefix.
        for step, verdict in enumerate(verdicts):
            assert verdict == core_is_schedulable(frozen[: step + 1]), (views, step)

    def test_shortcuts_fire_on_real_workloads(self):
        """The shortcuts are not dead code: a representative Table-3 stream
        takes both the LL and the bound fast path at least once."""
        generator = TasksetGenerator(
            TasksetGenerationConfig(num_cores=2), seed=99
        )
        # The shortcuts are python-tier layers: the compiled tier packs a
        # task set in one exact C call.
        context = RtaContext(2, kernel="python")
        platform = Platform.dual_core()
        fired_sets = 0
        for normalized in (0.2, 0.35, 0.5, 0.65):
            taskset = generator.generate_normalized(normalized)
            try:
                partition_rt_tasks(taskset, platform, rta_context=context)
            except AllocationError:
                continue
            fired_sets += 1
        assert fired_sets > 0
        assert context.stats.ll_accepts > 0
        assert context.stats.quick_accepts > 0


def run_stream_with_blocking(views, quick_accept, blocking):
    """Like :func:`run_stream` with per-task blocking terms installed."""
    context = RtaContext(2, quick_accept=quick_accept)
    context._blocking = dict(blocking)
    state = context.core_state()
    verdicts = []
    for v in views:
        admission = state.admit(v)
        verdicts.append(admission.admitted)
        if admission.admitted:
            state = admission.state
        else:
            break
    return verdicts, context


class TestBlockingAwareShortcuts:
    """The shortcut disable keys on the blocking terms actually in play.

    A lock-using protocol over a claim-annotated task set used to disable
    the LL/Bini quick-accepts wholesale.  The disable now keys on each
    task's *own* term being non-zero (plus, for the whole-core LL accept,
    any term on the core), so the common cases
    -- protocol ``none`` with claims, ``pip``/``pcp`` with claim-free task
    sets, and claims confined to security tasks -- keep the full fast
    path, while verdicts stay flip-free whenever terms really are in play.
    """

    @given(
        admission_streams(),
        st.dictionaries(
            st.integers(min_value=0, max_value=7).map(lambda i: f"t{i}"),
            st.integers(min_value=1, max_value=30),
            max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_flip_with_blocking_terms_in_play(self, views, blocking):
        """Per-task keying can never flip an admission stream's verdicts."""
        with_shortcuts, _ = run_stream_with_blocking(
            views, quick_accept=True, blocking=blocking
        )
        without, _ = run_stream_with_blocking(
            views, quick_accept=False, blocking=blocking
        )
        assert with_shortcuts == without

    def test_zero_term_candidates_keep_the_shortcuts(self):
        """Terms on *other* cores' tasks must not starve the fast path: a
        stream whose entries all have zero terms quick-accepts exactly as
        if no blocking existed (the installed terms name absent tasks)."""
        views = [
            TaskView(name=f"t{i}", wcet=1, period=10 + i, deadline=10 + i,
                     key=(10 + i, f"t{i}"))
            for i in range(3)
        ]
        clean, clean_context = run_stream_with_blocking(
            views, quick_accept=True, blocking={}
        )
        keyed, keyed_context = run_stream_with_blocking(
            views, quick_accept=True, blocking={"someone-else": 25}
        )
        assert clean == keyed == [True, True, True]
        assert keyed_context.stats.ll_accepts == clean_context.stats.ll_accepts
        assert keyed_context.stats.ll_accepts > 0

    def test_candidate_own_term_disables_its_bound_accept(self):
        """A candidate carrying a term takes the exact fixed point (its
        blocking-blind bound is unsound for it), yet the verdict matches
        the shortcut-free run."""
        views = [
            TaskView(name=f"t{i}", wcet=2, period=20 + i, deadline=20 + i,
                     key=(20 + i, f"t{i}"))
            for i in range(3)
        ]
        blocking = {"t1": 5}
        keyed, keyed_context = run_stream_with_blocking(
            views, quick_accept=True, blocking=blocking
        )
        exact, _ = run_stream_with_blocking(
            views, quick_accept=False, blocking=blocking
        )
        assert keyed == exact
        clean, clean_context = run_stream_with_blocking(
            views, quick_accept=True, blocking={}
        )
        assert keyed_context.stats.ll_accepts < clean_context.stats.ll_accepts

    def test_rover_under_pip_keeps_rt_partitioning_shortcuts(self):
        """The PR 8 regression case: the rover's claims sit on its security
        tasks only, so under ``pip`` the RT partitioning must still take
        the quick-accepts (RT terms are provably zero)."""
        taskset = rover_taskset()
        platform = Platform.dual_core()
        # The shortcuts are python-tier layers (see above).
        context = RtaContext(
            platform,
            kernel="python",
            platform_model=PlatformModel.parse("rm", "pip", "zero"),
        )
        context.prime_blocking(taskset)
        assert context.has_blocking  # pip really is in play...
        allocation = partition_rt_tasks(taskset, platform, rta_context=context)
        # ...yet the zero-term RT tasks keep the fast path.
        assert context.stats.quick_accepts + context.stats.ll_accepts > 0
        baseline = partition_rt_tasks(
            taskset, platform, rta_context=RtaContext(platform)
        )
        assert allocation.mapping == baseline.mapping

    def test_protocol_none_with_claims_has_no_terms_at_all(self):
        """Claims under the default protocol never reach the context."""
        context = RtaContext(
            2, platform_model=PlatformModel.parse("rm", "none", "zero")
        )
        context.prime_blocking(rover_taskset())
        assert not context.has_blocking

    def test_partition_column_splits_mixed_blocking_columns(self):
        """A python-tier column mixing term-carrying and term-free task
        sets reproduces the default tier's per-set packing."""
        claimed = TaskSet.create(
            [
                RealTimeTask(
                    name="rt-a", wcet=40, period=200,
                    claims=(ResourceClaim("bus", start=0, duration=10),),
                ),
                RealTimeTask(
                    name="rt-b", wcet=60, period=400,
                    claims=(ResourceClaim("bus", start=5, duration=20),),
                ),
            ],
            [],
        )
        clean = TaskSet.create(
            [
                RealTimeTask(name="rt-c", wcet=30, period=150),
                RealTimeTask(name="rt-d", wcet=50, period=300),
            ],
            [],
        )
        platform = Platform.dual_core()
        pip = PlatformModel.parse("rm", "pip", "zero")
        tasksets = [claimed, clean, claimed]
        contexts = [
            RtaContext(platform, platform_model=pip, kernel="python")
            for _ in tasksets
        ]
        column = partition_column(tasksets, platform, contexts)
        for taskset, result in zip(tasksets, column):
            scalar_context = RtaContext(platform, platform_model=pip)
            scalar_context.prime_blocking(taskset)
            try:
                scalar = partition_rt_tasks(
                    taskset, platform, rta_context=scalar_context
                )
            except AllocationError:
                scalar = None
            if scalar is None:
                assert result is None
            else:
                assert result is not None
                assert result.mapping == scalar.mapping


class TestBoundSoundness:
    """The wired-in bounds themselves stay sound oracles."""

    @given(admission_streams())
    @settings(max_examples=150, deadline=None)
    def test_exact_response_never_exceeds_bini_bound(self, views):
        context = RtaContext(2, quick_accept=False)
        state = context.core_state()
        for v in views:
            prefix = [
                UniprocessorTask(p.name, p.wcet, p.period, p.deadline)
                for p in state.tasks
            ]
            bound = response_time_upper_bound(v.wcet, prefix)
            admission = state.admit(v, need_response=True)
            if bound is not None and admission.admitted:
                assert admission.response <= bound
            if not admission.admitted:
                break
            state = admission.state

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_ll_bound_is_decreasing_toward_ln2(self, n):
        assert 0.6931 < liu_layland_bound(n) <= 1.0
        if n > 1:
            assert liu_layland_bound(n) < liu_layland_bound(n - 1)


class TestPartitioningDecisionsUnchanged:
    """Kernel partitioning (shortcuts on) = frozen full-re-analysis packing."""

    @pytest.mark.parametrize("seed", [7, 21, 1303])
    def test_best_fit_partitions_match_the_frozen_reference(self, seed):
        generator = TasksetGenerator(
            TasksetGenerationConfig(num_cores=2), seed=seed
        )
        platform = Platform.dual_core()
        rng = np.random.default_rng(seed)
        compared = 0
        for _ in range(12):
            taskset = generator.generate_normalized(float(rng.uniform(0.1, 0.9)))
            try:
                frozen = reference_partition_rt_tasks(taskset, platform)
            except AllocationError:
                with pytest.raises(AllocationError):
                    partition_rt_tasks(taskset, platform)
                continue
            kernel = partition_rt_tasks(taskset, platform)
            assert kernel.mapping == frozen.mapping
            compared += 1
        assert compared > 0

    @pytest.mark.parametrize(
        "strategy", [FitStrategy.FIRST_FIT, FitStrategy.BEST_FIT, FitStrategy.WORST_FIT]
    )
    def test_strategies_agree_with_and_without_shortcuts(self, strategy):
        generator = TasksetGenerator(
            TasksetGenerationConfig(num_cores=4), seed=55
        )
        platform = Platform.quad_core()
        for normalized in (0.25, 0.5, 0.75):
            taskset = generator.generate_normalized(normalized)
            outcomes = []
            for quick in (True, False):
                try:
                    allocation = partition_rt_tasks(
                        taskset,
                        platform,
                        strategy=strategy,
                        # The shortcuts are python-tier layers.
                        rta_context=RtaContext(
                            platform, quick_accept=quick, kernel="python"
                        ),
                    )
                    outcomes.append(allocation.mapping)
                except AllocationError:
                    outcomes.append(None)
            assert outcomes[0] == outcomes[1]
