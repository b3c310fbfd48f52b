"""Unit tests for the TaskSet container."""

import pytest

from repro.model import RealTimeTask, SecurityTask, TaskSet
from repro.model.priority import RT_PRIORITY_BAND


def make_taskset():
    return TaskSet.create(
        [
            RealTimeTask(name="slow", wcet=10, period=100),
            RealTimeTask(name="fast", wcet=1, period=10),
        ],
        [
            SecurityTask(name="ids-a", wcet=2, max_period=50),
            SecurityTask(name="ids-b", wcet=3, max_period=80),
        ],
    )


class TestConstruction:
    def test_create_assigns_rm_priorities(self):
        taskset = make_taskset()
        assert taskset.rt_task("fast").priority < taskset.rt_task("slow").priority

    def test_create_assigns_security_priorities_in_listed_order(self):
        taskset = make_taskset()
        assert (
            taskset.security_task("ids-a").priority
            < taskset.security_task("ids-b").priority
        )

    def test_security_priorities_above_rt_band(self):
        taskset = make_taskset()
        for task in taskset.security_tasks:
            assert task.priority >= RT_PRIORITY_BAND

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TaskSet.create(
                [RealTimeTask(name="x", wcet=1, period=10)],
                [SecurityTask(name="x", wcet=1, max_period=20)],
            )
        # A duplicate inside one population, with the raw constructor (the
        # priority helpers behind ``create`` reject it first).
        rt = tuple(
            RealTimeTask(name=name, wcet=1, period=10, priority=priority)
            for priority, name in enumerate(["a", "b", "a"])
        )
        with pytest.raises(ValueError, match=r"duplicate task names: \['a'\]$"):
            TaskSet(rt_tasks=rt)
        # A triple duplicate across both populations is reported once, and
        # every duplicated name appears, sorted.
        rt = tuple(
            RealTimeTask(name=name, wcet=1, period=10, priority=priority)
            for priority, name in enumerate(["z", "z", "m", "c"])
        )
        sec = tuple(
            SecurityTask(name=name, wcet=1, max_period=20, priority=100 + index)
            for index, name in enumerate(["z", "m", "d"])
        )
        with pytest.raises(
            ValueError, match=r"duplicate task names: \['m', 'z'\]$"
        ):
            TaskSet(rt_tasks=rt, security_tasks=sec)

    def test_missing_priority_rejected_by_raw_constructor(self):
        with pytest.raises(ValueError, match="no priority"):
            TaskSet(rt_tasks=(RealTimeTask(name="x", wcet=1, period=10),))

    def test_rt_must_outrank_security(self):
        rt = RealTimeTask(name="rt", wcet=1, period=10, priority=5)
        sec = SecurityTask(name="sec", wcet=1, max_period=20, priority=3)
        with pytest.raises(ValueError, match="higher priority"):
            TaskSet(rt_tasks=(rt,), security_tasks=(sec,))

    def test_empty_taskset_allowed(self):
        assert len(TaskSet.create([], [])) == 0


class TestAccessors:
    def test_lookup_by_name(self):
        taskset = make_taskset()
        assert taskset.task("fast").wcet == 1
        assert taskset.rt_task("slow").period == 100
        assert taskset.security_task("ids-b").max_period == 80

    def test_unknown_name_raises(self):
        taskset = make_taskset()
        with pytest.raises(KeyError):
            taskset.task("nope")
        with pytest.raises(KeyError):
            taskset.rt_task("ids-a")
        with pytest.raises(KeyError):
            taskset.security_task("fast")

    def test_len_and_iteration(self):
        taskset = make_taskset()
        assert len(taskset) == 4
        assert {task.name for task in taskset} == {"slow", "fast", "ids-a", "ids-b"}

    def test_priority_ordered_views(self):
        taskset = make_taskset()
        assert [t.name for t in taskset.rt_by_priority()] == ["fast", "slow"]
        assert [t.name for t in taskset.security_by_priority()] == ["ids-a", "ids-b"]

    def test_higher_and_lower_priority_security(self):
        taskset = make_taskset()
        ids_b = taskset.security_task("ids-b")
        assert [t.name for t in taskset.higher_priority_security(ids_b)] == ["ids-a"]
        ids_a = taskset.security_task("ids-a")
        assert [t.name for t in taskset.lower_priority_security(ids_a)] == ["ids-b"]


class TestUtilization:
    def test_rt_utilization(self):
        taskset = make_taskset()
        assert taskset.rt_utilization == pytest.approx(0.1 + 0.1)

    def test_security_min_utilization(self):
        taskset = make_taskset()
        assert taskset.security_min_utilization == pytest.approx(2 / 50 + 3 / 80)

    def test_minimum_utilization_is_paper_u(self):
        taskset = make_taskset()
        assert taskset.minimum_utilization == pytest.approx(
            taskset.rt_utilization + taskset.security_min_utilization
        )

    def test_normalized_utilization(self):
        taskset = make_taskset()
        assert taskset.normalized_utilization(2) == pytest.approx(
            taskset.minimum_utilization / 2
        )

    def test_normalized_utilization_rejects_bad_cores(self):
        with pytest.raises(ValueError):
            make_taskset().normalized_utilization(0)


class TestTransformations:
    def test_with_security_periods(self):
        taskset = make_taskset()
        adapted = taskset.with_security_periods({"ids-a": 10, "ids-b": 40})
        assert adapted.security_task("ids-a").period == 10
        assert adapted.security_task("ids-b").period == 40
        # original untouched
        assert taskset.security_task("ids-a").period is None

    def test_with_security_periods_partial(self):
        taskset = make_taskset()
        adapted = taskset.with_security_periods({"ids-a": 10})
        assert adapted.security_task("ids-a").period == 10
        assert adapted.security_task("ids-b").period is None

    def test_with_security_periods_unknown_task(self):
        with pytest.raises(KeyError):
            make_taskset().with_security_periods({"ghost": 10})

    def test_transformations_equal_validated_construction(self):
        taskset = make_taskset()
        for derived in (
            taskset.with_security_periods({"ids-a": 20}),
            taskset.with_security_at_max_period(),
            taskset.without_security_periods(),
        ):
            rebuilt = TaskSet(
                rt_tasks=derived.rt_tasks, security_tasks=derived.security_tasks
            )
            assert derived == rebuilt
            assert hash(derived) == hash(rebuilt)
            assert type(derived) is TaskSet

    def test_with_security_at_max_period(self):
        pinned = make_taskset().with_security_at_max_period()
        assert pinned.security_task("ids-a").period == 50
        assert pinned.security_task("ids-b").period == 80

    def test_without_security_periods(self):
        taskset = make_taskset().with_security_at_max_period()
        cleared = taskset.without_security_periods()
        assert all(task.period is None for task in cleared.security_tasks)

    def test_period_vectors(self):
        taskset = make_taskset().with_security_periods({"ids-a": 10})
        assert taskset.security_period_vector() == {"ids-a": 10, "ids-b": None}
        assert taskset.security_max_period_vector() == {"ids-a": 50, "ids-b": 80}

    def test_summary_contains_every_task(self):
        text = make_taskset().summary()
        for name in ("slow", "fast", "ids-a", "ids-b"):
            assert name in text
