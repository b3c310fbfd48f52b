"""Unit tests for the task value objects."""

import dataclasses

import pytest

from repro.model.tasks import Job, RealTimeTask, ResourceClaim, SecurityTask


class TestRealTimeTask:
    def test_basic_construction(self):
        task = RealTimeTask(name="nav", wcet=240, period=500)
        assert task.wcet == 240
        assert task.period == 500
        assert task.deadline == 500  # implicit deadline defaults to the period
        assert task.priority is None

    def test_utilization(self):
        task = RealTimeTask(name="nav", wcet=240, period=500)
        assert task.utilization == pytest.approx(0.48)

    def test_density_uses_deadline(self):
        task = RealTimeTask(name="t", wcet=10, period=100, deadline=50)
        assert task.density == pytest.approx(0.2)

    def test_is_real_time_flag(self):
        assert RealTimeTask(name="t", wcet=1, period=2).is_real_time is True

    def test_explicit_constrained_deadline(self):
        task = RealTimeTask(name="t", wcet=5, period=20, deadline=10)
        assert task.deadline == 10

    def test_deadline_larger_than_period_rejected(self):
        with pytest.raises(ValueError, match="constrained deadline"):
            RealTimeTask(name="t", wcet=5, period=20, deadline=25)

    def test_wcet_exceeding_deadline_rejected(self):
        with pytest.raises(ValueError, match="trivially unschedulable"):
            RealTimeTask(name="t", wcet=15, period=20, deadline=10)

    @pytest.mark.parametrize("wcet", [0, -1])
    def test_non_positive_wcet_rejected(self, wcet):
        with pytest.raises(ValueError):
            RealTimeTask(name="t", wcet=wcet, period=10)

    def test_non_integer_wcet_rejected(self):
        with pytest.raises(TypeError):
            RealTimeTask(name="t", wcet=1.5, period=10)

    def test_boolean_wcet_rejected(self):
        with pytest.raises(TypeError):
            RealTimeTask(name="t", wcet=True, period=10)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RealTimeTask(name="", wcet=1, period=10)

    def test_with_priority_returns_new_object(self):
        task = RealTimeTask(name="t", wcet=1, period=10)
        prioritized = task.with_priority(3)
        assert prioritized.priority == 3
        assert task.priority is None
        assert prioritized is not task

    def test_frozen(self):
        task = RealTimeTask(name="t", wcet=1, period=10)
        with pytest.raises(AttributeError):
            task.wcet = 2


class TestSecurityTask:
    def test_basic_construction(self):
        task = SecurityTask(name="ids", wcet=5, max_period=100)
        assert task.period is None
        assert task.effective_period == 100
        assert task.is_real_time is False

    def test_effective_period_prefers_assigned(self):
        task = SecurityTask(name="ids", wcet=5, max_period=100, period=40)
        assert task.effective_period == 40

    def test_utilization_at_effective_period(self):
        task = SecurityTask(name="ids", wcet=5, max_period=100, period=50)
        assert task.utilization == pytest.approx(0.1)
        assert task.min_utilization == pytest.approx(0.05)

    def test_monitoring_frequency(self):
        task = SecurityTask(name="ids", wcet=5, max_period=100, period=20)
        assert task.monitoring_frequency == pytest.approx(0.05)

    def test_with_period(self):
        task = SecurityTask(name="ids", wcet=5, max_period=100)
        assigned = task.with_period(60)
        assert assigned.period == 60
        assert task.period is None

    def test_without_period(self):
        task = SecurityTask(name="ids", wcet=5, max_period=100, period=60)
        assert task.without_period().period is None

    def test_at_max_period(self):
        task = SecurityTask(name="ids", wcet=5, max_period=100)
        assert task.at_max_period().period == 100

    def test_period_above_max_rejected(self):
        with pytest.raises(ValueError, match="exceeds max_period"):
            SecurityTask(name="ids", wcet=5, max_period=100, period=120)

    def test_period_below_wcet_rejected(self):
        with pytest.raises(ValueError, match="smaller than wcet"):
            SecurityTask(name="ids", wcet=5, max_period=100, period=4)

    def test_wcet_above_max_period_rejected(self):
        with pytest.raises(ValueError, match="no feasible period"):
            SecurityTask(name="ids", wcet=200, max_period=100)

    def test_coverage_units_must_be_positive(self):
        with pytest.raises(ValueError):
            SecurityTask(name="ids", wcet=5, max_period=100, coverage_units=0)


def _same_error(copy, rebuild):
    """Both callables raise the same exception type and message."""
    with pytest.raises(Exception) as copied:
        copy()
    with pytest.raises(Exception) as rebuilt:
        rebuild()
    assert type(copied.value) is type(rebuilt.value)
    assert str(copied.value) == str(rebuilt.value)


class TestCopies:
    """``with_priority``/``with_period``/``at_max_period`` copy without
    re-validating the unchanged fields; the result must equal
    :func:`dataclasses.replace`, and bad values must fail the same way."""

    claims = (ResourceClaim("bus", 3, 2), ResourceClaim("can", 0, 1))

    def tasks(self):
        return [
            RealTimeTask(name="rt", wcet=6, period=40, deadline=30),
            RealTimeTask(name="rt-locks", wcet=6, period=40, claims=self.claims),
            SecurityTask(name="ids", wcet=5, max_period=100, coverage_units=7),
            SecurityTask(
                name="ids-set", wcet=5, max_period=100, period=60, priority=7,
                claims=self.claims,
            ),
        ]

    @staticmethod
    def assert_same(copy, rebuilt):
        assert copy == rebuilt
        assert hash(copy) == hash(rebuilt)
        assert type(copy) is type(rebuilt)
        assert vars(copy) == vars(rebuilt)

    def test_with_priority_equals_replace(self):
        for task in self.tasks():
            for priority in (0, 3, 1_000_007, None):
                self.assert_same(
                    task.with_priority(priority),
                    dataclasses.replace(task, priority=priority),
                )

    def test_with_period_and_at_max_period_equal_replace(self):
        for task in self.tasks()[2:]:
            for period in (5, 60, 100, None):
                self.assert_same(
                    task.with_period(period),
                    dataclasses.replace(task, period=period),
                )
            self.assert_same(
                task.at_max_period(),
                dataclasses.replace(task, period=task.max_period),
            )
            self.assert_same(
                task.without_period(), dataclasses.replace(task, period=None)
            )

    def test_copies_leave_the_original_alone(self):
        task = SecurityTask(name="ids", wcet=5, max_period=100, priority=2)
        task.with_period(50)
        task.with_priority(9)
        assert task.period is None and task.priority == 2

    @pytest.mark.parametrize("priority", [-1, 1.5, "1", True])
    def test_bad_priority_fails_like_replace(self, priority):
        for task in self.tasks():
            _same_error(
                lambda: task.with_priority(priority),
                lambda: dataclasses.replace(task, priority=priority),
            )

    @pytest.mark.parametrize("period", [0, -3, 4, 101, 60.0, False])
    def test_bad_period_fails_like_replace(self, period):
        for task in self.tasks()[2:]:
            _same_error(
                lambda: task.with_period(period),
                lambda: dataclasses.replace(task, period=period),
            )


class TestJob:
    def test_job_id(self):
        job = Job(task_name="camera", index=3, release_time=15000, wcet=1120)
        assert job.job_id == "camera#3"

    def test_deadline_must_follow_release(self):
        with pytest.raises(ValueError):
            Job(task_name="t", index=0, release_time=10, wcet=1, absolute_deadline=10)

    def test_negative_release_rejected(self):
        with pytest.raises(ValueError):
            Job(task_name="t", index=0, release_time=-1, wcet=1)
