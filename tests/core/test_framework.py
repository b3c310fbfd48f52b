"""Unit tests for the HydraC facade and SystemDesign."""

import pytest

from repro.core.framework import HydraC, SchedulingPolicy, SystemDesign
from repro.errors import UnschedulableError
from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet
from repro.rta import RtaContext
from repro.rta.compiled import CompiledKernel, kernel_available


class TestHydraCDesign:
    def test_rover_design(self, rover, rover_allocation, dual_core):
        design = HydraC(dual_core).design(rover, rover_allocation)
        assert design.schedulable
        assert design.scheme == "HYDRA-C"
        assert design.policy is SchedulingPolicy.SEMI_PARTITIONED
        assert design.security_allocation is None
        assert design.security_periods() == {"tripwire": 7582, "kmod-checker": 2783}
        assert design.rt_allocation.as_dict() == rover_allocation

    def test_auto_rt_partitioning(self, rover, dual_core):
        design = HydraC(dual_core).design(rover)
        assert design.schedulable
        assert set(design.rt_allocation.as_dict()) == {"navigation", "camera"}

    def test_rt_response_times_reported(self, rover, rover_allocation, dual_core):
        design = HydraC(dual_core).design(rover, rover_allocation)
        assert design.response_times["navigation"] == 240
        assert design.response_times["camera"] == 1120

    def test_unschedulable_design(self, dual_core):
        taskset = TaskSet.create(
            [RealTimeTask(name="a", wcet=9, period=10), RealTimeTask(name="b", wcet=9, period=10)],
            [SecurityTask(name="ids", wcet=80, max_period=100)],
        )
        design = HydraC(dual_core).design(taskset, {"a": 0, "b": 1})
        assert not design.schedulable
        assert design.metadata["unschedulable_task"] == "ids"
        with pytest.raises(UnschedulableError):
            design.require_schedulable()

    def test_broken_legacy_partition_raises(self, dual_core):
        taskset = TaskSet.create(
            [RealTimeTask(name="a", wcet=9, period=10), RealTimeTask(name="b", wcet=9, period=10)],
            [],
        )
        with pytest.raises(UnschedulableError, match="legacy RT tasks"):
            HydraC(dual_core).design(taskset, {"a": 0, "b": 0})

    @pytest.mark.skipif(
        not kernel_available(),
        reason="compiled kernel backend unavailable on this machine",
    )
    def test_design_without_a_context_runs_the_compiled_selector(
        self, rover, dual_core, monkeypatch
    ):
        """The context built when none is given sits on the default tier,
        so Algorithms 1-2 run in the loaded C selector."""
        calls = []
        select = CompiledKernel.select_periods

        def spy(self, *args, **kwargs):
            calls.append(args[0])
            return select(self, *args, **kwargs)

        monkeypatch.setattr(CompiledKernel, "select_periods", spy)
        design = HydraC(dual_core).design(rover)
        assert calls == [dual_core.num_cores]
        reference = HydraC(dual_core).design(
            rover, rta_context=RtaContext(dual_core, kernel="python")
        )
        assert len(calls) == 1  # the python tier never enters the C selector
        assert design.security_periods() == reference.security_periods()
        assert design.rt_allocation == reference.rt_allocation

    def test_is_schedulable(self, rover, rover_allocation, dual_core):
        assert HydraC(dual_core).is_schedulable(rover, rover_allocation)

    def test_is_schedulable_false_for_broken_partition(self, dual_core):
        taskset = TaskSet.create(
            [RealTimeTask(name="a", wcet=9, period=10), RealTimeTask(name="b", wcet=9, period=10)],
            [],
        )
        assert not HydraC(dual_core).is_schedulable(taskset, {"a": 0, "b": 0})


class TestSystemDesign:
    def test_require_schedulable_returns_self(self, rover, rover_allocation, dual_core):
        design = HydraC(dual_core).design(rover, rover_allocation)
        assert design.require_schedulable() is design
