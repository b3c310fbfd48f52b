"""Unit tests for the HYDRA and HYDRA-TMax baselines."""

import pytest

from repro.baselines.hydra import Hydra, choose_best_fit_core
from repro.baselines.hydra_tmax import HydraTMax
from repro.core.framework import SchedulingPolicy
from repro.errors import UnschedulableError
from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet
from repro.rta import RtaContext, SecurityPacker
from repro.schedulability.uniprocessor import UniprocessorTask, uniprocessor_response_time


def best_core(task, rt_by_core):
    """HYDRA's best-fit pick for *task* on two cores holding *rt_by_core*."""
    packer = SecurityPacker(RtaContext(2), rt_by_core, 2)
    return choose_best_fit_core(packer.feasible_cores(task))


class TestBestCoreSelection:
    def test_prefers_fullest_feasible_core(self):
        task = SecurityTask(name="ids", wcet=5, max_period=500, priority=10)
        rt_by_core = {
            0: [RealTimeTask(name="light", wcet=1, period=10, priority=0)],
            1: [RealTimeTask(name="heavy", wcet=5, period=10, priority=1)],
        }
        choice = best_core(task, rt_by_core)
        assert choice is not None
        core, response = choice
        assert core == 1  # fullest feasible core (best-fit)
        assert response > 5

    def test_infeasible_core_skipped(self):
        task = SecurityTask(name="ids", wcet=50, max_period=100, priority=10)
        rt_by_core = {
            0: [RealTimeTask(name="hog", wcet=9, period=10, priority=0)],
            1: [RealTimeTask(name="light", wcet=1, period=10, priority=1)],
        }
        choice = best_core(task, rt_by_core)
        assert choice is not None
        assert choice[0] == 1

    def test_none_when_no_core_feasible(self):
        task = SecurityTask(name="ids", wcet=90, max_period=100, priority=10)
        rt_by_core = {
            0: [RealTimeTask(name="a", wcet=5, period=10, priority=0)],
            1: [RealTimeTask(name="b", wcet=5, period=10, priority=1)],
        }
        assert best_core(task, rt_by_core) is None


class TestHydraRover:
    def test_rover_allocation_and_periods(self, rover, rover_allocation, dual_core):
        design = Hydra(dual_core).design(rover, rover_allocation)
        assert design.schedulable
        assert design.policy is SchedulingPolicy.PARTITIONED
        # Both security tasks end up on the camera core (the fullest feasible
        # core for each of them), mirroring the best-fit packing.
        assert design.security_allocation.as_dict() == {
            "tripwire": 1,
            "kmod-checker": 1,
        }
        periods = design.security_periods()
        assert periods["tripwire"] <= 10_000
        assert periods["kmod-checker"] <= 10_000
        # HYDRA-C achieves a shorter (or equal) period for the lower-priority
        # monitor than fully partitioned HYDRA on the rover workload.
        assert periods["kmod-checker"] >= 2783

    def test_periods_respect_uniprocessor_schedulability(self, rover, rover_allocation, dual_core):
        design = Hydra(dual_core).design(rover, rover_allocation)
        periods = design.security_periods()
        camera = UniprocessorTask("camera", wcet=1120, period=5000)
        tripwire = UniprocessorTask("tripwire", wcet=5342, period=periods["tripwire"])
        response = uniprocessor_response_time(
            223, [camera, tripwire], limit=10_000
        )
        assert response is not None and response <= periods["kmod-checker"]


class TestHydraGeneral:
    def test_unschedulable_when_no_core_fits(self, dual_core):
        taskset = TaskSet.create(
            [RealTimeTask(name="a", wcet=8, period=10), RealTimeTask(name="b", wcet=8, period=10)],
            [SecurityTask(name="ids", wcet=90, max_period=120)],
        )
        design = Hydra(dual_core).design(taskset, {"a": 0, "b": 1})
        assert not design.schedulable
        assert design.metadata["unschedulable_task"] == "ids"

    def test_broken_rt_partition_raises(self, dual_core):
        taskset = TaskSet.create(
            [RealTimeTask(name="a", wcet=9, period=10), RealTimeTask(name="b", wcet=9, period=10)],
            [],
        )
        with pytest.raises(UnschedulableError):
            Hydra(dual_core).design(taskset, {"a": 0, "b": 0})

    def test_core_aware_policy_keeps_lower_priority_schedulable(self, dual_core):
        taskset = TaskSet.create(
            [RealTimeTask(name="a", wcet=5, period=10), RealTimeTask(name="b", wcet=5, period=10)],
            [
                SecurityTask(name="hi", wcet=10, max_period=300),
                SecurityTask(name="lo", wcet=40, max_period=100),
            ],
        )
        design = Hydra(dual_core).design(taskset, {"a": 0, "b": 1})
        assert design.schedulable
        for name, response in design.response_times.items():
            assert response is not None, name


class TestHydraTMax:
    def test_periods_pinned_to_maximum(self, rover, rover_allocation, dual_core):
        design = HydraTMax(dual_core).design(rover, rover_allocation)
        assert design.schedulable
        assert design.scheme == "HYDRA-TMax"
        assert set(design.security_periods().values()) == {10_000}

    def test_acceptance_matches_hydra(self, rover, rover_allocation, dual_core):
        assert HydraTMax(dual_core).is_schedulable(rover, rover_allocation) == Hydra(
            dual_core
        ).is_schedulable(rover, rover_allocation)
