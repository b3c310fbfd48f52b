"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet
from repro.rover.case_study import rover_rt_allocation, rover_taskset


@pytest.fixture
def dual_core() -> Platform:
    return Platform.dual_core()


@pytest.fixture
def quad_core() -> Platform:
    return Platform.quad_core()


@pytest.fixture
def simple_taskset() -> TaskSet:
    """A small, comfortably schedulable dual-core task set."""
    return TaskSet.create(
        [
            RealTimeTask(name="rt-fast", wcet=2, period=10),
            RealTimeTask(name="rt-slow", wcet=20, period=100),
        ],
        [
            SecurityTask(name="ids-a", wcet=5, max_period=200, coverage_units=10),
            SecurityTask(name="ids-b", wcet=3, max_period=300, coverage_units=6),
        ],
    )


@pytest.fixture
def simple_allocation() -> dict:
    return {"rt-fast": 0, "rt-slow": 1}


@pytest.fixture
def rover() -> TaskSet:
    return rover_taskset()


@pytest.fixture
def rover_allocation() -> dict:
    return rover_rt_allocation()
