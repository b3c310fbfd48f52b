"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler
import os

import pytest

from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet
from repro.rover.case_study import rover_rt_allocation, rover_taskset


#: Seconds a test may run before the hang watchdog ends the run; the
#: slowest tests take ~20 s.  ``@pytest.mark.watchdog(seconds)`` overrides.
WATCHDOG_SECONDS = 300


@pytest.fixture(scope="session")
def _watchdog_stream(request):
    """The run's real stderr, outside pytest's output capture: the
    watchdog ends the process, so a dump into a capture buffer would be
    lost with it."""
    capture = request.config.pluginmanager.getplugin("capturemanager")
    if capture is not None:
        with capture.global_and_fixture_disabled():
            fd = os.dup(2)
    else:
        fd = os.dup(2)
    with os.fdopen(fd, "w") as stream:
        yield stream


@pytest.fixture(autouse=True)
def _hang_watchdog(request, _watchdog_stream):
    """Fail a hanging test loudly instead of spinning forever: after the
    test's budget every thread's traceback goes to stderr and the run
    exits non-zero (a compiled fixed point that never converges holds the
    interpreter in C, where no Python-level timeout can interrupt it)."""
    marker = request.node.get_closest_marker("watchdog")
    seconds = marker.args[0] if marker is not None else WATCHDOG_SECONDS
    faulthandler.dump_traceback_later(seconds, exit=True, file=_watchdog_stream)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


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
