"""Lifetime of an :class:`~repro.rta.RtaContext`.

A sweep creates one context per task set and the serve daemon one per
computed answer, so a discarded context must be freed by reference
counting alone.  If it sat in a reference cycle it would drag its RT
workload caches and counters along until the next cyclic garbage
collection, raising the peak memory of every long run.
"""

import gc
import weakref

import pytest

from repro.model import Platform
from repro.partitioning.allocation import Allocation
from repro.rover.case_study import rover_rt_allocation, rover_taskset
from repro.rta import RtaContext
from repro.schemes import REGISTRY, SharedPhases


@pytest.fixture
def no_cycle_collection():
    """Disable the cyclic collector for the test body only."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def test_context_with_a_global_engine_is_freed_by_refcount(no_cycle_collection):
    context = RtaContext(2)
    analysis = context.global_engine().taskset_schedulable(
        rover_taskset().with_security_at_max_period()
    )
    assert analysis.schedulable
    ref = weakref.ref(context)
    del context
    assert ref() is None


def test_context_shared_by_every_scheme_is_freed_by_refcount(no_cycle_collection):
    """The campaign runner's pattern: one context threaded through every
    registered scheme's design of the rover workload."""
    platform = Platform(num_cores=2)
    taskset = rover_taskset()
    context = RtaContext(platform)
    shared = SharedPhases(
        rt_allocation=Allocation(dict(rover_rt_allocation())),
        rta_context=context,
    )
    designs = [
        REGISTRY.create(name, platform).design(taskset, shared)
        for name in REGISTRY.names()
    ]
    assert all(design.schedulable for design in designs)
    ref = weakref.ref(context)
    del context, shared, designs
    assert ref() is None
