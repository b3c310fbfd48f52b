"""Every registered scheme must flow end-to-end.

The registry's contract is that a registered scheme needs no other wiring:
the batch service evaluates it, its :class:`SystemDesign` simulates without
RT deadline misses, and the security evaluation accepts the resulting
trace.  These tests parametrise over *every* registered scheme -- a newly
registered plugin is automatically held to the same bar.
"""

import numpy as np
import pytest

from repro.batch.service import BatchDesignService
from repro.errors import AllocationError
from repro.generation import TasksetGenerationConfig, TasksetGenerator
from repro.model import Platform
from repro.partitioning import partition_rt_tasks
from repro.schemes import REGISTRY
from repro.security.attacks import generate_attacks
from repro.security.detection import evaluate_detection
from repro.security.monitors import SecurityMonitor
from repro.sim.engine import simulate_design

HORIZON = 2_000

#: Small-period generator so hyperperiod-scale simulation stays cheap.
GENERATION_CONFIG = TasksetGenerationConfig(
    num_cores=2,
    rt_tasks_per_core=(2, 4),
    security_tasks_per_core=(1, 2),
    rt_period_range=(10, 100),
    security_max_period_range=(150, 300),
)


def _tasksets(seeds, utilization=0.5):
    platform = Platform(num_cores=2)
    for seed in seeds:
        generator = TasksetGenerator(GENERATION_CONFIG, seed=seed)
        taskset = generator.generate(utilization * 2)
        try:
            allocation = partition_rt_tasks(taskset, platform)
        except AllocationError:
            continue
        yield taskset, allocation


@pytest.mark.parametrize("scheme_name", REGISTRY.names())
def test_scheme_designs_simulate_and_evaluate(scheme_name):
    spec = REGISTRY.get(scheme_name)
    service = BatchDesignService(2, scheme_names=(scheme_name,))
    simulated = 0
    for taskset, allocation in _tasksets(seeds=range(8)):
        design = service.design_all(taskset, allocation)[scheme_name]
        if design is None or not design.schedulable:
            continue
        # The design must be labelled and typed per its registration.
        assert design.scheme == scheme_name
        assert design.policy == spec.policy
        periods = design.security_periods()
        maxima = design.taskset.security_max_period_vector()
        for name, period in periods.items():
            assert period is not None
            assert 0 < period <= maxima[name]
        if not spec.adapts_periods:
            assert periods == maxima

        # Simulation: raises SimulationError on any RT deadline miss.
        trace = simulate_design(design, horizon=HORIZON)
        simulated += 1

        # Security evaluation accepts the trace end-to-end.
        monitors = [
            SecurityMonitor.for_task(task)
            for task in design.taskset.security_tasks
        ]
        scenario = generate_attacks(
            monitors, HORIZON, rng=np.random.default_rng(7)
        )
        results = evaluate_detection(trace, monitors, scenario)
        assert len(results) == len(monitors)
    assert simulated > 0, f"no schedulable design produced for {scheme_name}"


def test_evaluation_records_cover_exactly_the_selected_schemes():
    selection = ("HYDRA-C", "HYDRA-RF", "HYDRA-C-GC")
    service = BatchDesignService(2, scheme_names=selection)
    for taskset, allocation in _tasksets(seeds=range(3)):
        evaluation = service.evaluate_taskset(taskset, allocation)
        assert tuple(evaluation.schedulable) == selection
        assert tuple(evaluation.periods) == selection


def test_greedy_carry_in_variant_is_never_optimistic():
    """HYDRA-C-GC uses a pessimistic-but-sound bound: it must never accept
    a task set canonical HYDRA-C (exact-leaning AUTO strategy) rejects."""
    service = BatchDesignService(2, scheme_names=("HYDRA-C", "HYDRA-C-GC"))
    checked = 0
    for taskset, allocation in _tasksets(seeds=range(8), utilization=0.65):
        designs = service.design_all(taskset, allocation)
        exact = designs["HYDRA-C"]
        greedy = designs["HYDRA-C-GC"]
        if greedy is not None and greedy.schedulable:
            assert exact is not None and exact.schedulable
        checked += 1
    assert checked > 0


def test_random_fit_pick_varies_per_taskset():
    """Security tasks are named identically (sec0, sec1, ...) in every
    generated task set; the pick must still vary across task sets or the
    'random fit' degenerates to one fixed allocation rule per task index."""
    from repro.schemes.variants import RandomFitHydra

    salts = {
        RandomFitHydra._taskset_salt(taskset)
        for taskset, _allocation in _tasksets(seeds=range(4))
    }
    assert len(salts) > 1


def test_random_fit_allocation_is_deterministic():
    service = BatchDesignService(2, scheme_names=("HYDRA-RF",))
    taskset, allocation = next(_tasksets(seeds=range(8)))
    first = service.design_all(taskset, allocation)["HYDRA-RF"]
    second = service.design_all(taskset, allocation)["HYDRA-RF"]
    assert first.security_allocation == second.security_allocation
    assert first.security_periods() == second.security_periods()


#: HYDRA-RF's allocations (priority order) and first unplaced task on the
#: seed-2020 4-core Table-3 sweep, one task set per group: the pick among
#: several feasible cores, packed cores and an unschedulable set.
RANDOM_FIT_PINS = {
    2: (
        {"sec0": 2, "sec1": 3, "sec2": 1, "sec3": 1, "sec4": 0,
         "sec5": 3, "sec6": 1, "sec7": 1, "sec8": 2},
        None,
    ),
    6: (
        {"sec0": 2, "sec1": 3, "sec2": 3, "sec3": 2, "sec4": 3,
         "sec5": 2, "sec6": 2, "sec7": 3},
        None,
    ),
    9: (
        {"sec0": 3, "sec1": 3, "sec2": 3, "sec3": 1, "sec4": 2,
         "sec5": 3, "sec6": 3, "sec7": 2, "sec8": 3},
        "sec9",
    ),
}


@pytest.mark.parametrize("kernel", ("compiled", "python"))
def test_random_fit_mappings_are_pinned(kernel):
    """HYDRA-RF shares HYDRA's placement loop; its hashed picks must not
    move with it, on either kernel tier."""
    import warnings

    from repro.batch.orchestrator import build_specs
    from repro.experiments.config import ExperimentConfig

    specs = build_specs(
        ExperimentConfig(num_cores=4, tasksets_per_group=1, seed=2020)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        service = BatchDesignService(4, scheme_names=("HYDRA-RF",), kernel=kernel)
    for index, (mapping, failed) in RANDOM_FIT_PINS.items():
        taskset, allocation = service.generate(specs[index])
        design = service.design_all(taskset, allocation)["HYDRA-RF"]
        assert list(design.security_allocation.as_dict().items()) == list(
            mapping.items()
        ), index
        assert design.metadata.get("unschedulable_task") == failed, index
