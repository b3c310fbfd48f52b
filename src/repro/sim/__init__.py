"""Multicore runtime scheduler simulation (system S9 in DESIGN.md).

The paper's rover experiment (Section 5.1) measures two runtime quantities
-- intrusion-detection time and context-switch counts -- on a Raspberry
Pi 3.  This subpackage provides the simulated substrate those measurements
run on in the reproduction: a tick-accurate multicore scheduler that
executes a :class:`~repro.core.framework.SystemDesign` under the scheme's
runtime policy:

* partitioned fixed-priority preemptive scheduling for RT tasks (always);
* security tasks either bound to cores (HYDRA / HYDRA-TMax), free to migrate
  to any idle core (HYDRA-C), or fully global (GLOBAL-TMax);
* security tasks always run at a priority below every RT task.

The simulator produces a :class:`~repro.sim.trace.SimulationTrace` holding
per-job execution slices, completion times, deadline misses, context-switch
and migration counts -- everything the security evaluation
(:mod:`repro.security`) and the Fig. 5 experiment need.

Three interchangeable backends execute a design:

* ``"tick"`` -- the original tick-accurate engine
  (:class:`~repro.sim.engine.Simulator`), frozen as the slow oracle;
* ``"fast"`` -- the event-compressed engine
  (:class:`~repro.sim.fast.EventCompressedSimulator`), which jumps between
  scheduling events and produces bit-identical traces;
* ``"batch"`` -- the trial-batched backend
  (:class:`~repro.sim.batched.TrialBatchedSimulator`), the campaign
  default: for a batch of campaign trials of one fixed design
  (:func:`~repro.sim.batched.simulate_trials_batched`) it builds the
  design's envelope once and runs each trial through one trace-free scalar
  event loop with the detection replay folded in, falling back per trial
  to the event-compressed engine outside its envelope.

``resolve_backend(name)`` maps a backend name to its simulator class.
"""

from repro.sim.engine import SimulationConfig, Simulator, simulate_design
from repro.sim.fast import (
    SIMULATOR_BACKENDS,
    EventCompressedSimulator,
    resolve_backend,
    simulate_design_fast,
)

# Registers the "batch" backend in SIMULATOR_BACKENDS as an import side
# effect; must come after repro.sim.fast.
from repro.sim.batched import (
    BatchSimulationResult,
    BatchTrialInput,
    BatchTrialResult,
    TrialBatchedSimulator,
    simulate_trials_batched,
)
from repro.sim.schedulers import (
    GlobalFixedPriorityScheduler,
    PartitionedScheduler,
    SchedulerPolicy,
    SemiPartitionedScheduler,
    make_scheduler,
)
from repro.sim.trace import ExecutionSlice, JobRecord, SimulationTrace

__all__ = [
    "BatchSimulationResult",
    "BatchTrialInput",
    "BatchTrialResult",
    "EventCompressedSimulator",
    "ExecutionSlice",
    "GlobalFixedPriorityScheduler",
    "JobRecord",
    "PartitionedScheduler",
    "SIMULATOR_BACKENDS",
    "SchedulerPolicy",
    "SemiPartitionedScheduler",
    "SimulationConfig",
    "SimulationTrace",
    "Simulator",
    "TrialBatchedSimulator",
    "make_scheduler",
    "resolve_backend",
    "simulate_design",
    "simulate_design_fast",
    "simulate_trials_batched",
]
