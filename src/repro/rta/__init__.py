"""The unified incremental RTA kernel (system S2' in DESIGN.md).

One Eq. 1-5 engine shared by every layer of the design space:

* :mod:`repro.rta.context` -- :class:`RtaContext`, the per-task-set facade
  holding the shared ``(wcet, period[, response], window)`` workload memo,
  per-partition RT workload caches, admission-shortcut switches and
  activity counters;
* :mod:`repro.rta.core_state` -- the incremental per-core Eq. 1 API
  (:class:`CoreState`/:meth:`CoreState.admit`) the bin-packing layers
  probe, with accept-only Liu & Layland / Bini-bound shortcuts;
* :mod:`repro.rta.packing` -- :class:`SecurityPacker`, the incremental
  feasibility predicate behind every HYDRA-family allocation policy;
* :mod:`repro.rta.partitioned` -- the whole-partition Eq. 1 check;
* :mod:`repro.rta.global_fp` -- the global fixed-priority engine behind
  GLOBAL-TMax, consuming the kernel's carry-in selection;
* :mod:`repro.rta.migrating` -- the HYDRA-C migrating-security-task engine
  (Eq. 6-8; re-exported by :mod:`repro.core.analysis` for the historical
  API), with sound fixed-point warm starts for monotone re-solves and the
  exact solve-skipping layers (incumbent certification, sandwich pins);
* :mod:`repro.rta.vectorized` --
  :func:`~repro.rta.vectorized.partition_column` partitions a column of
  task sets, one RT partition per set on its own context (``None`` where
  a set fits nowhere).

The frozen oracles -- :mod:`repro.schedulability` and
:mod:`repro.batch.reference` -- are deliberately *not* built on this
package: they pin what every kernel path must equal (see the differential
suite in ``tests/rta/``).  The carry-in set helpers of
:mod:`repro.schedulability.carry_in` are pure combinatorial primitives,
shared (re-exported here) rather than duplicated.
"""

from repro.rta.compiled import (
    DEFAULT_KERNEL,
    KERNEL_CHOICES,
    kernel_available,
    kernel_status,
    normalise_kernel,
)
from repro.rta.context import KernelStats, RtaContext, rt_task_view
from repro.rta.core_state import Admission, CoreState, TaskView
from repro.rta.global_fp import GlobalRtaEngine
from repro.rta.migrating import (
    DEFAULT_EXACT_ENUMERATION_LIMIT,
    CarryInStrategy,
    RtWorkloadCache,
    SecurityTaskState,
    security_response_time,
)
from repro.rta.packing import (
    CorePeriodAssigner,
    SecurityPacker,
    security_task_view,
)
from repro.rta.partitioned import partitioned_rt_check
from repro.rta.vectorized import partition_column
from repro.schedulability.carry_in import (
    count_carry_in_sets,
    enumerate_carry_in_sets,
    greedy_worst_case_interference,
)

__all__ = [
    "Admission",
    "CarryInStrategy",
    "CorePeriodAssigner",
    "CoreState",
    "DEFAULT_EXACT_ENUMERATION_LIMIT",
    "DEFAULT_KERNEL",
    "GlobalRtaEngine",
    "KERNEL_CHOICES",
    "KernelStats",
    "RtWorkloadCache",
    "RtaContext",
    "SecurityPacker",
    "SecurityTaskState",
    "TaskView",
    "count_carry_in_sets",
    "enumerate_carry_in_sets",
    "greedy_worst_case_interference",
    "kernel_available",
    "kernel_status",
    "normalise_kernel",
    "partition_column",
    "partitioned_rt_check",
    "rt_task_view",
    "security_response_time",
    "security_task_view",
]
