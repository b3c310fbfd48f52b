"""Scheme variants that exist because the registry makes them cheap.

The paper evaluates exactly four schemes; the registry opens the design
space around them.  This module holds the variant *implementations* that
are not a pure re-parameterisation of an existing class:

* :class:`RandomFitHydra` -- HYDRA's pipeline (fully partitioned security
  tasks, per-core period minimisation) with the greedy *best-fit* core
  choice replaced by a deterministic pseudo-random pick among the feasible
  cores.  It lower-bounds what the allocation heuristic contributes:
  whatever acceptance/period quality HYDRA has beyond HYDRA-RF is earned by
  best-fit packing, not by the rest of the pipeline.  Both run HYDRA's one
  placement loop (:meth:`~repro.baselines.hydra.Hydra._pack`) over the
  same feasibility predicate
  (:meth:`~repro.rta.SecurityPacker.feasible_cores`), so the comparison
  isolates exactly the packing rule.  The loop is python on both kernel
  tiers; HYDRA-RF's period phase is HYDRA's, one C call on the compiled
  tier.

The re-parameterised HYDRA-C variants (first-fit / worst-fit RT
partitioning, forced-greedy carry-in) need no code here -- their specs in
:mod:`repro.schemes.builtin` simply construct
:class:`~repro.core.framework.HydraC` with different knobs.
"""

from __future__ import annotations

import zlib
from typing import Mapping, Optional, Sequence

from repro.baselines.hydra import Hydra, SecurityAllocation
from repro.model.tasks import RealTimeTask
from repro.model.taskset import TaskSet
from repro.rta import RtaContext

__all__ = ["RandomFitHydra"]


class RandomFitHydra(Hydra):
    """HYDRA with a deterministic random-fit allocation (lower bound).

    The pick must be reproducible across processes and sweep resumes, so
    "random" is a CRC32 hash of the task name and a fixed salt -- no global
    RNG state, same choice for the same task set everywhere.
    """

    scheme_name = "HYDRA-RF"

    #: Salt so the pick is not correlated with any other name-keyed hash.
    _HASH_SALT = b"hydra-rf/"

    @classmethod
    def _taskset_salt(cls, taskset: TaskSet) -> bytes:
        """Per-task-set contribution to the pick.

        The generator names security tasks identically (``sec0``,
        ``sec1``, ...) in every task set, so hashing the task name alone
        would freeze the pick per task *index* across an entire sweep --
        a fixed allocation rule, not a random-fit sample.  Folding the
        task set's security parameters into the hash varies the pick per
        task set while staying a pure function of the task set (hence
        reproducible across processes and sweep resumes).
        """
        parts = [
            f"{task.name}:{task.wcet}:{task.max_period}"
            for task in taskset.security_by_priority()
        ]
        return zlib.crc32(";".join(parts).encode("utf-8")).to_bytes(4, "big")

    def allocate_security(
        self,
        taskset: TaskSet,
        rt_by_core: Mapping[int, Sequence[RealTimeTask]],
        rta_context: Optional[RtaContext] = None,
    ) -> SecurityAllocation:
        """Place each task on a pseudo-randomly chosen feasible core.

        HYDRA's placement loop with the hashed pick in place of best fit
        (and so never HYDRA's best-fit-only compiled call).
        """
        salt = self._HASH_SALT + self._taskset_salt(taskset)

        def pick(task, feasible):
            if not feasible:
                return None
            digest = zlib.crc32(salt + task.name.encode("utf-8"))
            core_index, response, _utilization = feasible[digest % len(feasible)]
            return core_index, response

        return self._pack(taskset, rt_by_core, self._context(rta_context), pick)
