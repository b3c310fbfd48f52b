"""Kernel global fixed-priority RTA (the GLOBAL-TMax engine, Eq. 2-5 + Lemma 2).

Behaviourally identical to the frozen
:mod:`repro.schedulability.global_rta` (same priority-ordered sweep, same
fixed point ``x = floor(Omega(x)/M) + C_k``, same greedy carry-in
selection), restructured for the kernel:

* below :data:`VECTOR_TERMS_THRESHOLD` higher-priority tasks, the Eq. 2/4
  workload terms run through the shared inline-arithmetic kernel
  (:func:`repro.rta.terms.scalar_terms`) over per-task ``(C, T, shift)``
  tuples precomputed once per fixed-point solve -- the frozen engine
  re-derives them through per-term function calls every iteration
  (profiling showed inline tuples also beat per-term memo lookups on such
  short operand lists);
* above the threshold the per-window terms are evaluated in one NumPy
  pass (:func:`repro.rta.terms.vector_terms`): GLOBAL-TMax analyses every
  RT *and* security task globally, so its higher-priority sets grow far
  beyond the migrating-task engine's;
* the worst-case carry-in set is the kernel's greedy Lemma 2 selection --
  the same totals as
  :func:`repro.schedulability.carry_in.greedy_worst_case_interference`
  (re-exported by :mod:`repro.rta`), computed without materialising the
  index choice.

On the compiled kernel tier the whole priority-ordered sweep runs in one
C call per task set (``hydra_global_rta`` of :mod:`repro.rta.compiled`,
the same iterates), unless an operand fails the kernel's guards.  The
differential suite in ``tests/rta/`` pins verdict and response-time
equality against the frozen module on randomized task sets, on both
tiers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.taskset import TaskSet
from repro.rta.compiled import UNSUPPORTED
from repro.rta.terms import greedy_positive_sum, scalar_terms, vector_terms
from repro.schedulability.global_rta import (
    GlobalAnalysisResult,
    GlobalTaskView,
    _task_views,
)

__all__ = ["GlobalRtaEngine"]

#: Above this many higher-priority tasks the per-window interference terms
#: switch from the inline scalar path to one vectorised NumPy pass.
VECTOR_TERMS_THRESHOLD = 32


class GlobalRtaEngine:
    """Analyse task sets under global fixed-priority scheduling on ``M`` cores."""

    def __init__(self, context, num_cores: int) -> None:
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        self._context = context
        self._num_cores = num_cores

    # -- interference ----------------------------------------------------------

    def _omega_scalar(
        self,
        window: int,
        wcet_under_analysis: int,
        terms: Sequence[tuple],
    ) -> int:
        """Greedy-carry-in ``Omega(x)`` over precomputed ``(C, T, shift)`` terms.

        The per-task tuples are fixed for one fixed-point solve (the
        higher-priority responses are already known), so the Eq. 2/Eq. 4
        workloads reduce to the shared inline-arithmetic kernel --
        measurably faster than any per-term lookup on such short operand
        lists.
        """
        cap = window - wcet_under_analysis + 1
        if cap <= 0:
            return 0
        nc_sum, deltas = scalar_terms(window, cap, terms)
        return nc_sum + greedy_positive_sum(deltas, self._num_cores - 1)

    def _omega_vector(
        self,
        window: int,
        wcet_under_analysis: int,
        wcets: np.ndarray,
        periods: np.ndarray,
        shifts: np.ndarray,
    ) -> int:
        cap = window - wcet_under_analysis + 1
        if cap <= 0:
            return 0
        nc, ci = vector_terms(window, cap, wcets, periods, shifts)
        total = int(nc.sum())
        max_carry_in = self._num_cores - 1
        if max_carry_in > 0:
            deltas = ci - nc
            positive = deltas[deltas > 0]
            if positive.size:
                if positive.size <= max_carry_in:
                    total += int(positive.sum())
                else:
                    top = np.partition(positive, positive.size - max_carry_in)[
                        positive.size - max_carry_in :
                    ]
                    total += int(top.sum())
        return total

    # -- fixed point -----------------------------------------------------------

    def response_time(
        self,
        task: GlobalTaskView,
        higher: Sequence[GlobalTaskView],
        responses: Dict[str, int],
        limit: Optional[int] = None,
    ) -> Optional[int]:
        """WCRT of *task*, or ``None`` past ``limit`` (frozen-equal iterates)."""
        threshold = task.deadline_limit if limit is None else limit
        if task.wcet > threshold:
            return None
        self._context.stats.exact_solves += 1

        def known_response(view: GlobalTaskView) -> int:
            # Pessimistic stand-in of the frozen engine for callers that
            # analyse out of priority order: fall back to the period.
            response = responses.get(view.name)
            return response if response is not None else view.period

        vectors = None
        terms: Sequence[tuple] = ()
        if len(higher) > VECTOR_TERMS_THRESHOLD:
            wcets = np.asarray([v.wcet for v in higher], dtype=np.int64)
            periods = np.asarray([v.period for v in higher], dtype=np.int64)
            known = np.asarray(
                [known_response(v) for v in higher], dtype=np.int64
            )
            vectors = (wcets, periods, wcets - 1 + periods - known)
        else:
            # (C, T, xbar shift of Eq. 4: C - 1 + T - R) per hp task.
            terms = [
                (v.wcet, v.period, v.wcet - 1 + v.period - known_response(v))
                for v in higher
            ]

        window = task.wcet
        while True:
            if vectors is None:
                omega = self._omega_scalar(window, task.wcet, terms)
            else:
                omega = self._omega_vector(window, task.wcet, *vectors)
            candidate = omega // self._num_cores + task.wcet
            if candidate == window:
                return window
            if candidate > threshold:
                return None
            window = candidate

    # -- whole task set --------------------------------------------------------

    def taskset_schedulable(self, taskset: TaskSet) -> GlobalAnalysisResult:
        """Frozen-equal analogue of
        :func:`repro.schedulability.global_rta.global_taskset_schedulable`.

        The priority-ordered views come from the frozen module's own
        builder (shared, not copied: view construction is input shaping,
        not the solver the oracle freezes).  On the compiled kernel tier
        the whole sweep runs in one call (:meth:`_sweep_compiled`)."""
        views = _task_views(taskset)
        swept = None
        if self._context.compiled_kernel is not None:
            swept = self._sweep_compiled(views)
        status, responses = swept if swept is not None else self._sweep(views)
        response_times: Dict[str, Optional[int]] = {
            view.name: None for view in views
        }
        for view, response in zip(views, responses):
            response_times[view.name] = response
        if status < len(views):
            return GlobalAnalysisResult(
                schedulable=False,
                response_times=response_times,
                first_failure=views[status].name,
            )
        return GlobalAnalysisResult(schedulable=True, response_times=response_times)

    def _sweep(self, views: Sequence[GlobalTaskView]) -> Tuple[int, List[int]]:
        """Analyse *views* in priority order until the first unschedulable
        one: ``(its index, or len(views), responses before it)``."""
        responses: List[int] = []
        known: Dict[str, int] = {}
        for position, view in enumerate(views):
            response = self.response_time(view, views[:position], known)
            if response is None:
                return position, responses
            responses.append(response)
            known[view.name] = response
        return len(views), responses

    def _sweep_compiled(
        self, views: Sequence[GlobalTaskView]
    ) -> Optional[Tuple[int, List[int]]]:
        """:meth:`_sweep` in one compiled call; ``None`` when an operand
        falls outside the kernel's guards.  Every fixed point run counts as
        an exact and a compiled solve."""
        solved = self._context.compiled_kernel.global_rta(
            self._num_cores,
            [view.wcet for view in views],
            [view.period for view in views],
            [view.deadline_limit for view in views],
        )
        if solved is UNSUPPORTED:
            return None
        status, responses, solves = solved
        stats = self._context.stats
        stats.exact_solves += solves
        stats.compiled_solves += solves
        return status, responses
