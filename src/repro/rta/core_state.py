"""Incremental single-core response-time state (kernel side of Eq. 1).

The bin-packing layers -- RT partitioning heuristics and the HYDRA greedy
security allocation -- probe thousands of "would this task still fit on
this core?" questions per task set.  The frozen reference answers each
probe by re-running the full per-core analysis from scratch
(:func:`repro.schedulability.uniprocessor.core_is_schedulable`).  This
module answers the same question incrementally:

* a :class:`CoreState` is an immutable snapshot of the priority-ordered
  tasks on one core, with the worst-case response time of each admitted
  task cached;
* :meth:`CoreState.admit` inserts a candidate at its priority position and
  re-analyses only the candidate and the tasks *below* it -- tasks above
  the insertion point keep their cached response times, because their
  higher-priority sets are untouched;
* the interference demand of the full task list is memoised per window on
  each state, so successive probes of different candidates against the
  same core share their fixed-point arithmetic (the dominant pattern in
  the HYDRA allocation, where every security task is probed on every core
  at the bottom of the priority order).

Two *accept-only* shortcuts (never able to flip an admission outcome, see
``tests/rta/test_quick_accept.py``) skip the exact fixed point entirely:

* the Liu & Layland utilization bound
  (:func:`repro.schedulability.uniprocessor.liu_layland_bound`) accepts a
  whole core at once -- sound only when the core's priority order is
  rate-monotonic-consistent and every deadline is implicit, which the
  state tracks incrementally;
* the closed-form Bini-style response-time upper bound
  (:func:`repro.schedulability.uniprocessor.response_time_upper_bound`)
  accepts a single task when the bound already meets its deadline (the
  exact WCRT can only be smaller).

Both bounds were previously exported but unused; the kernel is where they
earn their keep.  When a shortcut accepts, the exact response time is left
unresolved and computed lazily if a caller asks for it
(:meth:`CoreState.response_time`) -- callers that only need admissibility
(the partitioning heuristics) never pay for it.

The exact solver is the same fixed-point iteration as the frozen
:func:`repro.schedulability.uniprocessor.uniprocessor_response_time`
(identical integer arithmetic, identical iterates), so kernel verdicts and
response times are equal to the reference on every input -- pinned by the
differential suite in ``tests/rta/``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.time_utils import ceil_div
from repro.schedulability.uniprocessor import (
    liu_layland_bound,
    response_time_upper_bound,
)

__all__ = ["TaskView", "Admission", "CoreState"]

#: Above this many higher-priority tasks the per-window demand is evaluated
#: with NumPy instead of a Python loop.
VECTOR_DEMAND_THRESHOLD = 32

#: Liu & Layland bounds are pure functions of the task count; memoised
#: process-wide because every LL quick-accept consults one.
_LL_BOUNDS: Dict[int, float] = {}


def _ll_bound(num_tasks: int) -> float:
    bound = _LL_BOUNDS.get(num_tasks)
    if bound is None:
        bound = liu_layland_bound(num_tasks)
        _LL_BOUNDS[num_tasks] = bound
    return bound


@dataclass(frozen=True)
class TaskView:
    """The kernel's minimal view of a task bound (or probed) on one core.

    ``key`` is the core-local priority order (smaller = higher priority);
    callers build it from ``(task.priority, task.name)`` so the kernel
    reproduces exactly the ordering the frozen per-core analysis uses.
    """

    name: str
    wcet: int
    period: int
    deadline: int
    key: Tuple[int, str]

    def __post_init__(self) -> None:
        if self.wcet <= 0:
            raise ValueError(f"wcet must be positive, got {self.wcet}")
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")

    @property
    def utilization(self) -> float:
        return self.wcet / self.period


@dataclass(frozen=True)
class Admission:
    """Outcome of :meth:`CoreState.admit`.

    ``state`` is the core with the candidate placed (``None`` when the
    placement is inadmissible).  ``response`` is the candidate's exact
    WCRT when it was computed (always when ``need_response=True`` was
    requested and the placement is admissible; possibly ``None`` when a
    quick-accept shortcut skipped the exact fixed point).
    """

    state: Optional["CoreState"]
    response: Optional[int] = None

    @property
    def admitted(self) -> bool:
        return self.state is not None


class CoreState:
    """Immutable priority-ordered task list with cached per-task WCRTs.

    Build empty states via :meth:`repro.rta.RtaContext.core_state`; grow
    them with :meth:`admit`.  States share the owning context's counters,
    so quick-accept and exact-solve activity is observable per task set.
    """

    __slots__ = (
        "_context",
        "_entries",
        "_responses",
        "_utilization",
        "_rm_consistent",
        "_implicit_deadlines",
        "_full_demand",
        "_vec_cache",
    )

    def __init__(
        self,
        context,
        entries: Tuple[TaskView, ...] = (),
        responses: Optional[List[Optional[int]]] = None,
        utilization: float = 0.0,
        rm_consistent: bool = True,
        implicit_deadlines: bool = True,
    ) -> None:
        self._context = context
        self._entries = entries
        # Cache, not semantic state: a ``None`` slot means "admitted, exact
        # WCRT not yet materialised" (filled lazily by response_time()).
        self._responses: List[Optional[int]] = (
            responses if responses is not None else [None] * len(entries)
        )
        self._utilization = utilization
        self._rm_consistent = rm_consistent
        self._implicit_deadlines = implicit_deadlines
        #: window -> interference demand of *all* entries (ceil terms).
        #: Serves probes appended at the bottom of the priority order.
        self._full_demand: Dict[int, int] = {}
        self._vec_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- introspection ---------------------------------------------------------

    @property
    def tasks(self) -> Tuple[TaskView, ...]:
        return self._entries

    @property
    def utilization(self) -> float:
        """Total utilization, accumulated left-to-right in insertion order.

        Matches the float-summation order of the frozen
        ``sum(view.utilization for view in views)`` so downstream
        utilization tie-breaks are bit-identical.
        """
        return self._utilization

    def __len__(self) -> int:
        return len(self._entries)

    def response_time(self, name: str) -> Optional[int]:
        """Exact WCRT of the named task (materialised lazily)."""
        for position, view in enumerate(self._entries):
            if view.name != name:
                continue
            response = self._responses[position]
            if response is None:
                response = self._solve(view, self._entries[:position])
                self._responses[position] = response
            return response
        raise KeyError(f"no task named {name!r} on this core")

    # -- demand arithmetic -----------------------------------------------------

    def _demand_of(self, prefix: Sequence[TaskView], window: int) -> int:
        """``sum(ceil(window / T_i) * C_i)`` over *prefix* (Eq. 1 demand)."""
        if len(prefix) > VECTOR_DEMAND_THRESHOLD:
            periods = np.asarray([v.period for v in prefix], dtype=np.int64)
            wcets = np.asarray([v.wcet for v in prefix], dtype=np.int64)
            return int((-(-window // periods) * wcets).sum())
        total = 0
        for view in prefix:
            total += ceil_div(window, view.period) * view.wcet
        return total

    def _full_demand_at(self, window: int) -> int:
        """Demand of every task on the core, memoised per window."""
        cached = self._full_demand.get(window)
        if cached is not None:
            return cached
        if len(self._entries) > VECTOR_DEMAND_THRESHOLD:
            if self._vec_cache is None:
                self._vec_cache = (
                    np.asarray([v.period for v in self._entries], dtype=np.int64),
                    np.asarray([v.wcet for v in self._entries], dtype=np.int64),
                )
            periods, wcets = self._vec_cache
            demand = int((-(-window // periods) * wcets).sum())
        else:
            demand = 0
            for view in self._entries:
                demand += ceil_div(window, view.period) * view.wcet
        self._full_demand[window] = demand
        return demand

    def _solve(
        self,
        view: TaskView,
        prefix: Sequence[TaskView],
        demand: Optional[Callable[[int], int]] = None,
        limit: Optional[int] = None,
    ) -> Optional[int]:
        """Exact Eq. 1 fixed point; same iterates as the frozen solver.

        With a resource protocol in play the task's blocking term ``B``
        inflates its own demand constant (``R = C + B + I(R)`` -- the same
        fixed point as solving with WCET ``C + B``); interference from
        higher-priority tasks is untouched, matching the classic
        uniprocessor blocking analysis.  The python fixed point on either
        kernel tier: the compiled tier runs whole phases in one C call each
        instead (:mod:`repro.rta.compiled`).
        """
        threshold = view.deadline if limit is None else limit
        wcet = view.wcet
        if getattr(self._context, "has_blocking", False):
            wcet += self._context.blocking_of(view.name)
        if wcet > threshold:
            return None
        self._context.stats.exact_solves += 1
        demand_at = demand if demand is not None else (
            lambda window: self._demand_of(prefix, window)
        )
        response = wcet
        while True:
            total = wcet + demand_at(response)
            if total == response:
                return response
            if total > threshold:
                return None
            response = total

    # -- quick accepts ---------------------------------------------------------

    def _blocking_term(self, view: TaskView) -> int:
        """The blocking term the exact solve would fold into *view* (ticks).

        Zero whenever the context carries no terms at all (protocol
        ``none``, or a lock-using protocol over a claim-free task set) *or*
        this particular task's term is zero -- the accept-only shortcuts
        key on the terms actually in play, not on the protocol selection,
        so claim-annotated task sets under the default protocol keep the
        full fast path.
        """
        if not getattr(self._context, "has_blocking", False):
            return 0
        return self._context.blocking_of(view.name)

    def _ll_accepts(self, view: TaskView, position: int) -> bool:
        """Whole-core Liu & Layland quick-accept for *view* at *position*.

        Sound only when every deadline is implicit (``D == T``: LL bounds
        ``R <= T``) and the priority order is rate-monotonic-consistent
        (non-decreasing periods: LL is a statement about RM scheduling).
        Accept-only: a pass implies the exact test passes for every task.
        """
        if not self._context.quick_accept:
            return False
        if self._blocking_term(view) or any(
            self._blocking_term(entry) for entry in self._entries
        ):
            # The LL bound knows nothing of blocking terms, and a pass
            # vouches for *every* task on the core; any non-zero term on
            # the core breaks accept-only soundness, so force the exact
            # fixed point.  All-zero terms leave LL sound.
            return False
        if not (self._implicit_deadlines and view.deadline == view.period):
            return False
        if not self._rm_follows(view, position):
            return False
        total = self._utilization + view.utilization
        if total <= _ll_bound(len(self._entries) + 1):
            self._context.stats.ll_accepts += 1
            return True
        return False

    def _rm_follows(self, view: TaskView, position: int) -> bool:
        """RM-consistency of the order with *view* inserted at *position*."""
        if not self._rm_consistent:
            return False
        if position > 0 and self._entries[position - 1].period > view.period:
            return False
        if position < len(self._entries) and (
            view.period > self._entries[position].period
        ):
            return False
        return True

    def _bound_accepts(self, view: TaskView, prefix: Sequence[TaskView]) -> bool:
        """Per-task Bini upper-bound quick-accept (exact WCRT <= bound)."""
        if not self._context.quick_accept:
            return False
        if self._blocking_term(view):
            # Blocking-blind bound: no longer an upper bound on *view*'s
            # blocking-inflated response.  Higher-priority tasks' terms are
            # irrelevant here -- a term only inflates its own task's solve
            # -- so only the candidate's own term disqualifies the bound.
            return False
        bound = response_time_upper_bound(view.wcet, prefix)
        if bound is not None and bound <= view.deadline:
            self._context.stats.bound_accepts += 1
            return True
        return False

    # -- admission -------------------------------------------------------------

    def admit(self, view: TaskView, need_response: bool = False) -> Admission:
        """Try to place *view* on this core.

        The candidate is inserted at its priority position; the candidate
        and every task below it must pass Eq. 1 (tasks above keep their
        verdicts -- their higher-priority sets are unchanged).  Returns an
        inadmissible :class:`Admission` when any re-analysed task misses
        its deadline.

        With ``need_response=True`` the candidate's exact WCRT is always
        computed (callers like the HYDRA allocation need it for tie-breaks
        and reporting); otherwise accept-only shortcuts may leave it
        unresolved.
        """
        position = bisect_right([entry.key for entry in self._entries], view.key)
        new_entries = self._entries[:position] + (view,) + self._entries[position:]
        new_responses: List[Optional[int]] = (
            self._responses[:position] + [None] * (len(new_entries) - position)
        )

        candidate_response: Optional[int] = None
        if need_response:
            # The appended-at-the-bottom case (HYDRA security probes) hits
            # the state's per-window full-demand memo, shared across every
            # probe against this same core contents.
            demand = (
                self._full_demand_at if position == len(self._entries) else None
            )
            candidate_response = self._solve(
                view, new_entries[:position], demand=demand
            )
            if candidate_response is None:
                return Admission(state=None)

        appended_at_bottom = position == len(self._entries)
        # The whole-core shortcut only pays when it can skip a solve: with
        # the candidate's exact response already forced and no tasks below
        # it, there is nothing left for it to prove (and counting such
        # no-op accepts would make the stats lie about shortcut value).
        whole_core_ok = not (
            need_response and appended_at_bottom
        ) and self._ll_accepts(view, position)
        if not whole_core_ok:
            start = position + (1 if need_response else 0)
            for q in range(start, len(new_entries)):
                task = new_entries[q]
                prefix = new_entries[:q]
                if self._bound_accepts(task, prefix):
                    continue
                # The full-demand memo describes the *old* entry list; it
                # only matches the prefix when the candidate itself sits at
                # the bottom of the order and is the task being solved.
                demand = (
                    self._full_demand_at
                    if appended_at_bottom and q == position
                    else None
                )
                response = self._solve(task, prefix, demand=demand)
                if response is None:
                    return Admission(state=None)
                new_responses[q] = response
                if q == position:
                    candidate_response = response

        if candidate_response is not None:
            new_responses[position] = candidate_response
        state = CoreState(
            self._context,
            new_entries,
            new_responses,
            utilization=self._utilization + view.utilization,
            rm_consistent=self._rm_follows(view, position),
            implicit_deadlines=(
                self._implicit_deadlines and view.deadline == view.period
            ),
        )
        return Admission(state=state, response=candidate_response)

    def probe_response(self, view: TaskView, limit: int) -> Optional[int]:
        """Exact WCRT of *view* run below every task on this core.

        This is the HYDRA feasibility question (response within ``limit``,
        i.e. the task's maximum period) without constructing the placed
        state; the per-window full-demand memo is shared across probes.
        """
        return self._solve(view, self._entries, demand=self._full_demand_at, limit=limit)

    def demand(self, window: int) -> int:
        """Public per-window Eq. 1 demand of every task on this core.

        Memoised on the state; the period-assignment solvers combine it
        with the (small, varying) security-task terms they iterate over.
        """
        return self._full_demand_at(window)
