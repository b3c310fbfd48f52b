"""The transport-independent admission engine behind ``hydra-c serve``.

:class:`AdmissionService` answers one parsed query at a time and keeps two
levels of state across queries:

* one :class:`~repro.batch.service.BatchDesignService` per distinct
  ``(num_cores, schemes, search_mode)`` configuration -- scheme plugins
  are resolved and constructed once, not per query;
* an LRU of answer payloads keyed by the query's canonical identity.
  Answers are pure functions of that key, so *re-asking* a query (the
  common interactive pattern: probe, tweak, probe again) returns the
  stored payload without re-running generation, partitioning or any
  analysis.  Each computed answer runs on a fresh
  :class:`~repro.rta.RtaContext`; a stored answer is byte-identical to the
  cold one, and to the frozen ``reference_evaluate_one`` oracle
  (``tests/serve/test_admission_service.py`` pins both).

The two query kinds mirror the two ways the paper is used online:

* ``design`` -- a sweep-style slot (seeded generator + utilization range):
  replicates :meth:`BatchDesignService.evaluate_spec` exactly, returning
  the full per-scheme :class:`~repro.batch.results.TasksetEvaluation`;
* ``admit`` -- an explicit task set (the operator's actual workload):
  partitions the RT tasks and, when they fit, designs every selected
  scheme; an RT partition failure is a *result* (``feasible: false``),
  not an error.
"""

from __future__ import annotations

import copy
import json
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from repro.batch.service import BatchDesignService, TasksetSpec
from repro.errors import AllocationError, ConfigurationError, ReproError
from repro.model.tasks import RealTimeTask, SecurityTask
from repro.model.taskset import TaskSet
from repro.partitioning.heuristics import partition_rt_tasks
from repro.rta import KernelStats, RtaContext
from repro.rta.compiled import DEFAULT_KERNEL, normalise_kernel, resolve_kernel
from repro.serve.protocol import (
    QueryError,
    error_response,
    ok_response,
    parse_request,
    require_int,
    require_range,
    require_task_list,
)

__all__ = ["AdmissionService", "DEFAULT_MAX_CONTEXTS"]

#: Default size of the per-query answer LRU.
DEFAULT_MAX_CONTEXTS = 64


class AdmissionService:
    """Answer admission/design queries, reusing the answers of repeats.

    Parameters
    ----------
    max_contexts:
        How many answer payloads to keep (least recently used evicted
        first).  ``0`` disables answer reuse entirely -- every query runs
        cold, which is the byte-identical baseline the serve benchmark
        compares against.
    kernel:
        Fixed-point kernel tier for every context this service creates
        (``"auto"``, the default, ``"python"`` or ``"compiled"``;
        byte-equal results across tiers, see
        :class:`~repro.rta.RtaContext`).  The tier is resolved here, so
        the one-time build or load of the compiled backend happens before
        the first query, never inside a query's timeout budget;
        :attr:`kernel_tier` names the tier that answers.
    """

    def __init__(
        self,
        max_contexts: int = DEFAULT_MAX_CONTEXTS,
        kernel: str = DEFAULT_KERNEL,
    ) -> None:
        if max_contexts < 0:
            raise ConfigurationError(
                f"max_contexts must be >= 0, got {max_contexts}"
            )
        self._max_contexts = max_contexts
        self._kernel = normalise_kernel(kernel)
        #: The tier that answers: ``"compiled"`` or ``"python"`` (``auto``
        #: and a failed ``compiled`` resolve to the one actually loaded).
        self.kernel_tier = (
            "python" if resolve_kernel(self._kernel) is None else "compiled"
        )
        self._services: Dict[tuple, BatchDesignService] = {}
        self._answers: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        #: Running kernel counters: every computed answer's fresh context
        #: merges in here, so the totals never shrink as answers are
        #: evicted.
        self._kernel_stats = KernelStats()
        #: Queries answered (any op), successful or not.
        self.queries = 0
        #: Design/admit queries answered from the answer LRU.
        self.context_hits = 0

    # -- cache plumbing --------------------------------------------------------

    def _service_for(
        self,
        num_cores: int,
        schemes: Optional[Tuple[str, ...]],
        search_mode: str,
    ) -> BatchDesignService:
        key = (num_cores, schemes, search_mode)
        service = self._services.get(key)
        if service is None:
            service = BatchDesignService(
                num_cores,
                scheme_names=schemes,
                search_mode=search_mode,
                kernel=self._kernel,
            )
            self._services[key] = service
        return service

    def _answer(
        self,
        query_key: str,
        service: BatchDesignService,
        compute: Callable[[RtaContext], Dict[str, object]],
    ) -> Dict[str, object]:
        """The stored answer for *query_key*, else ``compute`` on a fresh
        context (whose counters join the running totals) and store it."""
        answer = self._answers.get(query_key)
        if answer is not None:
            self._answers.move_to_end(query_key)
            self.context_hits += 1
        else:
            context = service._new_context()
            try:
                answer = compute(context)
            finally:
                self._kernel_stats.merge(context.stats.as_dict())
            if self._max_contexts:
                self._answers[query_key] = answer
                while len(self._answers) > self._max_contexts:
                    self._answers.popitem(last=False)
        # Each caller gets its own copy, so no caller can alter a stored
        # answer under the next one.
        return copy.deepcopy(answer)

    def _common_fields(
        self, request: Dict[str, object]
    ) -> Tuple[int, Optional[Tuple[str, ...]], str]:
        num_cores = require_int(request, "num_cores", minimum=1)
        schemes = request.get("schemes")
        if schemes is not None:
            if not isinstance(schemes, list) or not all(
                isinstance(name, str) for name in schemes
            ):
                raise QueryError("'schemes' must be a list of scheme names")
            schemes = tuple(schemes)
        search_mode = request.get("search_mode", "binary")
        if not isinstance(search_mode, str):
            raise QueryError("'search_mode' must be a string")
        return num_cores, schemes, search_mode

    # -- query handlers --------------------------------------------------------

    def _handle_design(self, request: Dict[str, object]) -> Dict[str, object]:
        num_cores, schemes, search_mode = self._common_fields(request)
        seed = require_int(request, "seed", minimum=0)
        group_index = require_int(request, "group_index", minimum=0, default=0)
        normalized_range = require_range(request, "normalized_range")
        service = self._service_for(num_cores, schemes, search_mode)
        query_key = json.dumps(
            [
                "design",
                num_cores,
                list(schemes) if schemes is not None else None,
                search_mode,
                group_index,
                list(normalized_range),
                seed,
            ],
            separators=(",", ":"),
        )
        spec = TasksetSpec(
            job_index=0,
            group_index=group_index,
            normalized_range=normalized_range,
            seed=seed,
        )

        def compute(context: RtaContext) -> Dict[str, object]:
            generated = service.generate(spec, rta_context=context)
            if generated is None:
                return {"evaluation": None}
            taskset, allocation = generated
            evaluation = service.evaluate_taskset(
                taskset,
                allocation,
                group_index=group_index,
                rta_context=context,
            )
            return {"evaluation": evaluation.to_json()}

        return self._answer(query_key, service, compute)

    def _decode_taskset(self, request: Dict[str, object]) -> TaskSet:
        rt_entries = require_task_list(
            request,
            "rt_tasks",
            required=("name", "wcet", "period"),
            optional=("deadline",),
        )
        security_entries = require_task_list(
            request,
            "security_tasks",
            required=("name", "wcet", "max_period"),
            optional=("coverage_units",),
        )
        try:
            rt_tasks = [
                RealTimeTask(
                    name=entry["name"],
                    wcet=entry["wcet"],
                    period=entry["period"],
                    deadline=entry.get("deadline"),
                )
                for entry in rt_entries
            ]
            security_tasks = [
                SecurityTask(
                    name=entry["name"],
                    wcet=entry["wcet"],
                    max_period=entry["max_period"],
                    coverage_units=entry.get("coverage_units", 1),
                )
                for entry in security_entries
            ]
            return TaskSet.create(rt_tasks, security_tasks)
        except (TypeError, ValueError) as exc:
            raise QueryError(f"invalid task set: {exc}") from exc

    def _handle_admit(self, request: Dict[str, object]) -> Dict[str, object]:
        num_cores, schemes, search_mode = self._common_fields(request)
        taskset = self._decode_taskset(request)
        service = self._service_for(num_cores, schemes, search_mode)
        query_key = json.dumps(
            [
                "admit",
                num_cores,
                list(schemes) if schemes is not None else None,
                search_mode,
                [
                    [t.name, t.wcet, t.period, t.deadline]
                    for t in taskset.rt_tasks
                ],
                [
                    [t.name, t.wcet, t.max_period, t.coverage_units]
                    for t in taskset.security_tasks
                ],
            ],
            separators=(",", ":"),
        )

        def compute(context: RtaContext) -> Dict[str, object]:
            try:
                allocation = partition_rt_tasks(
                    taskset, service.platform, rta_context=context
                )
            except AllocationError as exc:
                # The workload's legacy RT system does not fit: an expected
                # outcome of admission control, reported as a result.
                return {"feasible": False, "reason": str(exc), "evaluation": None}
            evaluation = service.evaluate_taskset(
                taskset, allocation, rta_context=context
            )
            return {
                "feasible": True,
                "reason": None,
                "evaluation": evaluation.to_json(),
            }

        return self._answer(query_key, service, compute)

    def _handle_stats(self) -> Dict[str, object]:
        return {
            "queries": self.queries,
            "context_hits": self.context_hits,
            "contexts": len(self._answers),
            "services": len(self._services),
            "kernel_tier": self.kernel_tier,
            "kernel": self._kernel_stats.as_dict(),
        }

    # -- entry points ----------------------------------------------------------

    def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        """Answer one parsed request; never raises for query-shaped input."""
        request_id = request.get("id")
        self.queries += 1
        try:
            op = request.get("op")
            if op == "ping":
                return ok_response(request_id, {"pong": True})
            if op == "stats":
                return ok_response(request_id, self._handle_stats())
            if op == "shutdown":
                # The daemon intercepts shutdown before dispatching here;
                # answering it directly keeps the service usable alone.
                return ok_response(request_id, {"stopping": True})
            if op == "design":
                return ok_response(request_id, self._handle_design(request))
            if op == "admit":
                return ok_response(request_id, self._handle_admit(request))
            raise QueryError(f"unknown op {op!r}")
        except QueryError as exc:
            return error_response(request_id, "query", str(exc))
        except ReproError as exc:
            return error_response(request_id, "configuration", str(exc))

    def handle_line(self, line: str) -> Dict[str, object]:
        """Parse and answer one raw request line (the worker entry point)."""
        try:
            request = parse_request(line)
        except QueryError as exc:
            self.queries += 1
            return error_response(None, "query", str(exc))
        return self.handle(request)
