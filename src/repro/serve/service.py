"""The transport-independent admission engine behind ``hydra-c serve``.

:class:`AdmissionService` answers a query in two steps:

* :meth:`~AdmissionService.triage`, the cheap step: it counts the query,
  answers ``ping``/``stats``/``shutdown`` and every invalid query on the
  spot, and turns a valid ``design``/``admit`` into a :class:`Query`
  carrying the query's canonical key and, when the answer store holds
  that key, the stored answer;
* :meth:`~AdmissionService.compute`, the pure step: it evaluates one miss
  on a fresh :class:`~repro.rta.RtaContext` and returns the answer as its
  canonical JSON text with that context's kernel counters, which
  :meth:`~AdmissionService.store` then keeps and merges.

State kept across queries:

* one :class:`~repro.batch.service.BatchDesignService` per distinct
  ``(num_cores, schemes, search_mode)`` configuration -- scheme plugins
  are resolved and constructed once, not per query;
* the answer store, an LRU of answers as canonical JSON text keyed by the
  query's canonical identity.  Answers are pure functions of that key, so
  *re-asking* a query (the common interactive pattern: probe, tweak, probe
  again) returns the stored text without re-running generation,
  partitioning or any analysis.  A stored answer is byte-identical to the
  cold one, and to the frozen ``reference_evaluate_one`` oracle
  (``tests/serve/test_admission_service.py`` pins both).

:meth:`~AdmissionService.handle` chains the steps in-process; the daemon
runs :meth:`~AdmissionService.triage` and :meth:`~AdmissionService.store`
on its event loop and only :meth:`~AdmissionService.compute` off it.

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

import json
from collections import OrderedDict
from typing import Dict, NamedTuple, Optional, Tuple, Union

from repro.batch.service import BatchDesignService, TasksetSpec
from repro.errors import AllocationError, ConfigurationError, ReproError
from repro.model.tasks import RealTimeTask, SecurityTask
from repro.model.taskset import TaskSet
from repro.partitioning.heuristics import partition_rt_tasks
from repro.rta import KernelStats
from repro.rta.compiled import DEFAULT_KERNEL, normalise_kernel, resolve_kernel
from repro.serve.protocol import (
    MAX_CORES,
    QueryError,
    canonical_json,
    error_response,
    ok_response,
    parse_request,
    require_int,
    require_range,
    require_task_list,
)

__all__ = ["AdmissionService", "DEFAULT_MAX_CONTEXTS", "Query"]

#: Default size of the answer store.
DEFAULT_MAX_CONTEXTS = 64

#: ``(num_cores, schemes, search_mode)``: which warm engine answers.
Config = Tuple[int, Optional[Tuple[str, ...]], str]


class Query(NamedTuple):
    """One valid ``design``/``admit`` query, as :meth:`AdmissionService.triage`
    leaves it: all :meth:`AdmissionService.compute` needs (picklable, so a
    worker process can compute it) plus the stored answer of a hit."""

    request_id: object
    op: str
    config: Config
    #: The canonical identity: the answer store's key.
    key: str
    #: A :class:`TasksetSpec` (``design``) or a :class:`TaskSet` (``admit``).
    operand: object
    #: The stored answer text on a hit, ``None`` on a miss.
    stored: Optional[str]


class AdmissionService:
    """Answer admission/design queries, reusing the answers of repeats.

    Parameters
    ----------
    max_contexts:
        How many answers to store (least recently used evicted first).
        ``0`` disables answer reuse entirely -- every query runs cold,
        which is the byte-identical baseline the serve benchmark compares
        against.
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
        self._services: Dict[Config, BatchDesignService] = {}
        self._answers: "OrderedDict[str, str]" = OrderedDict()
        #: Running kernel counters: every computed answer's fresh context
        #: merges in here, so the totals never shrink as answers are
        #: evicted.
        self._kernel_stats = KernelStats()
        #: Queries answered (any op), successful or not.
        self.queries = 0
        #: Design/admit queries answered from the answer store.
        self.context_hits = 0

    def _service_for(self, config: Config) -> BatchDesignService:
        service = self._services.get(config)
        if service is None:
            num_cores, schemes, search_mode = config
            service = BatchDesignService(
                num_cores,
                scheme_names=schemes,
                search_mode=search_mode,
                kernel=self._kernel,
            )
            self._services[config] = service
        return service

    # -- the cheap step --------------------------------------------------------

    def _config(self, request: Dict[str, object]) -> Config:
        num_cores = require_int(
            request, "num_cores", minimum=1, maximum=MAX_CORES
        )
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
        return (num_cores, schemes, search_mode)

    def _design_query(self, request: Dict[str, object]) -> Tuple[Config, str, object]:
        config = self._config(request)
        seed = require_int(request, "seed", minimum=0)
        group_index = require_int(request, "group_index", minimum=0, default=0)
        normalized_range = require_range(request, "normalized_range")
        num_cores, schemes, search_mode = config
        key = canonical_json(
            [
                "design",
                num_cores,
                list(schemes) if schemes is not None else None,
                search_mode,
                group_index,
                list(normalized_range),
                seed,
            ]
        )
        spec = TasksetSpec(
            job_index=0,
            group_index=group_index,
            normalized_range=normalized_range,
            seed=seed,
        )
        return config, key, spec

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

    def _admit_query(self, request: Dict[str, object]) -> Tuple[Config, str, object]:
        config = self._config(request)
        taskset = self._decode_taskset(request)
        num_cores, schemes, search_mode = config
        key = canonical_json(
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
            ]
        )
        return config, key, taskset

    def _handle_stats(self) -> Dict[str, object]:
        return {
            "queries": self.queries,
            "context_hits": self.context_hits,
            "contexts": len(self._answers),
            "services": len(self._services),
            "kernel_tier": self.kernel_tier,
            "kernel": self._kernel_stats.as_dict(),
        }

    def triage(self, request: Dict[str, object]) -> Union[Dict[str, object], Query]:
        """Count one parsed request and answer it unless it needs evaluation.

        Returns the response of ``ping``, ``stats``, ``shutdown`` and of an
        invalid query; for a valid ``design``/``admit`` returns its
        :class:`Query`, whose ``stored`` holds the stored answer on a hit.
        """
        request_id = request.get("id")
        self.queries += 1
        try:
            op = request.get("op")
            if op == "ping":
                return ok_response(request_id, {"pong": True})
            if op == "stats":
                return ok_response(request_id, self._handle_stats())
            if op == "shutdown":
                # The daemon begins its drain on this answer; answering it
                # here keeps the service usable alone.
                return ok_response(request_id, {"stopping": True})
            if op == "design":
                config, key, operand = self._design_query(request)
            elif op == "admit":
                config, key, operand = self._admit_query(request)
            else:
                raise QueryError(f"unknown op {op!r}")
            # Building the engine validates the scheme names and search mode.
            self._service_for(config)
        except QueryError as exc:
            return error_response(request_id, "query", str(exc))
        except ReproError as exc:
            return error_response(request_id, "configuration", str(exc))
        stored = self._answers.get(key)
        if stored is not None:
            self._answers.move_to_end(key)
            self.context_hits += 1
        return Query(request_id, op, config, key, operand, stored)

    def refuse(self, exc: QueryError) -> Dict[str, object]:
        """Count and answer a request line that did not parse."""
        self.queries += 1
        return error_response(None, "query", str(exc))

    # -- the pure step ---------------------------------------------------------

    def compute(self, query: Query) -> Tuple[str, Dict[str, int]]:
        """Evaluate one query on a fresh context.

        Returns the answer's canonical JSON text and the context's kernel
        counters.  Reads no answer and writes none, so a worker process
        can run it on its own warm service.
        """
        service = self._service_for(query.config)
        context = service._new_context()
        if query.op == "design":
            generated = service.generate(query.operand, rta_context=context)
            if generated is None:
                answer: Dict[str, object] = {"evaluation": None}
            else:
                taskset, allocation = generated
                evaluation = service.evaluate_taskset(
                    taskset,
                    allocation,
                    group_index=query.operand.group_index,
                    rta_context=context,
                )
                answer = {"evaluation": evaluation.to_json()}
        else:
            try:
                allocation = partition_rt_tasks(
                    query.operand, service.platform, rta_context=context
                )
            except AllocationError as exc:
                # The workload's legacy RT system does not fit: an expected
                # outcome of admission control, reported as a result.
                answer = {"feasible": False, "reason": str(exc), "evaluation": None}
            else:
                evaluation = service.evaluate_taskset(
                    query.operand, allocation, rta_context=context
                )
                answer = {
                    "feasible": True,
                    "reason": None,
                    "evaluation": evaluation.to_json(),
                }
        return canonical_json(answer), context.stats.as_dict()

    def store(self, key: str, text: str, kernel_counts: Dict[str, int]) -> str:
        """Keep one computed answer and merge its counters; returns *text*."""
        self._kernel_stats.merge(kernel_counts)
        if self._max_contexts:
            self._answers[key] = text
            self._answers.move_to_end(key)
            while len(self._answers) > self._max_contexts:
                self._answers.popitem(last=False)
        return text

    # -- in-process entry points -----------------------------------------------

    def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        """Answer one parsed request; never raises for query-shaped input."""
        outcome = self.triage(request)
        if not isinstance(outcome, Query):
            return outcome
        text = outcome.stored
        if text is None:
            try:
                text = self.store(outcome.key, *self.compute(outcome))
            except ReproError as exc:
                return error_response(
                    outcome.request_id, "configuration", str(exc)
                )
        # A fresh decode: no caller can alter a stored answer.
        return ok_response(outcome.request_id, json.loads(text))

    def handle_line(self, line: str) -> Dict[str, object]:
        """Parse and answer one raw request line."""
        try:
            request = parse_request(line)
        except QueryError as exc:
            return self.refuse(exc)
        return self.handle(request)
