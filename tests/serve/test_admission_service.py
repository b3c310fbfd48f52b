"""Unit tests for the admission service and its answer LRU.

The load-bearing guarantee: a reused answer is byte-identical to the cold
answer AND to the frozen ``reference_evaluate_one`` oracle -- the serve
layer accelerates repeat queries, it never changes them.
"""

import json

import pytest

from repro.batch.reference import reference_evaluate_one
from repro.rta import compiled
from repro.serve.protocol import MAX_CORES, MAX_LINE_BYTES
from repro.serve.service import AdmissionService, Query

DESIGN_QUERY = {
    "op": "design",
    "num_cores": 2,
    "seed": 2020,
    "group_index": 0,
    "normalized_range": [0.05, 0.2],
}

FEASIBLE_ADMIT = {
    "op": "admit",
    "num_cores": 2,
    "rt_tasks": [
        {"name": "rt0", "wcet": 2, "period": 10},
        {"name": "rt1", "wcet": 3, "period": 20, "deadline": 15},
    ],
    "security_tasks": [
        {"name": "ids", "wcet": 1, "max_period": 50},
        {"name": "scan", "wcet": 2, "max_period": 100, "coverage_units": 4},
    ],
}

# Three RT tasks at 90% utilization each cannot fit on two cores.
INFEASIBLE_ADMIT = {
    "op": "admit",
    "num_cores": 2,
    "rt_tasks": [
        {"name": f"rt{i}", "wcet": 9, "period": 10} for i in range(3)
    ],
    "security_tasks": [],
}


class TestDesignParity:
    @pytest.mark.parametrize(
        "seed,group_index,normalized_range",
        [(2020, 0, (0.05, 0.2)), (77, 2, (0.45, 0.6))],
    )
    def test_cold_and_warm_answers_match_the_frozen_reference(
        self, seed, group_index, normalized_range
    ):
        service = AdmissionService()
        query = {
            "op": "design",
            "num_cores": 2,
            "seed": seed,
            "group_index": group_index,
            "normalized_range": list(normalized_range),
        }
        cold = service.handle(dict(query))
        warm = service.handle(dict(query))
        assert cold["ok"] and warm["ok"]
        assert service.context_hits == 1  # the repeat reused its context
        reference = reference_evaluate_one(
            2, group_index, normalized_range, seed
        )
        expected = reference.to_json() if reference is not None else None
        # Byte-identical, not merely equal: the serve path must persist
        # and transmit exactly what the offline sweep would record.
        assert json.dumps(cold["result"]["evaluation"], sort_keys=True) == (
            json.dumps(expected, sort_keys=True)
        )
        assert json.dumps(warm["result"]) == json.dumps(cold["result"])

    def test_cold_baseline_is_identical_with_context_reuse_disabled(self):
        warm_service = AdmissionService()
        cold_service = AdmissionService(max_contexts=0)
        for _ in range(3):
            warm = warm_service.handle(dict(DESIGN_QUERY))
            cold = cold_service.handle(dict(DESIGN_QUERY))
            assert warm["result"] == cold["result"]
        assert cold_service.context_hits == 0
        assert warm_service.context_hits == 2

    def test_reasked_key_reuses_its_answer_without_analysis(self):
        """A re-asked key is answered from the LRU: no generation,
        partitioning or analysis runs, so the kernel counters stand still.
        With answer reuse disabled the repeat recomputes them."""
        warm = AdmissionService()
        cold = AdmissionService(max_contexts=0)

        def kernel(service):
            return service.handle({"op": "stats"})["result"]["kernel"]

        warm.handle(dict(DESIGN_QUERY))
        once = kernel(warm)
        assert once["exact_solves"] > 0
        warm.handle(dict(DESIGN_QUERY))
        assert kernel(warm) == once
        cold.handle(dict(DESIGN_QUERY))
        cold.handle(dict(DESIGN_QUERY))
        assert kernel(cold) == {name: 2 * value for name, value in once.items()}

    def test_reused_answer_is_a_private_copy(self):
        service = AdmissionService()
        first = service.handle(dict(DESIGN_QUERY))
        expected = json.dumps(first["result"], sort_keys=True)
        first["result"]["evaluation"]["schedulable"].clear()
        second = service.handle(dict(DESIGN_QUERY))
        assert service.context_hits == 1
        assert json.dumps(second["result"], sort_keys=True) == expected

    def test_distinct_queries_get_distinct_contexts(self):
        service = AdmissionService()
        service.handle(dict(DESIGN_QUERY))
        other = dict(DESIGN_QUERY, seed=21)
        service.handle(other)
        assert service.context_hits == 0
        stats = service.handle({"op": "stats"})["result"]
        assert stats["contexts"] == 2
        assert stats["services"] == 1  # same (cores, schemes, mode) engine

    def test_lru_evicts_oldest_context(self):
        service = AdmissionService(max_contexts=2)
        for seed in (1, 2, 3):
            service.handle(dict(DESIGN_QUERY, seed=seed))
        # seed=1 was evicted; re-asking it is a miss, seed=3 is a hit.
        service.handle(dict(DESIGN_QUERY, seed=1))
        assert service.context_hits == 0
        service.handle(dict(DESIGN_QUERY, seed=3))
        assert service.context_hits == 1

    def test_scheme_subset_is_honoured(self):
        service = AdmissionService()
        query = dict(DESIGN_QUERY, schemes=["HYDRA-C", "GLOBAL-TMax"])
        result = service.handle(query)["result"]
        assert set(result["evaluation"]["schedulable"]) == {
            "HYDRA-C",
            "GLOBAL-TMax",
        }


class TestTwoSteps:
    """``triage`` (validate, key, look up) and ``compute`` (evaluate one
    miss) are the daemon's two steps; ``handle`` chains them."""

    def test_triage_answers_cheap_ops_and_queues_misses(self):
        service = AdmissionService()
        assert service.triage({"op": "ping", "id": 1}) == {
            "id": 1,
            "ok": True,
            "result": {"pong": True},
        }
        query = service.triage(dict(DESIGN_QUERY, id="a"))
        assert isinstance(query, Query)
        assert query.request_id == "a" and query.stored is None
        assert service.queries == 2 and service.context_hits == 0

    def test_compute_is_pure_and_store_keeps_its_text(self):
        service = AdmissionService()
        query = service.triage(dict(DESIGN_QUERY))
        text, counts = service.compute(query)
        # Computing stores nothing and merges nothing.
        stats = service.handle({"op": "stats"})["result"]
        assert stats["contexts"] == 0
        assert stats["kernel"]["exact_solves"] == 0
        assert counts["exact_solves"] > 0
        assert service.compute(query) == (text, counts)

        assert service.store(query.key, text, counts) == text
        hit = service.triage(dict(DESIGN_QUERY, id=9))
        assert hit.stored == text and service.context_hits == 1
        cold = AdmissionService(max_contexts=0).handle(dict(DESIGN_QUERY))
        assert json.loads(text) == cold["result"]
        assert text == json.dumps(cold["result"], separators=(",", ":"))

    @pytest.mark.parametrize("query", [DESIGN_QUERY, FEASIBLE_ADMIT])
    def test_num_cores_is_bounded(self, query):
        """A query past MAX_CORES once kept the evaluation thread busy for
        minutes; the bound itself is a valid query."""
        service = AdmissionService()
        assert isinstance(
            service.triage(dict(query, num_cores=MAX_CORES)), Query
        )
        response = service.handle(dict(query, num_cores=MAX_CORES + 1))
        assert not response["ok"]
        assert response["error"] == {
            "type": "query",
            "message": "field 'num_cores' must be <= 64",
        }


class TestAdmit:
    def test_feasible_workload_designs_every_scheme(self):
        service = AdmissionService()
        response = service.handle(dict(FEASIBLE_ADMIT))
        assert response["ok"]
        result = response["result"]
        assert result["feasible"] is True
        assert result["reason"] is None
        evaluation = result["evaluation"]
        assert set(evaluation["schedulable"]) == {
            "HYDRA-C",
            "HYDRA",
            "HYDRA-TMax",
            "GLOBAL-TMax",
        }
        assert evaluation["num_rt_tasks"] == 2
        assert evaluation["num_security_tasks"] == 2
        # This tiny workload is comfortably schedulable under HYDRA-C.
        assert evaluation["schedulable"]["HYDRA-C"] is True

    def test_infeasible_rt_partition_is_a_result_not_an_error(self):
        service = AdmissionService()
        response = service.handle(dict(INFEASIBLE_ADMIT))
        assert response["ok"]
        assert response["result"]["feasible"] is False
        assert "does not fit" in response["result"]["reason"]
        assert response["result"]["evaluation"] is None

    def test_repeat_admit_reuses_its_context_and_answer(self):
        service = AdmissionService()
        first = service.handle(dict(FEASIBLE_ADMIT))
        second = service.handle(dict(FEASIBLE_ADMIT))
        assert service.context_hits == 1
        assert json.dumps(first["result"]) == json.dumps(second["result"])

    def test_invalid_task_set_is_a_query_error(self):
        service = AdmissionService()
        bad = dict(
            FEASIBLE_ADMIT,
            rt_tasks=[{"name": "rt0", "wcet": 20, "period": 10}],
        )
        response = service.handle(bad)
        assert not response["ok"]
        assert response["error"]["type"] == "query"
        assert "invalid task set" in response["error"]["message"]


class TestErrorHandling:
    def test_missing_field_answers_a_query_error(self):
        response = AdmissionService().handle({"op": "design", "num_cores": 2})
        assert not response["ok"]
        assert response["error"]["type"] == "query"
        assert "seed" in response["error"]["message"]

    def test_unknown_scheme_answers_a_configuration_error(self):
        query = dict(DESIGN_QUERY, schemes=["NOPE"])
        response = AdmissionService().handle(query)
        assert not response["ok"]
        assert response["error"]["type"] == "configuration"
        assert "NOPE" in response["error"]["message"]

    def test_id_is_echoed_on_success_and_failure(self):
        service = AdmissionService()
        assert service.handle({"op": "ping", "id": "q-1"})["id"] == "q-1"
        bad = service.handle({"op": "design", "id": 5})
        assert bad["id"] == 5

    def test_handle_line_answers_malformed_json(self):
        response = AdmissionService().handle_line('{"op": ')
        assert not response["ok"]
        assert response["error"]["type"] == "query"

    @pytest.mark.parametrize(
        "line,message",
        [
            (
                '{"op": "ping", "pad": "' + "x" * MAX_LINE_BYTES + '"}',
                "request line exceeds 65536 bytes",
            ),
            ("[" * 5000 + "]" * 5000, "request nests too deeply"),
        ],
    )
    def test_handle_line_answers_oversized_and_deeply_nested_lines(
        self, line, message
    ):
        """Regression: a 10 KB line nesting 5,000 arrays raised
        RecursionError out of ``handle_line``."""
        service = AdmissionService()
        assert service.handle_line(line) == {
            "id": None,
            "ok": False,
            "error": {"type": "query", "message": message},
        }
        assert service.queries == 1

    def test_handle_line_answers_an_infinite_range_bound(self):
        """Regression: ``json.loads`` parses ``Infinity``, which once
        reached the generator's RNG and raised ``OverflowError`` out of
        ``handle_line``."""
        response = AdmissionService().handle_line(
            '{"op": "design", "num_cores": 2, "seed": 1,'
            ' "normalized_range": [0.05, Infinity]}'
        )
        assert not response["ok"]
        assert response["error"]["type"] == "query"
        assert "finite" in response["error"]["message"]

    def test_stats_counts_queries(self):
        service = AdmissionService()
        service.handle({"op": "ping"})
        service.handle(dict(DESIGN_QUERY))
        stats = service.handle({"op": "stats"})["result"]
        assert stats["queries"] == 3
        assert stats["kernel"]["exact_solves"] >= 0

    def test_evicted_contexts_keep_their_kernel_counters(self):
        """Regression (PR 7): ``stats`` merged only the *live* LRU contexts,
        so evicting a context silently dropped its counters -- a daemon's
        kernel totals could even shrink between two ``stats`` queries.
        Evicted counters must retire into the aggregate instead."""
        tiny = AdmissionService(max_contexts=1)
        roomy = AdmissionService(max_contexts=8)
        for seed in (1, 2, 3):
            tiny.handle(dict(DESIGN_QUERY, seed=seed))
            roomy.handle(dict(DESIGN_QUERY, seed=seed))
        tiny_kernel = tiny.handle({"op": "stats"})["result"]["kernel"]
        roomy_kernel = roomy.handle({"op": "stats"})["result"]["kernel"]
        assert tiny_kernel["exact_solves"] > 0
        assert tiny_kernel == roomy_kernel


@pytest.fixture
def fresh_kernel_state(monkeypatch):
    """Forget the process's backend load attempt around one test."""
    compiled._reset_for_tests()
    yield monkeypatch
    compiled._reset_for_tests()


class TestKernelTier:
    """The service resolves its tier once, up front, and reports it."""

    def test_default_service_loads_the_backend_before_its_first_query(
        self, fresh_kernel_state
    ):
        calls = []
        load = compiled.load_kernel

        def spy():
            calls.append(True)
            return load()

        fresh_kernel_state.setattr(compiled, "load_kernel", spy)
        service = AdmissionService()
        assert calls, "the tier must resolve at construction"
        assert service.queries == 0
        expected = "compiled" if load() is not None else "python"
        stats = service.handle({"op": "stats"})["result"]
        assert stats["kernel_tier"] == service.kernel_tier == expected

    def test_python_tier_never_loads_the_backend(self, fresh_kernel_state):
        def forbidden():
            raise AssertionError("the python tier loaded the backend")

        fresh_kernel_state.setattr(compiled, "load_kernel", forbidden)
        service = AdmissionService(kernel="python")
        assert service.handle(dict(FEASIBLE_ADMIT))["ok"]
        stats = service.handle({"op": "stats"})["result"]
        assert stats["kernel_tier"] == "python"

    def test_disabled_backend_reports_the_python_tier(self, fresh_kernel_state):
        fresh_kernel_state.setenv("REPRO_DISABLE_COMPILED", "1")
        compiled._reset_for_tests()
        service = AdmissionService()
        assert service.handle(dict(DESIGN_QUERY))["ok"]
        stats = service.handle({"op": "stats"})["result"]
        assert stats["kernel_tier"] == "python"
        assert stats["kernel"]["compiled_solves"] == 0
