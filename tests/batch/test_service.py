"""Cross-validation of the batched evaluation service.

The batch service shares the Eq. 1 RT analysis and the greedy security
allocation across schemes, and the optimised analysis memoises interference
terms per window.  None of that may change a single result: every test here
pins equality against the frozen seed path (:mod:`repro.batch.reference`)
or against the unshared per-scheme entry points.
"""

import pytest

from repro.baselines.hydra import Hydra
from repro.baselines.hydra_tmax import HydraTMax
from repro.batch.orchestrator import build_specs
from repro.batch.reference import reference_evaluate_one
from repro.batch.results import SCHEME_NAMES, TasksetEvaluation
from repro.batch.service import BatchDesignService, TasksetSpec
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig


@pytest.fixture(scope="module")
def cross_validation_config():
    return ExperimentConfig(
        num_cores=2,
        tasksets_per_group=2,
        utilization_groups=((0.05, 0.2), (0.4, 0.55), (0.7, 0.85)),
        seed=90125,
    )


@pytest.fixture(scope="module")
def batch_evaluations(cross_validation_config):
    service = BatchDesignService(cross_validation_config.num_cores)
    return [
        service.evaluate_spec(spec)
        for spec in build_specs(cross_validation_config)
    ]


class TestServiceMatchesSeedPath:
    def test_identical_to_frozen_reference(
        self, cross_validation_config, batch_evaluations
    ):
        """The shared-cache service is an exact refactor of the seed path."""
        for spec, batched in zip(
            build_specs(cross_validation_config), batch_evaluations
        ):
            seed_path = reference_evaluate_one(
                cross_validation_config.num_cores,
                spec.group_index,
                spec.normalized_range,
                spec.seed,
            )
            assert batched == seed_path

    def test_every_scheme_reported(self, batch_evaluations):
        for evaluation in batch_evaluations:
            assert evaluation is not None
            assert set(evaluation.schedulable) == set(SCHEME_NAMES)
            assert set(evaluation.periods) == set(SCHEME_NAMES)

    def test_accepted_schemes_provide_periods_within_bounds(
        self, batch_evaluations
    ):
        for evaluation in batch_evaluations:
            for scheme in SCHEME_NAMES:
                periods = evaluation.periods[scheme]
                if not evaluation.accepted(scheme):
                    assert periods is None
                    continue
                assert periods is not None
                for task, period in periods.items():
                    assert 0 < period <= evaluation.max_periods[task]


class TestSharedAllocation:
    def test_shared_allocation_matches_unshared_designs(
        self, cross_validation_config
    ):
        """HYDRA/HYDRA-TMax must not notice the shared allocation phase."""
        service = BatchDesignService(cross_validation_config.num_cores)
        spec = build_specs(cross_validation_config)[2]
        taskset, allocation = service.generate(spec)
        designs = service.design_all(taskset, allocation)
        for scheme_name in ("HYDRA", "HYDRA-TMax"):
            shared = designs[scheme_name]
            unshared = {
                "HYDRA": Hydra(service.platform),
                "HYDRA-TMax": HydraTMax(service.platform),
            }[scheme_name].design(taskset, allocation.mapping)
            assert shared.schedulable == unshared.schedulable
            assert shared.security_periods() == unshared.security_periods()
            assert shared.response_times == unshared.response_times
            assert shared.security_allocation == unshared.security_allocation


class TestServiceConfiguration:
    def test_scheme_subset(self, cross_validation_config):
        service = BatchDesignService(2, scheme_names=("HYDRA-C", "GLOBAL-TMax"))
        spec = build_specs(cross_validation_config)[0]
        evaluation = service.evaluate_spec(spec)
        assert set(evaluation.schedulable) == {"HYDRA-C", "GLOBAL-TMax"}

    def test_global_only_subset_skips_partitioned_rt_analysis(
        self, cross_validation_config, monkeypatch
    ):
        """GLOBAL-TMax ignores the partition, so a global-only service must
        not pay for the Eq. 1 analysis."""
        import repro.batch.service as service_module

        calls = []

        def counting_rt_check(*args, **kwargs):
            calls.append(args)
            raise AssertionError("rt check should not run for a global-only service")

        monkeypatch.setattr(
            service_module, "partitioned_rt_check", counting_rt_check
        )
        service = BatchDesignService(2, scheme_names=("GLOBAL-TMax",))
        spec = build_specs(cross_validation_config)[0]
        evaluation = service.evaluate_spec(spec)
        assert calls == []
        assert set(evaluation.schedulable) == {"GLOBAL-TMax"}

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchDesignService(2, scheme_names=("HYDRA-C", "NOT-A-SCHEME"))

    def test_unknown_search_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="search mode"):
            BatchDesignService(2, search_mode="quadratic")

    def test_search_mode_reaches_the_period_search(self):
        """``search_mode`` must actually drive Algorithm 2 inside the
        plugins: identical periods either way (monotone feasibility), but
        the linear scan performs far more WCRT computations."""
        binary = BatchDesignService(2, scheme_names=("HYDRA-C",))
        linear = BatchDesignService(
            2, scheme_names=("HYDRA-C",), search_mode="linear"
        )
        spec = TasksetSpec(
            job_index=0, group_index=3, normalized_range=(0.35, 0.45), seed=77
        )
        taskset, allocation = binary.generate(spec)
        from_binary = binary.design_all(taskset, allocation)["HYDRA-C"]
        from_linear = linear.design_all(taskset, allocation)["HYDRA-C"]
        assert from_binary.schedulable and from_linear.schedulable
        assert (
            from_binary.taskset.security_period_vector()
            == from_linear.taskset.security_period_vector()
        )
        assert (
            from_linear.metadata["analysis_calls"]
            > from_binary.metadata["analysis_calls"]
        )

    def test_invalid_core_count_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchDesignService(0)

    def test_exhausted_generation_budget_returns_none(self, monkeypatch):
        """Every attempt failing Eq. 1 exhausts the budget -> None slot."""
        import repro.batch.service as service_module
        from repro.errors import AllocationError

        attempts = []

        def always_fails(taskset, platform, rta_context=None):
            attempts.append(taskset)
            raise AllocationError("forced for the retry-budget test")

        monkeypatch.setattr(
            service_module, "partition_rt_tasks", always_fails
        )
        service = BatchDesignService(2, max_generation_attempts=3)
        spec = TasksetSpec(
            job_index=0, group_index=0, normalized_range=(0.3, 0.4), seed=11
        )
        assert service.generate(spec) is None
        assert len(attempts) == 3
        assert service.evaluate_spec(spec) is None


class TestEvaluationRoundTrip:
    def test_json_round_trip_is_identity(self, batch_evaluations):
        for evaluation in batch_evaluations:
            assert (
                TasksetEvaluation.from_json(evaluation.to_json()) == evaluation
            )
