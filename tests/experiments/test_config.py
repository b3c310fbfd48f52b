"""Unit tests for experiment configuration (Table 3 encoding)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import TABLE3_PARAMETERS, UTILIZATION_GROUPS, ExperimentConfig


class TestTable3:
    def test_parameters_match_paper(self):
        assert TABLE3_PARAMETERS["process_cores"] == (2, 4)
        assert TABLE3_PARAMETERS["num_rt_tasks_range_per_core"] == (3, 10)
        assert TABLE3_PARAMETERS["num_security_tasks_range_per_core"] == (2, 5)
        assert TABLE3_PARAMETERS["rt_task_period_ms"] == (10, 1000)
        assert TABLE3_PARAMETERS["security_max_period_ms"] == (1500, 3000)
        assert TABLE3_PARAMETERS["base_utilization_groups"] == 10
        assert TABLE3_PARAMETERS["tasksets_per_group"] == 250

    def test_ten_utilization_groups(self):
        assert len(UTILIZATION_GROUPS) == 10
        assert UTILIZATION_GROUPS[0] == pytest.approx((0.01, 0.1))
        assert UTILIZATION_GROUPS[-1] == pytest.approx((0.91, 1.0))


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.num_cores == 2
        assert len(config.utilization_groups) == 10
        assert config.generation_config().num_cores == 2

    def test_group_labels(self):
        labels = ExperimentConfig().group_labels()
        assert len(labels) == 10
        assert labels[2] == "[0.2,0.3]"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_cores=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(tasksets_per_group=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(n_jobs=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(utilization_groups=[(0.0, 0.5)])
        with pytest.raises(ConfigurationError):
            ExperimentConfig(chunk_size=0)

    def test_checkpoint_knobs_default_off(self):
        config = ExperimentConfig()
        assert config.checkpoint_path is None
        assert config.chunk_size == 25

    def test_checkpoint_knobs_accepted(self):
        config = ExperimentConfig(chunk_size=3, checkpoint_path="sweep.jsonl")
        assert config.chunk_size == 3
        assert config.checkpoint_path == "sweep.jsonl"

    def test_search_mode_defaults_to_binary(self):
        assert ExperimentConfig().search_mode == "binary"

    def test_kernel_defaults_to_the_default_tier(self):
        from repro.rta.compiled import DEFAULT_KERNEL

        assert ExperimentConfig().kernel == DEFAULT_KERNEL == "auto"

    def test_search_mode_accepts_enum_and_string(self):
        from repro.core.period_selection import SearchMode

        assert ExperimentConfig(search_mode="linear").search_mode == "linear"
        assert (
            ExperimentConfig(search_mode=SearchMode.LINEAR).search_mode
            == "linear"
        )

    def test_unknown_search_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="search mode"):
            ExperimentConfig(search_mode="quadratic")
