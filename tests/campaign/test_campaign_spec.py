"""Unit tests for campaign specs, jitter models and trial derivation."""

import pytest

from repro.campaign import CampaignSpec, JitterModel, build_trial_specs
from repro.errors import ConfigurationError
from repro.schemes import REGISTRY


class TestJitterModel:
    def test_none_default(self):
        jitter = JitterModel.none()
        assert jitter.kind == "none"
        assert jitter.max_offset == 0
        assert jitter.describe() == "none"

    def test_uniform(self):
        jitter = JitterModel.uniform(250)
        assert jitter.describe() == "uniform:250"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "gaussian"},
            {"kind": "none", "max_offset": 3},
            {"kind": "uniform", "max_offset": 0},
            {"kind": "uniform", "max_offset": -1},
        ],
    )
    def test_invalid_models_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            JitterModel(**kwargs)


class TestCampaignSpec:
    def test_defaults_select_canonical_schemes(self):
        spec = CampaignSpec(num_trials=1)
        assert spec.schemes == REGISTRY.canonical_names()
        assert spec.backend == "batch"

    def test_scheme_validation_is_registry_driven(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            CampaignSpec(schemes=("NOPE",))
        spec = CampaignSpec(schemes=["HYDRA-RF", "HYDRA-C"])
        assert spec.schemes == ("HYDRA-RF", "HYDRA-C")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_trials": 0},
            {"horizon": 0},
            {"latest_injection_fraction": 0.0},
            {"latest_injection_fraction": 1.5},
            {"backend": "warp"},
            {"n_jobs": 0},
            {"chunk_size": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CampaignSpec(**kwargs)

    def test_fingerprint_excludes_execution_knobs_and_trial_count(self):
        base = CampaignSpec(num_trials=3, seed=7)
        variants = [
            CampaignSpec(num_trials=3, seed=7, backend="tick"),
            CampaignSpec(num_trials=3, seed=7, n_jobs=4),
            CampaignSpec(num_trials=3, seed=7, chunk_size=99),
            CampaignSpec(num_trials=3, seed=7, checkpoint_path="x.jsonl"),
            # num_trials excluded: prefix-stable seeds make a longer
            # campaign an extension of a shorter one's checkpoint.
            CampaignSpec(num_trials=30, seed=7),
        ]
        for variant in variants:
            assert variant.fingerprint() == base.fingerprint()

    def test_fingerprint_includes_result_determining_fields(self):
        base = CampaignSpec(num_trials=3, seed=7).fingerprint()
        assert CampaignSpec(num_trials=3, seed=8).fingerprint() != base
        assert (
            CampaignSpec(num_trials=3, seed=7, horizon=1_000).fingerprint()
            != base
        )
        assert (
            CampaignSpec(
                num_trials=3, seed=7, jitter=JitterModel.uniform(10)
            ).fingerprint()
            != base
        )
        assert (
            CampaignSpec(
                num_trials=3, seed=7, schemes=("HYDRA-C", "HYDRA")
            ).fingerprint()
            != base
        )


class TestBuildTrialSpecs:
    def test_one_spec_per_trial_with_distinct_seeds(self):
        spec = CampaignSpec(num_trials=10, seed=3)
        trials = build_trial_specs(spec)
        assert [trial.trial_index for trial in trials] == list(range(10))
        assert len({trial.seed for trial in trials}) == 10

    def test_derivation_is_deterministic(self):
        spec = CampaignSpec(num_trials=6, seed=3)
        assert build_trial_specs(spec) == build_trial_specs(spec)

    def test_base_seed_changes_trial_seeds(self):
        first = {t.seed for t in build_trial_specs(CampaignSpec(num_trials=5, seed=1))}
        second = {t.seed for t in build_trial_specs(CampaignSpec(num_trials=5, seed=2))}
        assert first != second

    def test_prefix_stability(self):
        """Growing a campaign keeps the shared trial prefix identical, so a
        longer campaign extends a shorter one's statistics."""
        short = build_trial_specs(CampaignSpec(num_trials=4, seed=11))
        long = build_trial_specs(CampaignSpec(num_trials=8, seed=11))
        assert long[:4] == short
