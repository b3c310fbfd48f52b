"""Unit and property tests for the Table-3 taskset generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.config import UTILIZATION_GROUPS
from repro.generation.taskset_generator import (
    TasksetGenerationConfig,
    TasksetGenerator,
    generate_taskset,
)


class TestConfig:
    def test_default_matches_table3(self):
        config = TasksetGenerationConfig()
        assert config.rt_tasks_per_core == (3, 10)
        assert config.security_tasks_per_core == (2, 5)
        assert config.rt_period_range == (10, 1000)
        assert config.security_max_period_range == (1500, 3000)
        assert config.security_utilization_ratio == pytest.approx(0.3)

    def test_absolute_task_count_ranges_scale_with_cores(self):
        config = TasksetGenerationConfig(num_cores=4)
        assert config.rt_task_count_range == (12, 40)
        assert config.security_task_count_range == (8, 20)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TasksetGenerationConfig(num_cores=0)
        with pytest.raises(ConfigurationError):
            TasksetGenerationConfig(rt_tasks_per_core=(5, 2))
        with pytest.raises(ConfigurationError):
            TasksetGenerationConfig(security_utilization_ratio=0.0)
        with pytest.raises(ConfigurationError):
            TasksetGenerationConfig(ticks_per_ms=0)


class TestGenerator:
    def test_task_counts_in_range(self):
        config = TasksetGenerationConfig(num_cores=2)
        generator = TasksetGenerator(config, seed=0)
        for _ in range(10):
            taskset = generator.generate(1.0)
            assert 6 <= taskset.num_rt_tasks <= 20
            assert 4 <= taskset.num_security_tasks <= 10

    def test_utilization_close_to_target(self):
        generator = TasksetGenerator(TasksetGenerationConfig(num_cores=2), seed=1)
        for target in (0.4, 0.9, 1.5):
            taskset = generator.generate(target)
            assert taskset.minimum_utilization == pytest.approx(target, rel=0.25)

    def test_security_share_close_to_thirty_percent(self):
        generator = TasksetGenerator(TasksetGenerationConfig(num_cores=2), seed=2)
        taskset = generator.generate(1.3)
        ratio = taskset.security_min_utilization / taskset.rt_utilization
        assert ratio == pytest.approx(0.3, rel=0.25)

    def test_periods_within_ranges(self):
        config = TasksetGenerationConfig(num_cores=2, ticks_per_ms=1)
        taskset = TasksetGenerator(config, seed=3).generate(1.0)
        for task in taskset.rt_tasks:
            assert 10 <= task.period <= 1000
        for task in taskset.security_tasks:
            assert 1500 <= task.max_period <= 3000

    def test_ticks_per_ms_scaling(self):
        config = TasksetGenerationConfig(num_cores=2, ticks_per_ms=10)
        taskset = TasksetGenerator(config, seed=4).generate(1.0)
        assert all(100 <= task.period <= 10_000 for task in taskset.rt_tasks)

    def test_determinism(self):
        a = TasksetGenerator(TasksetGenerationConfig(), seed=7).generate(1.0)
        b = TasksetGenerator(TasksetGenerationConfig(), seed=7).generate(1.0)
        assert a.security_max_period_vector() == b.security_max_period_vector()
        assert [t.wcet for t in a.rt_tasks] == [t.wcet for t in b.rt_tasks]

    def test_generate_normalized(self):
        generator = TasksetGenerator(TasksetGenerationConfig(num_cores=4), seed=5)
        taskset = generator.generate_normalized(0.5)
        assert taskset.minimum_utilization == pytest.approx(2.0, rel=0.15)

    def test_generate_group(self):
        generator = TasksetGenerator(TasksetGenerationConfig(num_cores=2), seed=6)
        group = generator.generate_group((0.3, 0.4), count=5)
        assert len(group) == 5
        for taskset in group:
            assert 0.25 <= taskset.normalized_utilization(2) <= 0.55

    def test_invalid_requests(self):
        generator = TasksetGenerator(TasksetGenerationConfig(num_cores=2), seed=8)
        with pytest.raises(ConfigurationError):
            generator.generate(0.0)
        with pytest.raises(ConfigurationError):
            generator.generate(3.0)
        with pytest.raises(ConfigurationError):
            generator.generate_group((0.0, 0.5), 3)
        with pytest.raises(ConfigurationError):
            generator.generate_group((0.2, 0.5), 0)

    def test_rng_and_seed_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            TasksetGenerator(
                TasksetGenerationConfig(), rng=np.random.default_rng(0), seed=1
            )

    def test_convenience_wrapper(self):
        taskset = generate_taskset(1.0, seed=42)
        assert taskset.num_rt_tasks > 0
        assert taskset.num_security_tasks > 0

    @given(target=st.floats(0.1, 1.9), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_generated_tasksets_are_structurally_valid(self, target, seed):
        taskset = generate_taskset(target, seed=seed)
        for task in taskset.rt_tasks:
            assert 1 <= task.wcet <= task.period
        for task in taskset.security_tasks:
            assert 1 <= task.wcet <= task.max_period
            assert task.period is None


#: sha256 of every pinned task set's integer parameters (see
#: :func:`_integer_digest`) as draws of the NumPy ``randfixedsum`` produce
#: them.  Only the integer WCETs and periods leave the generator, so this
#: pins its observable output.
GENERATOR_PIN = "3a2c639d359494bd76f44dc37939b33c04e82993d42c495e92fd160039087ad5"


def _integer_digest(sets_per_group: int = 8) -> str:
    """Digest of ``(name, wcet, period)`` / ``(name, wcet, max_period)``
    over task sets drawn on 1, 2, 4 and 8 cores across the ten Table-3
    utilization groups, each group from its own fixed seed."""
    digest = hashlib.sha256()
    for cores in (1, 2, 4, 8):
        config = TasksetGenerationConfig(num_cores=cores)
        for index, group in enumerate(UTILIZATION_GROUPS):
            generator = TasksetGenerator(config, seed=1000 * cores + index)
            for taskset in generator.generate_group(group, sets_per_group):
                digest.update(f"set {cores} {index};".encode())
                for task in taskset.rt_tasks:
                    digest.update(f"{task.name},{task.wcet},{task.period};".encode())
                for task in taskset.security_tasks:
                    digest.update(
                        f"{task.name},{task.wcet},{task.max_period};".encode()
                    )
    return digest.hexdigest()


class TestIntegerOutputPin:
    def test_generator_integer_output_is_pinned(self):
        # 320 task sets: a fast stand-in for the figure goldens.
        assert _integer_digest() == GENERATOR_PIN
