"""Kernel-selection plumbing, fallback behaviour and structural dedup.

Three concerns live here:

* the ``kernel=`` knob -- one validator (`normalise_kernel`) behind
  :class:`~repro.rta.RtaContext`, :class:`~repro.batch.service.BatchDesignService`,
  :class:`~repro.experiments.config.ExperimentConfig` and the CLI
  ``--kernel`` flag; unknown names fail with one line, an unavailable
  compiled backend warns **once per process** and falls back;
* forced fallback -- with the backend import-blocked (or disabled via
  ``REPRO_DISABLE_COMPILED``) the compiled tier must produce byte-equal
  results through the pure-python kernels;
* :class:`~repro.rta.dedup.StructuralCache` -- the MISS sentinel (cached
  ``None`` verdicts are valid), the wholesale clear at ``max_entries``
  and the cross-task-set verdict replay it enables.
"""

from __future__ import annotations

import builtins
import sys
import warnings

import pytest

from repro.core.analysis import CarryInStrategy, SecurityTaskState
from repro.errors import ConfigurationError
from repro.model import Platform, RealTimeTask
from repro.rta import (
    RtaContext,
    StructuralCache,
    kernel_status,
    normalise_kernel,
    security_response_time,
)
from repro.rta import compiled as compiled_pkg
from repro.rta.dedup import MISS


@pytest.fixture
def clean_kernel_state(monkeypatch):
    """Isolate the module-level load/warn state and restore it afterwards."""
    monkeypatch.delenv("REPRO_DISABLE_COMPILED", raising=False)
    compiled_pkg._reset_for_tests()
    yield monkeypatch
    compiled_pkg._reset_for_tests()


# ---------------------------------------------------------------------------
# The kernel= knob
# ---------------------------------------------------------------------------


class TestKernelKnob:
    def test_unknown_kernel_is_one_line_configuration_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            normalise_kernel("jit")
        message = str(excinfo.value)
        assert "\n" not in message
        assert "jit" in message and "python" in message

    def test_context_validates_kernel(self):
        with pytest.raises(ConfigurationError):
            RtaContext(2, kernel="bogus")

    def test_service_validates_kernel(self):
        from repro.batch.service import BatchDesignService

        with pytest.raises(ConfigurationError):
            BatchDesignService(2, kernel="bogus")

    def test_experiment_config_validates_kernel(self):
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ConfigurationError):
            ExperimentConfig(kernel="bogus")

    def test_python_tier_never_loads_backend(self, clean_kernel_state):
        context = RtaContext(2, kernel="python")
        assert context.compiled_kernel is None
        assert compiled_pkg._LOAD_TRIED is False

    def test_kernel_status_reports_both_tiers(self):
        status = kernel_status()
        assert status["python"]["available"] is True
        assert set(status) == {"python", "compiled"}
        assert isinstance(status["compiled"]["available"], bool)

    def test_kernels_cli_lists_backends(self, capsys):
        from repro.cli import main

        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "python" in out and "compiled" in out


# ---------------------------------------------------------------------------
# Fallback behaviour
# ---------------------------------------------------------------------------


def _fallback_workload(kernel_mode: str):
    """A small Eq. 6-8 scenario evaluated under *kernel_mode*."""
    rt_by_core = {
        0: [RealTimeTask(name="rt0", wcet=2, period=10)],
        1: [RealTimeTask(name="rt1", wcet=3, period=14)],
    }
    states = [
        SecurityTaskState(name="hp0", wcet=2, period=50, response_time=9)
    ]
    return security_response_time(
        security_wcet=4,
        limit=300,
        rt_tasks_by_core=rt_by_core,
        higher_security=states,
        num_cores=2,
        strategy=CarryInStrategy.EXACT,
        rta_context=RtaContext(2, kernel=kernel_mode),
    )


class TestFallback:
    def test_disabled_backend_warns_once_not_per_context(
        self, clean_kernel_state
    ):
        clean_kernel_state.setenv("REPRO_DISABLE_COMPILED", "1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            contexts = [RtaContext(2, kernel="compiled") for _ in range(5)]
        assert all(c.compiled_kernel is None for c in contexts)
        fallback = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(fallback) == 1
        assert "REPRO_DISABLE_COMPILED" in str(fallback[0].message)

    def test_auto_falls_back_silently(self, clean_kernel_state):
        clean_kernel_state.setenv("REPRO_DISABLE_COMPILED", "1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            context = RtaContext(2, kernel="auto")
        assert context.compiled_kernel is None
        assert not [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]

    def test_import_blocked_backend_falls_back(self, clean_kernel_state):
        """Simulate a machine without cffi: import blocked, results equal."""
        real_import = builtins.__import__

        def blocking_import(name, *args, **kwargs):
            if name == "cffi" or name.startswith("cffi."):
                raise ImportError("cffi blocked for the forced-fallback test")
            return real_import(name, *args, **kwargs)

        clean_kernel_state.delitem(sys.modules, "cffi", raising=False)
        clean_kernel_state.setattr(builtins, "__import__", blocking_import)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            context = RtaContext(2, kernel="compiled")
        assert context.compiled_kernel is None
        assert "ImportError" in (compiled_pkg._LOAD_ERROR or "")

    def test_forced_fallback_results_equal_python(self, clean_kernel_state):
        python_result = _fallback_workload("python")
        clean_kernel_state.setenv("REPRO_DISABLE_COMPILED", "1")
        compiled_pkg._reset_for_tests()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fallback_result = _fallback_workload("compiled")
        assert fallback_result == python_result


# ---------------------------------------------------------------------------
# Compiled tier (exercised only where the backend builds)
# ---------------------------------------------------------------------------

requires_compiled = pytest.mark.skipif(
    not compiled_pkg.kernel_available(),
    reason="compiled kernel backend unavailable on this machine",
)


class TestCompiledTier:
    @requires_compiled
    def test_compiled_solves_are_counted(self, simple_taskset):
        from repro.core.period_selection import select_periods

        def select(kernel):
            context = RtaContext(2, kernel=kernel)
            result = select_periods(
                simple_taskset,
                {"rt-fast": 0, "rt-slow": 1},
                Platform(num_cores=2),
                rta_context=context,
            )
            return result, context.stats

        compiled_result, compiled = select("compiled")
        python_result, python = select("python")
        assert compiled_result.periods == python_result.periods
        assert compiled_result.response_times == python_result.response_times
        assert compiled.compiled_solves > 0 and compiled.seeded_solves > 0
        assert python.compiled_solves == 0
        # The one-call selector bypasses the python tier's dedup layers.
        assert compiled.dedup_verdict_hits == compiled.dedup_verdict_misses == 0

    @requires_compiled
    def test_summary_line_mentions_compiled_and_dedup(self):
        context = RtaContext(2, kernel="compiled")
        line = context.stats.summary_line()
        assert "compiled solves" in line
        assert "dedup" in line


# ---------------------------------------------------------------------------
# Structural dedup
# ---------------------------------------------------------------------------


class TestStructuralCache:
    def test_miss_sentinel_distinguishes_cached_none(self):
        cache = StructuralCache()
        assert cache.verdict("k") is MISS
        cache.store_verdict("k", None)
        assert cache.verdict("k") is None
        assert cache.verdict("other") is MISS

    def test_max_entries_clears_wholesale(self):
        cache = StructuralCache(max_entries=2)
        cache.store_verdict("a", 1)
        cache.store_verdict("b", 2)
        assert len(cache) == 2
        cache.store_verdict("c", 3)
        assert cache.verdict("a") is MISS
        assert cache.verdict("c") == 3

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            StructuralCache(max_entries=0)

    def test_verdict_replay_across_contexts(self):
        """Structurally equal task sets replay each other's verdicts."""
        shared = StructuralCache()
        rt_by_core = {0: [RealTimeTask(name="a", wcet=2, period=10)]}
        # Same (wcet, period) layout, different names: same structural key.
        renamed = {0: [RealTimeTask(name="b", wcet=2, period=10)]}
        first = RtaContext(2, structural_cache=shared)
        second = RtaContext(2, structural_cache=shared)
        kwargs = dict(
            security_wcet=3,
            limit=200,
            higher_security=[],
            num_cores=2,
            strategy=CarryInStrategy.EXACT,
        )
        result_a = security_response_time(
            rt_tasks_by_core=rt_by_core, rta_context=first, **kwargs
        )
        result_b = security_response_time(
            rt_tasks_by_core=renamed, rta_context=second, **kwargs
        )
        assert result_a == result_b
        assert second.stats.dedup_verdict_hits >= 1

    def test_selector_dedup_layers_fire_and_results_equal(self):
        """The within-task-set dedup layers (carry-in certification, probe
        pinning, Line-8 refresh reuse) actually trigger on a small sweep
        slice and leave results byte-equal to the ``dedup=False`` profile.
        """
        from repro.batch.orchestrator import build_specs
        from repro.batch.service import BatchDesignService
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig(
            num_cores=2,
            tasksets_per_group=1,
            seed=5061,
            schemes=("HYDRA-C",),
        )
        specs = build_specs(config)[:6]
        dedup = BatchDesignService(
            2, scheme_names=("HYDRA-C",), dedup=True
        )
        plain = BatchDesignService(
            2, scheme_names=("HYDRA-C",), dedup=False
        )
        sink: dict = {}
        assert dedup.evaluate_specs(
            specs, stats_sink=sink
        ) == plain.evaluate_specs(specs)
        assert sink["dedup_certified_sets"] > 0
        assert sink["dedup_pinned_solves"] > 0
        assert sink["dedup_refresh_reuses"] > 0
        plain_sink: dict = {}
        plain.evaluate_specs(specs, stats_sink=plain_sink)
        for counter in (
            "dedup_certified_sets",
            "dedup_pinned_sets",
            "dedup_pinned_solves",
            "dedup_refresh_reuses",
            "dedup_verdict_hits",
        ):
            assert plain_sink.get(counter, 0) == 0, counter

    def test_dedup_disabled_without_warm_start(self):
        assert RtaContext(2, warm_start=False).structural_cache is None
        assert RtaContext(2, warm_start=True).structural_cache is not None
        assert (
            RtaContext(2, warm_start=False, dedup=True).structural_cache
            is not None
        )
        assert (
            RtaContext(2, warm_start=True, dedup=False).structural_cache
            is None
        )
