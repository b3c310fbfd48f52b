"""Kernel-selection plumbing, fallback behaviour, the kernel contract and
exact solve-skipping.

Four concerns live here:

* the ``kernel=`` knob -- one validator (`normalise_kernel`) behind
  :class:`~repro.rta.RtaContext`, :class:`~repro.batch.service.BatchDesignService`,
  :class:`~repro.experiments.config.ExperimentConfig` and the CLI
  ``--kernel`` flag; unknown names fail with one line, an unavailable
  compiled backend warns **once per process** and falls back;
* forced fallback -- with the backend import-blocked (or disabled via
  ``REPRO_DISABLE_COMPILED``) the compiled tier must produce byte-equal
  results through the pure-python kernels;
* the kernel contract -- a compiled entry point that reports a broken
  invariant (a warm-started Eq. 1 iterate falling, a lower task failing
  the selector's Line-8 refresh) raises ``KernelContractError``, an
  internal failure rather than a user error;
* the python tier's exact solve-skipping layers (carry-in certification,
  probe pinning, Line-8 refresh reuse) fire on a sweep slice and leave
  results equal to the frozen reference.
"""

from __future__ import annotations

import builtins
import sys
import warnings

import pytest

from repro.core.analysis import CarryInStrategy, SecurityTaskState
from repro.errors import ConfigurationError, ReproError
from repro.model import Platform, RealTimeTask
from repro.rta import (
    RtaContext,
    TaskView,
    kernel_status,
    normalise_kernel,
    security_response_time,
)
from repro.rta import compiled as compiled_pkg


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

    def test_every_kernel_knob_defaults_to_the_default_tier(self):
        import dataclasses
        import inspect

        from repro.batch.orchestrator import SpecBlock
        from repro.batch.service import BatchDesignService
        from repro.serve import ServeDaemon
        from repro.serve.service import AdmissionService

        default = compiled_pkg.DEFAULT_KERNEL
        assert default == "auto"
        assert RtaContext(2).kernel_name == default
        assert BatchDesignService(2)._new_context().kernel_name == default
        block_default = {
            field.name: field.default for field in dataclasses.fields(SpecBlock)
        }["kernel"]
        assert block_default == default
        for owner in (BatchDesignService, AdmissionService, ServeDaemon):
            parameter = inspect.signature(owner).parameters["kernel"]
            assert parameter.default == default, owner

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

    @requires_compiled
    @pytest.mark.parametrize("probe", ("probe_response", "admit"))
    def test_bottom_probe_dispatches_eq1(self, probe):
        """A task probed below every task on a core (the HYDRA allocation's
        question) runs one compiled Eq. 1 solve on the full-demand path."""

        def solve(kernel):
            context = RtaContext(2, kernel=kernel)
            state = context.core_state(
                [
                    TaskView("rt0", 2, 10, 10, (0, "rt0")),
                    TaskView("rt1", 3, 14, 14, (1, "rt1")),
                ]
            )
            view = TaskView("sec0", 4, 60, 60, (2, "sec0"))
            if probe == "probe_response":
                response = state.probe_response(view, 60)
            else:
                response = state.admit(view, need_response=True).response
            return response, context.stats.compiled_solves

        compiled_response, compiled_solves = solve("compiled")
        python_response, python_solves = solve("python")
        assert compiled_response == python_response == 9
        assert (compiled_solves, python_solves) == (1, 0)

    @requires_compiled
    def test_summary_line_mentions_compiled_and_dedup(self):
        context = RtaContext(2, kernel="compiled")
        line = context.stats.summary_line()
        assert "compiled solves" in line
        assert "dedup" in line


class _ContractViolatingLib:
    """A stand-in for the C module whose HYDRA period search reports that
    the seeded Eq. 1 solve of security task ``failed`` went backwards, and
    whose HYDRA-C selector reports a failed Line-8 refresh."""

    def __init__(self, failed):
        self.failed = failed

    def hydra_partitioned_periods(self, *operands):
        responses = operands[-1]
        responses[self.failed] = compiled_pkg.CONTRACT_VIOLATION
        return compiled_pkg.CONTRACT_VIOLATION

    def hydra_select_periods(self, *operands):
        return compiled_pkg.CONTRACT_VIOLATION


class TestKernelContract:
    def test_contract_violation_names_entry_point_and_core(self):
        cffi = pytest.importorskip("cffi")
        kernel = compiled_pkg.CompiledKernel(cffi.FFI(), _ContractViolatingLib(2))
        cores = [([(2, 10)], [(4, 400)]), ([(3, 14)], [(3, 300), (5, 500)])]
        with pytest.raises(compiled_pkg.KernelContractError) as caught:
            kernel.partitioned_periods(cores, core_aware=True)
        message = str(caught.value)
        assert message.startswith("hydra_partitioned_periods: ")
        assert "core 1 (security task 1;" in message
        assert "[(3, 14)]" in message and "[(3, 300), (5, 500)]" in message

    def test_selector_contract_violation_names_entry_point_and_operands(self):
        """The C selector's Line-8 refresh failure is a kernel bug: it
        surfaces as ``KernelContractError``, never as an unschedulable
        verdict or a user error."""
        cffi = pytest.importorskip("cffi")
        kernel = compiled_pkg.CompiledKernel(cffi.FFI(), _ContractViolatingLib(0))
        rt_arrays = ([], [], [], 2)
        with pytest.raises(compiled_pkg.KernelContractError) as caught:
            kernel.select_periods(
                2, rt_arrays, [7, 9], [5, 9], [400, 900], [0, 1], False
            )
        message = str(caught.value)
        assert message.startswith("hydra_select_periods: ")
        assert "2 cores" in message
        assert "[7, 9]" in message and "[400, 900]" in message

    def test_contract_error_is_not_a_user_error(self):
        """The CLI and serve answer ``ReproError`` as the user's mistake;
        a kernel bug must surface as an internal failure instead."""
        assert issubclass(compiled_pkg.KernelContractError, RuntimeError)
        assert not issubclass(compiled_pkg.KernelContractError, ReproError)


# ---------------------------------------------------------------------------
# Exact solve-skipping (python tier)
# ---------------------------------------------------------------------------


class TestSolveSkipping:
    def test_selector_dedup_layers_fire_and_results_equal(self):
        """The within-task-set solve-skipping layers (carry-in
        certification, probe pinning, Line-8 refresh reuse) actually
        trigger on a small sweep slice and leave results byte-equal to the
        frozen reference.
        """
        from repro.batch.orchestrator import build_specs
        from repro.batch.reference import reference_evaluate_one
        from repro.batch.service import BatchDesignService
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig(
            num_cores=2,
            tasksets_per_group=1,
            seed=5061,
            schemes=("HYDRA-C",),
        )
        specs = build_specs(config)[:6]
        # Pinning and the refresh-reuse count are python-tier only; the
        # default tier would take the one-call compiled selector where the
        # backend builds.
        service = BatchDesignService(
            2, scheme_names=("HYDRA-C",), kernel="python"
        )
        sink: dict = {}
        frozen = [
            reference_evaluate_one(
                2,
                spec.group_index,
                spec.normalized_range,
                spec.seed,
                scheme_names=("HYDRA-C",),
            )
            for spec in specs
        ]
        assert service.evaluate_specs(specs, stats_sink=sink) == frozen
        assert sink["dedup_certified_sets"] > 0
        assert sink["dedup_pinned_solves"] > 0
        assert sink["dedup_refresh_reuses"] > 0
