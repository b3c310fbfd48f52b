"""Determinism and resume tests for the campaign orchestrator.

The campaign's core guarantee mirrors the sweep orchestrator's: the result
stream is a pure function of the campaign fingerprint.  Worker count,
chunking, resume point and even the simulation backend must not change a
single record -- these tests pin each knob, including torn-write recovery
and cross-backend resume.
"""

import pytest

from repro.campaign import (
    CampaignResultStore,
    CampaignRunner,
    CampaignSpec,
    CampaignStats,
    JitterModel,
    build_trial_specs,
    format_campaign,
    run_campaign,
)
from repro.campaign.trial import _design_key
from repro.core.framework import HydraC, SchedulingPolicy, SystemDesign
from repro.errors import ConfigurationError
from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet
from repro.model.tasks import ResourceClaim
from repro.partitioning.allocation import Allocation
from repro.partitioning.heuristics import FitStrategy
from repro.platform import PlatformModel
from repro.rover.case_study import rover_taskset
from repro.rta import RtaContext
from repro.rta import compiled as compiled_pkg
from repro.rta.compiled import kernel_available
from repro.schemes import REGISTRY
from repro.sim import simulate_design_fast


def small_spec(**overrides):
    defaults = dict(
        schemes=("HYDRA-C", "HYDRA"),
        num_trials=5,
        horizon=9_000,
        seed=77,
        jitter=JitterModel.uniform(120),
        chunk_size=2,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestDeterminism:
    def test_rerun_is_identical(self):
        first = run_campaign(small_spec())
        second = run_campaign(small_spec())
        assert tuple(first.records) == tuple(second.records)

    def test_backend_invariance(self):
        fast = run_campaign(small_spec(backend="fast"))
        tick = run_campaign(small_spec(backend="tick"))
        batch = run_campaign(small_spec(backend="batch"))
        assert tuple(fast.records) == tuple(tick.records)
        assert tuple(batch.records) == tuple(tick.records)
        assert format_campaign(fast) == format_campaign(tick)
        assert format_campaign(batch) == format_campaign(tick)

    def test_dedup_invariance(self):
        """Design dedup is a pure execution knob: fanned-out outcomes are
        the per-scheme loop's outcomes, byte for byte, on every backend."""
        schemes = ("HYDRA-C", "HYDRA-C-WF", "HYDRA")
        reference = run_campaign(
            small_spec(schemes=schemes, backend="tick", dedup=False)
        )
        for backend in ("tick", "fast", "batch"):
            deduped = run_campaign(
                small_spec(schemes=schemes, backend=backend, dedup=True)
            )
            assert tuple(deduped.records) == tuple(reference.records)
            assert format_campaign(deduped) == format_campaign(reference)

    def test_n_jobs_invariance(self):
        serial = run_campaign(small_spec(n_jobs=1))
        parallel = run_campaign(small_spec(n_jobs=2))
        assert tuple(serial.records) == tuple(parallel.records)

    def test_chunk_size_invariance(self):
        small_chunks = run_campaign(small_spec(chunk_size=1))
        one_chunk = run_campaign(small_spec(chunk_size=50))
        assert tuple(small_chunks.records) == tuple(one_chunk.records)


class TestResume:
    def test_killed_and_resumed_checkpoint_is_byte_identical(self, tmp_path):
        spec = small_spec()
        uninterrupted = tmp_path / "full.jsonl"
        interrupted = tmp_path / "killed.jsonl"
        full = run_campaign(spec, store=CampaignResultStore(uninterrupted, spec))
        run_campaign(spec, store=CampaignResultStore(interrupted, spec))
        lines = interrupted.read_bytes().splitlines(keepends=True)
        interrupted.write_bytes(b"".join(lines[: 1 + spec.chunk_size]))

        resumed = run_campaign(
            spec, store=CampaignResultStore(interrupted, spec)
        )
        assert tuple(resumed.records) == tuple(full.records)
        assert interrupted.read_bytes() == uninterrupted.read_bytes()

    def test_resume_under_other_backend_is_byte_identical(self, tmp_path):
        """A checkpoint written by the fast backend may be finished by the
        tick oracle (and vice versa) without changing a byte."""
        fast_spec = small_spec(backend="fast", num_trials=4)
        tick_spec = small_spec(backend="tick", num_trials=4)
        reference = tmp_path / "fast.jsonl"
        crossed = tmp_path / "crossed.jsonl"
        run_campaign(fast_spec, store=CampaignResultStore(reference, fast_spec))
        run_campaign(fast_spec, store=CampaignResultStore(crossed, fast_spec))
        lines = crossed.read_bytes().splitlines(keepends=True)
        crossed.write_bytes(b"".join(lines[:3]))
        run_campaign(tick_spec, store=CampaignResultStore(crossed, tick_spec))
        assert crossed.read_bytes() == reference.read_bytes()

    def test_resume_across_every_backend_and_dedup_setting(self, tmp_path):
        """A checkpoint is backend- and dedup-agnostic: any (backend,
        dedup) combination finishes any other's partial checkpoint without
        changing a byte."""
        reference = tmp_path / "reference.jsonl"
        ref_spec = small_spec(num_trials=6, backend="tick", dedup=False)
        run_campaign(ref_spec, store=CampaignResultStore(reference, ref_spec))
        seed = tmp_path / "seed.jsonl"
        run_campaign(ref_spec, store=CampaignResultStore(seed, ref_spec))
        partial = seed.read_bytes().splitlines(keepends=True)[:3]
        for backend in ("tick", "fast", "batch"):
            for dedup in (False, True):
                crossed = tmp_path / f"{backend}-{dedup}.jsonl"
                crossed.write_bytes(b"".join(partial))
                spec = small_spec(num_trials=6, backend=backend, dedup=dedup)
                run_campaign(spec, store=CampaignResultStore(crossed, spec))
                assert crossed.read_bytes() == reference.read_bytes()

    def test_fully_complete_checkpoint_runs_no_chunks(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "camp.jsonl"
        first = run_campaign(spec, store=CampaignResultStore(path, spec))
        before = path.read_bytes()
        events = []
        again = run_campaign(
            spec, store=CampaignResultStore(path, spec), progress=events.append
        )
        assert events == []
        assert path.read_bytes() == before
        assert tuple(again.records) == tuple(first.records)

    def test_growing_trials_extends_the_checkpoint(self, tmp_path):
        """Raising --trials against the same checkpoint reuses the paid
        prefix and appends only the new suffix -- byte-identical to a
        straight run at the larger count."""
        path = tmp_path / "grow.jsonl"
        short_spec = small_spec(num_trials=3, checkpoint_path=str(path))
        run_campaign(short_spec)
        long_spec = small_spec(num_trials=6, checkpoint_path=str(path))
        extended = run_campaign(long_spec)

        reference = tmp_path / "straight.jsonl"
        straight = run_campaign(
            small_spec(num_trials=6, checkpoint_path=str(reference))
        )
        assert tuple(extended.records) == tuple(straight.records)
        assert path.read_bytes() == reference.read_bytes()

    def test_checkpoint_path_on_spec_creates_store(self, tmp_path):
        path = tmp_path / "auto.jsonl"
        spec = small_spec(checkpoint_path=str(path))
        result = run_campaign(spec)
        assert path.exists()
        reloaded = CampaignResultStore(path, spec).load()
        assert tuple(reloaded[i] for i in sorted(reloaded)) == tuple(result.records)


class TestProgressAndAggregates:
    def test_progress_called_per_chunk(self):
        events = []
        run_campaign(small_spec(chunk_size=2), progress=events.append)
        assert [event.chunk_index for event in events] == [1, 2, 3]
        assert [event.completed_trials for event in events] == [2, 4, 5]
        assert events[-1].fraction == 1.0
        assert all(event.resumed_trials == 0 for event in events)

    def test_paired_trials_reproduce_fig5_direction(self):
        """HYDRA-C detects faster than HYDRA on the rover (Fig. 5a)."""
        result = run_campaign(
            small_spec(num_trials=8, horizon=20_000, jitter=JitterModel.none())
        )
        assert result.detection_speedup("HYDRA-C", "HYDRA") > 0.0
        hydra_c = result.distribution("HYDRA-C")
        hydra = result.distribution("HYDRA")
        # Fig. 5b direction: migration costs HYDRA-C more context switches.
        assert hydra_c.mean_context_switches >= hydra.mean_context_switches

    def test_distribution_shape(self):
        result = run_campaign(small_spec(num_trials=4))
        dist = result.distribution("HYDRA-C")
        assert dist.num_trials == 4
        assert dist.num_attacks == 8  # two monitors, paired attacks
        assert dist.latencies == tuple(sorted(dist.latencies))
        assert 0.0 <= dist.detection_rate <= 1.0
        if dist.num_detected:
            assert dist.percentile(1.0) == dist.latencies[-1]
            points = dist.cdf_points(4)
            assert points[-1] == (dist.latencies[-1], 1.0)
            fractions = [fraction for _latency, fraction in points]
            assert fractions == sorted(fractions)

    def test_zero_detections_report_without_crashing(self):
        """A horizon too short for any scan to finish is a result, not a
        crash: the report shows dashes and an empty CDF."""
        result = run_campaign(
            CampaignSpec(
                schemes=("HYDRA-C",), num_trials=1, horizon=400, seed=7
            )
        )
        dist = result.distribution("HYDRA-C")
        assert dist.num_detected < dist.num_attacks  # at least one undetected
        report = format_campaign(result)
        if dist.num_detected == 0:
            assert "(no detections)" in report
            assert dist.cdf_points() == []
        assert "HYDRA-C" in report

    def test_unknown_scheme_in_distribution_is_keyerror(self):
        result = run_campaign(small_spec(num_trials=1))
        with pytest.raises(KeyError):
            result.distribution("GLOBAL-TMax")


class TestFastPathCounters:
    """Design dedup + batched-trial accounting (``--stats``)."""

    ALIASED = ("HYDRA-C", "HYDRA-C-WF", "HYDRA-C-GC", "HYDRA")

    def test_design_groups_alias_identical_designs(self):
        """On the rover every HYDRA-C re-partitioning variant reproduces
        HYDRA-C's design, so the three collapse into one group."""
        runner = CampaignRunner(small_spec(schemes=self.ALIASED))
        groups = sorted(runner.design_groups(), key=len, reverse=True)
        assert groups == [["HYDRA-C", "HYDRA-C-WF", "HYDRA-C-GC"], ["HYDRA"]]

    def test_dedup_off_keeps_singleton_groups(self):
        runner = CampaignRunner(small_spec(schemes=self.ALIASED, dedup=False))
        assert runner.design_groups() == [[name] for name in self.ALIASED]

    def test_serial_stats_count_dedup_hits_and_batched_trials(self):
        stats = CampaignStats()
        run_campaign(
            small_spec(schemes=self.ALIASED, num_trials=4, backend="batch"),
            stats_sink=stats,
        )
        # 2 design groups over 4 schemes: 2 aliases answered per trial.
        assert stats.design_dedup_hits == 2 * 4
        # 2 distinct designs simulated per trial, all on the rover (inside
        # the lockstep envelope: no fallbacks).
        assert stats.batched_trials == 2 * 4
        assert stats.fallback_trials == 0

    def test_fast_backend_counts_no_batched_trials(self):
        stats = CampaignStats()
        run_campaign(
            small_spec(schemes=self.ALIASED, num_trials=2, backend="fast"),
            stats_sink=stats,
        )
        assert stats.design_dedup_hits == 2 * 2
        assert stats.batched_trials == 0
        assert stats.fallback_trials == 0

    def test_default_backend_counts_batched_trials(self):
        """With no backend given the campaign runs the trace-free loop:
        every design-trial of the rover is inside its envelope (and of
        the C loop's guard)."""
        stats = CampaignStats()
        run_campaign(
            small_spec(schemes=self.ALIASED, num_trials=3), stats_sink=stats
        )
        # 2 distinct designs (see above) x 3 trials.
        assert stats.batched_trials == 2 * 3
        assert stats.fallback_trials == 0
        # Where the backend builds, every one of them ran the C loop.
        assert stats.compiled_trials == (
            stats.batched_trials if kernel_available() else 0
        )

    def test_forced_python_tier_compiles_no_trials(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_COMPILED", "1")
        compiled_pkg._reset_for_tests()
        try:
            stats = CampaignStats()
            run_campaign(
                small_spec(schemes=self.ALIASED, num_trials=3),
                stats_sink=stats,
            )
        finally:
            monkeypatch.delenv("REPRO_DISABLE_COMPILED")
            compiled_pkg._reset_for_tests()
        assert stats.batched_trials == 2 * 3
        assert stats.compiled_trials == 0

    def test_design_key_sees_rt_resource_claims(self):
        """Two designs differing only in an RT task's claim section must
        not alias: under a lock-using protocol they simulate differently,
        so dedup would report one design's outcome under the other."""
        platform = PlatformModel.parse("rm", "pip", "zero")

        def design(nav_claims):
            taskset = TaskSet.create(
                [
                    RealTimeTask(
                        name="nav", wcet=40, period=100, claims=nav_claims
                    )
                ],
                [
                    SecurityTask(
                        name="ids",
                        wcet=150,
                        max_period=600,
                        claims=(ResourceClaim("log", 30, 60),),
                    )
                ],
            )
            return SystemDesign(
                scheme="HYDRA",
                policy=SchedulingPolicy.PARTITIONED,
                taskset=taskset,
                platform=Platform(num_cores=1),
                rt_allocation=Allocation({"nav": 0}),
                security_allocation=Allocation({"ids": 0}),
            )

        free = design(())
        claiming = design((ResourceClaim("log", 10, 20),))
        traces = [
            simulate_design_fast(d, 3_000, platform=platform)
            for d in (free, claiming)
        ]
        assert [(t.context_switches, t.preemptions) for t in traces] == [
            (65, 10),
            (75, 20),
        ]
        assert _design_key(free) != _design_key(claiming)

    def test_parallel_stats_aggregate_across_workers(self):
        spec = small_spec(schemes=self.ALIASED, num_trials=6, backend="batch")
        serial_stats = CampaignStats()
        serial = run_campaign(spec, stats_sink=serial_stats)
        parallel_spec = small_spec(
            schemes=self.ALIASED, num_trials=6, backend="batch", n_jobs=2
        )
        parallel_stats = CampaignStats()
        parallel = run_campaign(parallel_spec, stats_sink=parallel_stats)
        assert tuple(parallel.records) == tuple(serial.records)
        assert parallel_stats.design_dedup_hits == serial_stats.design_dedup_hits
        assert (
            parallel_stats.batched_trials + parallel_stats.fallback_trials
            == serial_stats.batched_trials + serial_stats.fallback_trials
        )
        assert parallel_stats.compiled_trials == serial_stats.compiled_trials

    def test_stats_merge_is_forgiving(self):
        stats = CampaignStats(design_dedup_hits=1)
        stats.merge({"design_dedup_hits": 2, "batched_trials": 3})
        stats.merge({})  # an older worker knowing no counters at all
        stats.merge({"batched_trials": 1, "compiled_trials": 2})
        assert stats.design_dedup_hits == 3
        assert stats.batched_trials == 4
        assert stats.compiled_trials == 2
        assert "4 batched (2 compiled)" in stats.summary_line()


class TestRunnerSetup:
    def test_every_registered_scheme_admits_the_rover(self):
        runner = CampaignRunner(
            CampaignSpec(schemes=REGISTRY.names(), num_trials=1, horizon=1_000)
        )
        assert set(runner.designs) == set(REGISTRY.names())

    @pytest.mark.parametrize(
        "scheme,strategy",
        [
            ("HYDRA-C-FF", FitStrategy.FIRST_FIT),
            ("HYDRA-C-WF", FitStrategy.WORST_FIT),
        ],
    )
    def test_repartitioning_variants_design_with_the_blocking_terms(
        self, scheme, strategy
    ):
        """The re-partitioning HYDRA-C variants design on the campaign's
        shared context, so a lock protocol's blocking terms reach their
        partitioning and Algorithms 1-2 like every other scheme's."""
        spec = CampaignSpec(schemes=(scheme,), num_trials=1, protocol="pip")
        design = CampaignRunner(spec).designs[scheme]
        platform = Platform.dual_core(name="rpi3-rover")
        taskset = rover_taskset()
        context = RtaContext(platform, platform_model=spec.platform_model)
        context.prime_blocking(taskset)
        assert context.has_blocking
        expected = HydraC(platform, rt_partition_strategy=strategy).design(
            taskset, rta_context=context
        )
        assert design.security_periods() == expected.security_periods()
        assert design.rt_allocation == expected.rt_allocation
        assert design.security_periods() != (
            HydraC(platform, rt_partition_strategy=strategy)
            .design(taskset)
            .security_periods()
        )

    def test_trials_are_paired_across_schemes(self):
        runner = CampaignRunner(small_spec(num_trials=1))
        trial = build_trial_specs(small_spec(num_trials=1))[0]
        record = runner.run_trial(trial)
        assert set(record.outcomes) == {"HYDRA-C", "HYDRA"}
        lengths = {
            outcome.num_attacks for outcome in record.outcomes.values()
        }
        assert lengths == {2}  # one attack per monitor, same scenario
