"""Unit tests for the chunked, resumable sweep orchestrator."""

import time

import pytest

from repro.batch.orchestrator import (
    SweepOrchestrator,
    build_specs,
    run_batch_sweep,
)
from repro.batch.store import JsonlResultStore
from repro.experiments.config import ExperimentConfig


SMALL_GROUPS = ((0.05, 0.2), (0.45, 0.6))


def small_config(**overrides):
    defaults = dict(
        num_cores=2,
        tasksets_per_group=2,
        utilization_groups=SMALL_GROUPS,
        seed=31337,
        chunk_size=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestBuildSpecs:
    def test_one_spec_per_slot_in_job_order(self):
        config = small_config()
        specs = build_specs(config)
        assert [spec.job_index for spec in specs] == list(range(4))
        assert [spec.group_index for spec in specs] == [0, 0, 1, 1]
        assert all(
            spec.normalized_range == SMALL_GROUPS[spec.group_index]
            for spec in specs
        )

    def test_seed_derivation_is_deterministic_and_distinct(self):
        config = small_config()
        first = build_specs(config)
        second = build_specs(config)
        assert first == second
        assert len({spec.seed for spec in first}) == len(first)

    def test_different_base_seed_changes_child_seeds(self):
        base = {spec.seed for spec in build_specs(small_config(seed=1))}
        other = {spec.seed for spec in build_specs(small_config(seed=2))}
        assert base != other


class TestProgressReporting:
    def test_progress_called_per_chunk_with_monotone_counts(self):
        config = small_config(chunk_size=3)  # 4 jobs -> chunks of 3 + 1
        events = []
        run_batch_sweep(config, progress=events.append)
        assert [event.chunk_index for event in events] == [1, 2]
        assert all(event.num_chunks == 2 for event in events)
        assert [event.completed_jobs for event in events] == [3, 4]
        assert events[-1].fraction == 1.0
        assert all(event.resumed_jobs == 0 for event in events)

    def test_resumed_jobs_reported(self, tmp_path):
        config = small_config(chunk_size=2)
        store_path = tmp_path / "sweep.jsonl"
        run_batch_sweep(config, store=JsonlResultStore(store_path, config))
        # Chop back to the first chunk and rerun.
        lines = store_path.read_bytes().splitlines(keepends=True)
        store_path.write_bytes(b"".join(lines[:3]))
        events = []
        run_batch_sweep(
            config,
            store=JsonlResultStore(store_path, config),
            progress=events.append,
        )
        assert events and all(event.resumed_jobs == 2 for event in events)
        assert events[-1].completed_jobs == 4

    def test_fully_complete_checkpoint_runs_no_chunks(self, tmp_path):
        config = small_config()
        store_path = tmp_path / "sweep.jsonl"
        first = run_batch_sweep(config, store=JsonlResultStore(store_path, config))
        before = store_path.read_bytes()
        events = []
        again = run_batch_sweep(
            config,
            store=JsonlResultStore(store_path, config),
            progress=events.append,
        )
        assert events == []
        assert store_path.read_bytes() == before
        assert tuple(again.evaluations) == tuple(first.evaluations)


class TestCheckpointPathOnConfig:
    def test_config_checkpoint_path_creates_store(self, tmp_path):
        path = tmp_path / "auto.jsonl"
        config = small_config(checkpoint_path=str(path))
        result = SweepOrchestrator(config).run()
        assert path.exists()
        reloaded = JsonlResultStore(path, config).load()
        completed = [entry for entry in reloaded.values() if entry is not None]
        assert tuple(completed) == tuple(result.evaluations)


class TestExecutorLifecycle:
    """Regression: the worker pool must be shared across chunks and shut
    down on *every* exit path of ``run()`` (it used to be possible to leak
    a freshly built executor when a chunk raised before the context
    exited)."""

    def _recording_pool_class(self, monkeypatch):
        import repro.batch.orchestrator as orchestrator_module
        from repro.exec import PersistentPool

        instances = []

        class RecordingPool(PersistentPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                instances.append(self)

        monkeypatch.setattr(
            orchestrator_module, "PersistentPool", RecordingPool
        )
        return instances

    def test_one_pool_serves_every_chunk_and_is_closed(self, monkeypatch):
        instances = self._recording_pool_class(monkeypatch)
        config = small_config(n_jobs=2, chunk_size=1)  # 4 chunks
        result = SweepOrchestrator(config).run()
        assert len(result.evaluations) > 0
        assert len(instances) == 1, "one persistent pool for all chunks"
        assert instances[0].closed

    def test_pool_closed_when_a_chunk_raises(self, monkeypatch):
        instances = self._recording_pool_class(monkeypatch)

        class Boom(Exception):
            pass

        def explode(_update):
            raise Boom

        config = small_config(n_jobs=2, chunk_size=1)
        with pytest.raises(Boom):
            SweepOrchestrator(config, progress=explode).run()
        assert len(instances) == 1
        assert instances[0].closed, "pool leaked on the exception path"

    def test_injected_pool_is_reused_and_left_open(self):
        from repro.exec import PersistentPool

        config = small_config(n_jobs=2)
        with PersistentPool(2) as pool:
            first = SweepOrchestrator(config, pool=pool).run()
            executor = pool._executor
            second = SweepOrchestrator(config, pool=pool).run()
            assert pool.active
            assert pool._executor is executor, "executor rebuilt needlessly"
        assert pool.closed
        assert first.evaluations == second.evaluations

    def test_campaign_pool_closed_on_exception(self, monkeypatch):
        import repro.campaign.orchestrator as campaign_module
        from repro.campaign import CampaignOrchestrator, CampaignSpec
        from repro.exec import PersistentPool

        instances = []

        class RecordingPool(PersistentPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                instances.append(self)

        monkeypatch.setattr(campaign_module, "PersistentPool", RecordingPool)

        class Boom(Exception):
            pass

        def explode(_update):
            raise Boom

        spec = CampaignSpec(
            schemes=("HYDRA-C",), num_trials=2, horizon=9000, n_jobs=2,
            chunk_size=1,
        )
        with pytest.raises(Boom):
            CampaignOrchestrator(spec, progress=explode).run()
        assert len(instances) == 1
        assert instances[0].closed


class TestStatsAggregation:
    """Regression: per-worker kernel counters -- including the compiled
    and solve-skipping ones -- must aggregate through the ``--stats`` sink
    exactly as a serial run's, number by number.
    """

    def test_worker_counters_sum_to_the_serial_runs(self):
        serial_sink: dict = {}
        worker_sink: dict = {}
        serial = run_batch_sweep(
            small_config(chunk_size=1, n_jobs=1), stats_sink=serial_sink
        )
        parallel = run_batch_sweep(
            small_config(chunk_size=1, n_jobs=2), stats_sink=worker_sink
        )
        assert parallel.evaluations == serial.evaluations
        assert worker_sink == serial_sink
        # The sink carries the compiled and solve-skipping counters too.
        assert "compiled_solves" in serial_sink
        assert "dedup_certified_sets" in serial_sink
        assert serial_sink["exact_solves"] > 0


class _Poison(Exception):
    pass


def _poison_or_marker(payload):
    """Worker body for the straggler tests: raise, or write a marker file."""
    kind, path = payload
    if kind == "poison":
        raise _Poison("poisoned payload")
    time.sleep(0.05)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("ran\n")
    return path


def _sleep_then_marker(payload):
    duration, path = payload
    time.sleep(duration)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("ran\n")
    return path


class TestMapChunkFailureDrain:
    """Regression: a failing payload used to leave the rest of the chunk
    silently running (and its exceptions swallowed) in the background."""

    def test_poisoned_payload_cancels_queued_stragglers(self, tmp_path):
        from repro.exec import PersistentPool

        # One worker serialises execution: the poison runs first, so every
        # later payload is still *queued* when the failure surfaces and
        # must be cancelled, not ground through.  A few payloads may slip
        # through -- the executor prefetches into an internal call queue
        # that cancel() cannot reach, and refills it while the failure
        # propagates -- but the bound is that prefetch depth, not the chunk
        # length: before the fix, every queued payload ran.
        payloads = [("poison", "")] + [
            ("marker", str(tmp_path / f"straggler-{i}.txt")) for i in range(6)
        ]
        with PersistentPool(max_workers=1) as pool:
            with pytest.raises(_Poison):
                pool.map_chunk(_poison_or_marker, payloads)
            # map_chunk drained before raising, so the count is already
            # final: nothing may still be running in the background.
            ran_at_raise = len(list(tmp_path.glob("straggler-*.txt")))
            assert ran_at_raise <= 3, (
                f"{ran_at_raise} queued payloads ran after the failure"
            )
            time.sleep(0.5)  # long enough for every straggler pre-fix
            ran_later = len(list(tmp_path.glob("straggler-*.txt")))
            assert ran_later == ran_at_raise, (
                "stragglers kept completing after map_chunk raised"
            )

    def test_running_straggler_is_drained_not_abandoned(self, tmp_path):
        from repro.exec import PersistentPool

        # Two workers: the long payload is already *running* when the
        # poison raises.  It cannot be cancelled, but map_chunk must wait
        # it out so no work is still in flight once the exception escapes.
        marker = tmp_path / "running.txt"
        with PersistentPool(max_workers=2) as pool:
            with pytest.raises(_Poison):
                pool.map_chunk(
                    _poison_or_marker,
                    [("marker", str(marker)), ("poison", "")],
                )
            assert marker.exists(), "running payload was abandoned mid-drain"


class TestFastClose:
    """Regression: close() used to wait for every queued slice to finish."""

    def test_close_cancels_queued_work(self):
        from repro.exec import PersistentPool

        pool = PersistentPool(max_workers=1)
        # One short task runs; five more queue up behind it.  A close that
        # waits for the queue takes ~1.8s; a cancelling close returns as
        # soon as the running task finishes.
        futures = [
            pool.submit(_sleep_then_marker, (0.3, "/dev/null"))
            for _ in range(6)
        ]
        time.sleep(0.05)  # let the first task actually start
        start = time.perf_counter()
        pool.close()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"close() waited for queued work ({elapsed:.2f}s)"
        assert pool.closed
        # The executor prefetches a couple of items into its internal call
        # queue; everything behind that must have been cancelled unrun.
        assert sum(1 for future in futures if future.cancelled()) >= 3

    def test_reset_discards_executor_and_pool_stays_usable(self):
        from repro.exec import PersistentPool

        with PersistentPool(max_workers=1) as pool:
            first = pool.submit(_sleep_then_marker, (0.0, "/dev/null"))
            assert first.result() == "/dev/null"
            pool.reset()
            assert pool.active is False
            second = pool.submit(_sleep_then_marker, (0.0, "/dev/null"))
            assert second.result() == "/dev/null"
            assert pool.active
