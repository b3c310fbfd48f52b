"""Unit tests for the resumable JSONL checkpoint store."""

import dataclasses
import json

import pytest

from repro.batch.results import TasksetEvaluation
from repro.batch.store import JsonlResultStore, config_fingerprint
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig


def make_evaluation(group_index=0):
    return TasksetEvaluation(
        group_index=group_index,
        normalized_utilization=0.42,
        num_rt_tasks=6,
        num_security_tasks=4,
        max_periods={"ids-a": 2000, "ids-b": 1700},
        schedulable={"HYDRA-C": True, "HYDRA": False},
        periods={"HYDRA-C": {"ids-a": 910, "ids-b": 1700}, "HYDRA": None},
    )


@pytest.fixture
def config():
    return ExperimentConfig(num_cores=2, tasksets_per_group=3, seed=7)


@pytest.fixture
def store(tmp_path, config):
    return JsonlResultStore(tmp_path / "sweep.jsonl", config)


class TestLifecycle:
    def test_load_creates_header_only_file(self, store):
        assert store.load() == {}
        lines = store.path.read_text().splitlines()
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["kind"] == "header"

    def test_append_and_reload(self, store):
        store.load()
        evaluation = make_evaluation()
        store.append_chunk([(0, evaluation), (1, None), (2, evaluation)])
        reloaded = store.load()
        assert reloaded == {0: evaluation, 1: None, 2: evaluation}

    def test_failed_generation_slots_are_not_retried(self, store):
        """A ``null`` evaluation is a completed slot, not a missing one."""
        store.load()
        store.append_chunk([(5, None)])
        assert 5 in store.load()

    def test_empty_chunk_is_a_noop(self, store):
        store.load()
        before = store.path.read_bytes()
        store.append_chunk([])
        assert store.path.read_bytes() == before

    def test_resume_reproduces_the_uninterrupted_file(self, tmp_path, config):
        """Straight run vs killed-and-resumed run: identical bytes and
        identical loads."""
        first = [(0, make_evaluation()), (1, None)]
        second = [(2, make_evaluation(1))]
        straight = JsonlResultStore(tmp_path / "straight.jsonl", config)
        straight.load()
        straight.append_chunk(first)
        straight.append_chunk(second)

        path = tmp_path / "resumed.jsonl"
        store = JsonlResultStore(path, config)
        store.load()
        store.append_chunk(first)
        # "Kill": drop the store object, reopen, resume from the load.
        store = JsonlResultStore(path, config)
        assert store.load() == dict(first)
        store.append_chunk(second)
        assert path.read_bytes() == straight.path.read_bytes()


class TestCorruptionHandling:
    def test_partial_trailing_line_is_truncated(self, store):
        store.load()
        store.append_chunk([(0, make_evaluation())])
        intact = store.path.read_bytes()
        with store.path.open("ab") as handle:
            handle.write(b'{"kind":"result","job":1,"eval')  # killed mid-write
        assert store.load() == {0: make_evaluation()}
        # The file was physically trimmed back to the last complete line.
        assert store.path.read_bytes() == intact

    def test_headerless_file_rejected(self, store):
        store.path.write_text('{"kind":"result","job":0,"evaluation":null}\n')
        with pytest.raises(ConfigurationError):
            store.load()

    def test_empty_file_self_heals(self, store):
        """A kill during the header write leaves an empty file; the store
        must reinitialise it instead of wedging every future resume."""
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_text("")
        assert store.load() == {}
        header = json.loads(store.path.read_text().splitlines()[0])
        assert header["kind"] == "header"

    def test_torn_header_self_heals(self, store):
        store.path.write_text('{"kind":"hea')  # no newline: torn write
        assert store.load() == {}
        evaluation = make_evaluation()
        store.append_chunk([(0, evaluation)])
        assert store.load() == {0: evaluation}

    def test_unrelated_newline_free_file_is_not_destroyed(self, store):
        """Pointing the sweep at some random user file must refuse, not
        silently replace it (only a torn *header prefix* self-heals)."""
        original = "precious user notes without trailing newline"
        store.path.write_text(original)
        with pytest.raises(ConfigurationError):
            store.load()
        assert store.path.read_text() == original

    def test_non_json_lines_raise_configuration_error(self, store):
        store.path.write_text("line one\nline two\n")
        with pytest.raises(ConfigurationError):
            store.load()
        store.path.write_text('"just a string"\n')
        with pytest.raises(ConfigurationError):
            store.load()

    def test_rejected_foreign_checkpoint_with_torn_line_is_not_mutated(
        self, tmp_path, config
    ):
        """Refusing a mismatched checkpoint must not first trim its torn
        trailing line -- rejected files are left exactly as found."""
        path = tmp_path / "foreign.jsonl"
        JsonlResultStore(path, config).load()
        with path.open("ab") as handle:
            handle.write(b'{"kind":"result","job":0,"eval')  # torn write
        before = path.read_bytes()
        other = ExperimentConfig(num_cores=4, tasksets_per_group=3, seed=7)
        with pytest.raises(ConfigurationError):
            JsonlResultStore(path, other).load()
        assert path.read_bytes() == before

    def test_unknown_record_kind_rejected(self, store):
        store.load()
        with store.path.open("a") as handle:
            handle.write('{"kind":"mystery"}\n')
        with pytest.raises(ConfigurationError):
            store.load()

    def test_duplicate_result_key_rejected(self, store):
        """A stream holding the same result key twice is corrupt and must
        fail loudly on load, not silently resume from whichever copy came
        last."""
        store.load()
        store.append_chunk([(0, make_evaluation())])
        store.append_chunk([(0, None)])  # same key, different payload
        with pytest.raises(ConfigurationError, match="duplicate result key 0"):
            store.load()

    def test_binary_file_refused_and_left_intact(self, binary_file, config):
        """A file that is not UTF-8 (a database, an image) is refused with
        the one-line error, never a decode traceback, and left as found."""
        before = binary_file.read_bytes()
        with pytest.raises(
            ConfigurationError,
            match="is not a sweep checkpoint; refusing to overwrite it",
        ):
            JsonlResultStore(binary_file, config).load()
        assert binary_file.read_bytes() == before

    def test_undecodable_record_line_rejected_and_left_intact(self, store):
        """Bytes that are not UTF-8 after a valid header are a corrupt
        record; the file, torn tail included, stays as found."""
        store.load()
        store.append_chunk([(0, make_evaluation())])
        with store.path.open("ab") as handle:
            handle.write(b"\xff\xfe garbage\n")
            handle.write(b'{"kind":"result","job":1,"eval')  # torn write
        before = store.path.read_bytes()
        with pytest.raises(ConfigurationError, match="non-JSON line"):
            store.load()
        assert store.path.read_bytes() == before


class TestCheckpointPath:
    @pytest.mark.parametrize("prefix", ["jsonl:", "sqlite:", "shards:"])
    def test_former_backend_prefixes_rejected(
        self, tmp_path, monkeypatch, config, prefix
    ):
        """The removed checkpoint backends' prefixes fail with the
        one-line error naming the plain-path form, and create nothing."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigurationError, match="plain path") as caught:
            JsonlResultStore(f"{prefix}run.db", config)
        assert f"'{prefix}' prefix is no longer accepted" in str(caught.value)
        assert list(tmp_path.iterdir()) == []

    def test_other_colon_paths_are_plain_files(self, tmp_path, monkeypatch, config):
        """Colons are legal in POSIX filenames: only the former backend
        prefixes are refused."""
        monkeypatch.chdir(tmp_path)
        store = JsonlResultStore("backup:2024/sweep.jsonl", config)
        assert store.load() == {}
        assert (tmp_path / "backup:2024" / "sweep.jsonl").is_file()


class TestConfigFingerprint:
    def test_mismatched_config_rejected(self, tmp_path, config):
        path = tmp_path / "sweep.jsonl"
        JsonlResultStore(path, config).load()
        other = ExperimentConfig(num_cores=4, tasksets_per_group=3, seed=7)
        with pytest.raises(ConfigurationError):
            JsonlResultStore(path, other).load()

    def test_runtime_knobs_do_not_change_the_fingerprint(self, config):
        tweaked = ExperimentConfig(
            num_cores=config.num_cores,
            tasksets_per_group=config.tasksets_per_group,
            seed=config.seed,
            n_jobs=8,
            chunk_size=3,
            checkpoint_path="elsewhere.jsonl",
        )
        assert config_fingerprint(tweaked) == config_fingerprint(config)

    def test_result_affecting_knobs_change_the_fingerprint(self, config):
        for tweak in (
            {"num_cores": 4},
            {"tasksets_per_group": 9},
            {"seed": 8},
            {"utilization_groups": ((0.1, 0.2),)},
            {"schemes": ("HYDRA-C", "GLOBAL-TMax")},
            {"search_mode": "linear"},
        ):
            import dataclasses

            other = dataclasses.replace(config, **tweak)
            assert config_fingerprint(other) != config_fingerprint(config)

    def test_legacy_header_without_schemes_resumes_as_canonical(
        self, tmp_path, config
    ):
        """Checkpoints written before the scheme registry carry no scheme
        list; they were always the canonical four and must keep resuming."""
        import dataclasses
        import json

        path = tmp_path / "legacy.jsonl"
        JsonlResultStore(path, config).load()
        header = json.loads(path.read_text().splitlines()[0])
        del header["config"]["schemes"]
        path.write_text(json.dumps(header, separators=(",", ":")) + "\n")

        assert JsonlResultStore(path, config).load() == {}
        variant = dataclasses.replace(config, schemes=("HYDRA-C", "HYDRA-RF"))
        with pytest.raises(ConfigurationError, match="different sweep"):
            JsonlResultStore(path, variant).load()

    def test_legacy_header_without_search_mode_resumes_as_binary(
        self, tmp_path, config
    ):
        """Pre-kernel checkpoints predate ``--search-mode``; they were
        always produced by the binary Algorithm 2 search and must keep
        resuming under the default config."""
        import dataclasses
        import json

        path = tmp_path / "legacy-mode.jsonl"
        JsonlResultStore(path, config).load()
        header = json.loads(path.read_text().splitlines()[0])
        del header["config"]["search_mode"]
        path.write_text(json.dumps(header, separators=(",", ":")) + "\n")

        assert JsonlResultStore(path, config).load() == {}
        linear = dataclasses.replace(config, search_mode="linear")
        with pytest.raises(ConfigurationError, match="different sweep"):
            JsonlResultStore(path, linear).load()

    def test_resume_with_different_search_mode_rejected(self, tmp_path, config):
        """The search mode is fingerprint-relevant: a resume under the
        other Algorithm 2 mode is rejected instead of silently mixed."""
        import dataclasses

        path = tmp_path / "mode.jsonl"
        JsonlResultStore(path, config).load()
        linear = dataclasses.replace(config, search_mode="linear")
        with pytest.raises(ConfigurationError, match="different sweep"):
            JsonlResultStore(path, linear).load()

    def test_resume_with_different_scheme_selection_rejected(
        self, tmp_path, config
    ):
        """Each stored record holds one column per scheme, so silently
        mixing rows from different ``--schemes`` runs must be impossible."""
        import dataclasses

        path = tmp_path / "sweep.jsonl"
        JsonlResultStore(path, config).load()
        reordered = dataclasses.replace(
            config, schemes=tuple(reversed(config.schemes))
        )
        with pytest.raises(ConfigurationError, match="different sweep"):
            JsonlResultStore(path, reordered).load()


class TestPlatformFingerprint:
    """Checkpoints are platform-bound: the scheduler / protocol / overheads
    axes are fingerprint-relevant, and headers from before the platform
    layer normalise to the paper's platform."""

    def test_resume_under_a_different_platform_rejected(self, store, config):
        store.load()
        store.append_chunk([(0, make_evaluation())])
        for other in (
            dataclasses.replace(config, scheduler="edf"),
            dataclasses.replace(config, protocol="pip"),
            dataclasses.replace(config, overheads="const:5"),
        ):
            with pytest.raises(ConfigurationError, match="different sweep"):
                JsonlResultStore(store.path, other).load()

    def test_equivalent_overhead_spellings_resume(self, tmp_path, config):
        """``const:5`` and ``const:5,0`` are the same model and must share
        a fingerprint."""
        path = tmp_path / "sweep.jsonl"
        store = JsonlResultStore(path, dataclasses.replace(config, overheads="const:5"))
        store.load()
        store.append_chunk([(0, make_evaluation())])
        respelled = dataclasses.replace(config, overheads="const:5,0")
        assert JsonlResultStore(path, respelled).load() == {0: make_evaluation()}

    def test_legacy_header_normalises_to_the_default_platform(self, store, config):
        """A pre-platform checkpoint (no scheduler/protocol/overheads keys)
        was always analysed under the paper's platform: it resumes under
        the defaults and stays rejected under anything else."""
        store.load()
        store.append_chunk([(0, make_evaluation())])
        lines = store.path.read_text().splitlines()
        header = json.loads(lines[0])
        for axis in ("scheduler", "protocol", "overheads"):
            del header["config"][axis]
        lines[0] = json.dumps(header, separators=(",", ":"))
        store.path.write_text("".join(line + "\n" for line in lines))
        assert JsonlResultStore(store.path, config).load() == {0: make_evaluation()}
        pip = dataclasses.replace(config, protocol="pip")
        with pytest.raises(ConfigurationError, match="different sweep"):
            JsonlResultStore(store.path, pip).load()
