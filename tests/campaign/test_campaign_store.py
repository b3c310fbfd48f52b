"""Unit tests for the campaign checkpoint store."""

import dataclasses
import json

import pytest

from repro.campaign import (
    CampaignResultStore,
    CampaignSpec,
    SchemeTrialOutcome,
    TrialRecord,
)
from repro.errors import ConfigurationError


def small_spec(**overrides):
    defaults = dict(schemes=("HYDRA-C", "HYDRA"), num_trials=4, horizon=5_000, seed=5)
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def record(index: int) -> TrialRecord:
    return TrialRecord(
        trial_index=index,
        seed=1000 + index,
        outcomes={
            "HYDRA-C": SchemeTrialOutcome(
                latencies=(10 + index, None),
                context_switches=5,
                migrations=1,
                preemptions=0,
            ),
            "HYDRA": SchemeTrialOutcome(
                latencies=(20 + index, 30),
                context_switches=4,
                migrations=0,
                preemptions=2,
            ),
        },
    )


class TestRoundTrip:
    def test_create_load_append_load(self, tmp_path):
        spec = small_spec()
        store = CampaignResultStore(tmp_path / "camp.jsonl", spec)
        assert store.load() == {}
        store.append_chunk([record(0), record(1)])
        reloaded = CampaignResultStore(tmp_path / "camp.jsonl", spec).load()
        assert reloaded == {0: record(0), 1: record(1)}

    def test_empty_chunk_is_a_noop(self, tmp_path):
        store = CampaignResultStore(tmp_path / "camp.jsonl", small_spec())
        store.load()
        before = store.path.read_bytes()
        store.append_chunk([])
        assert store.path.read_bytes() == before

    def test_resume_reproduces_the_uninterrupted_file(self, tmp_path):
        """Straight run vs killed-and-resumed run: identical bytes and
        identical loads."""
        spec = small_spec()
        straight = CampaignResultStore(tmp_path / "straight.jsonl", spec)
        straight.load()
        straight.append_chunk([record(0), record(1)])
        straight.append_chunk([record(2)])

        path = tmp_path / "resumed.jsonl"
        store = CampaignResultStore(path, spec)
        store.load()
        store.append_chunk([record(0), record(1)])
        # "Kill": drop the store object, reopen, resume from the load.
        store = CampaignResultStore(path, spec)
        assert store.load() == {0: record(0), 1: record(1)}
        store.append_chunk([record(2)])
        assert path.read_bytes() == straight.path.read_bytes()

    def test_outcome_json_roundtrip_preserves_none_latencies(self):
        outcome = record(0).outcomes["HYDRA-C"]
        assert SchemeTrialOutcome.from_json(
            json.loads(json.dumps(outcome.to_json()))
        ) == outcome


class TestGuards:
    def test_mismatched_campaign_rejected(self, tmp_path):
        path = tmp_path / "camp.jsonl"
        CampaignResultStore(path, small_spec()).load()
        with pytest.raises(ConfigurationError, match="different campaign"):
            CampaignResultStore(path, small_spec(seed=6)).load()

    def test_execution_knobs_do_not_invalidate_checkpoint(self, tmp_path):
        path = tmp_path / "camp.jsonl"
        store = CampaignResultStore(path, small_spec(backend="fast"))
        store.load()
        store.append_chunk([record(0)])
        resumed = CampaignResultStore(
            path, small_spec(backend="tick", n_jobs=3, chunk_size=99)
        ).load()
        assert resumed == {0: record(0)}

    def test_foreign_file_refused(self, tmp_path):
        # A partial non-checkpoint line must not be mistaken for a torn
        # header write...
        partial = tmp_path / "notes.txt"
        partial.write_text("do not clobber me", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="refusing"):
            CampaignResultStore(partial, small_spec()).load()
        # ...and a complete non-JSON line is rejected as corrupt, untouched.
        complete = tmp_path / "notes2.txt"
        complete.write_text("do not clobber me\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="non-JSON"):
            CampaignResultStore(complete, small_spec()).load()
        assert complete.read_text(encoding="utf-8") == "do not clobber me\n"

    def test_torn_trailing_line_truncated_after_validation(self, tmp_path):
        path = tmp_path / "camp.jsonl"
        spec = small_spec()
        store = CampaignResultStore(path, spec)
        store.load()
        store.append_chunk([record(0)])
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"kind":"result","trial":{"trial_in')
        reloaded = CampaignResultStore(path, spec).load()
        assert reloaded == {0: record(0)}
        assert path.read_bytes() == intact

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "camp.jsonl"
        line = json.dumps({"kind": "result", "trial": record(0).to_json()})
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="does not start with a header"):
            CampaignResultStore(path, small_spec()).load()
        assert path.read_text(encoding="utf-8") == line + "\n"

    def test_empty_file_self_heals(self, tmp_path):
        """A kill during the header write leaves an empty file; the store
        must reinitialise it instead of wedging every future resume."""
        path = tmp_path / "camp.jsonl"
        path.write_bytes(b"")
        assert CampaignResultStore(path, small_spec()).load() == {}
        header = json.loads(path.read_text(encoding="utf-8"))
        assert header["kind"] == "header"

    def test_torn_header_self_heals(self, tmp_path):
        path = tmp_path / "camp.jsonl"
        spec = small_spec()
        CampaignResultStore(path, spec).load()
        full_header = path.read_bytes()
        path.write_bytes(full_header[: len(full_header) // 2])
        assert CampaignResultStore(path, spec).load() == {}
        assert path.read_bytes() == full_header

    def test_binary_file_refused_and_left_intact(self, binary_file):
        """A file that is not UTF-8 (a database, an image) is refused with
        the one-line error, never a decode traceback, and left as found."""
        before = binary_file.read_bytes()
        with pytest.raises(
            ConfigurationError,
            match="is not a campaign checkpoint; refusing to overwrite it",
        ):
            CampaignResultStore(binary_file, small_spec()).load()
        assert binary_file.read_bytes() == before

    def test_undecodable_record_line_rejected_and_left_intact(self, tmp_path):
        path = tmp_path / "camp.jsonl"
        store = CampaignResultStore(path, small_spec())
        store.load()
        store.append_chunk([record(0)])
        path.write_bytes(path.read_bytes() + b"\x89PNG\r\n")
        before = path.read_bytes()
        with pytest.raises(ConfigurationError, match="non-JSON line"):
            CampaignResultStore(path, small_spec()).load()
        assert path.read_bytes() == before

    @pytest.mark.parametrize("prefix", ["jsonl:", "sqlite:", "shards:"])
    def test_former_backend_prefixes_rejected(self, tmp_path, monkeypatch, prefix):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigurationError, match="plain path"):
            CampaignResultStore(f"{prefix}camp.db", small_spec())
        assert list(tmp_path.iterdir()) == []

    def test_other_colon_paths_are_plain_files(self, tmp_path, monkeypatch):
        """Colons are legal in POSIX filenames: only the former backend
        prefixes are refused."""
        monkeypatch.chdir(tmp_path)
        store = CampaignResultStore("backup:2024/camp.jsonl", small_spec())
        assert store.load() == {}
        assert (tmp_path / "backup:2024" / "camp.jsonl").is_file()


class TestPlatformFingerprint:
    def test_resume_under_a_different_platform_rejected(self, tmp_path):
        path = tmp_path / "camp.jsonl"
        spec = small_spec()
        CampaignResultStore(path, spec).load()
        for other in (
            dataclasses.replace(spec, scheduler="edf"),
            dataclasses.replace(spec, protocol="pcp"),
            dataclasses.replace(spec, overheads="const:2,3"),
        ):
            with pytest.raises(ConfigurationError, match="different campaign"):
                CampaignResultStore(path, other).load()

    def test_legacy_header_normalises_to_the_default_platform(self, tmp_path):
        """A pre-platform checkpoint (no scheduler/protocol/overheads keys)
        was always simulated under the paper's platform: it resumes under
        the defaults and stays rejected under anything else."""
        path = tmp_path / "camp.jsonl"
        spec = small_spec()
        store = CampaignResultStore(path, spec)
        store.load()
        store.append_chunk([record(0)])
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        for axis in ("scheduler", "protocol", "overheads"):
            del header["campaign"][axis]
        lines[0] = json.dumps(header, separators=(",", ":"))
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert CampaignResultStore(path, spec).load() == {0: record(0)}
        edf = dataclasses.replace(spec, scheduler="edf")
        with pytest.raises(ConfigurationError, match="different campaign"):
            CampaignResultStore(path, edf).load()
