"""Contract suite for :class:`repro.storage.JsonlCheckpointStore`.

The base class owns the checkpoint mechanics -- header and fingerprint
guard, canonical record lines, one fsync per chunk, rejection of corrupt
streams with the file left as found -- and each subsystem only supplies
its record hooks.  Every guarantee here therefore runs against both
subclasses, the sweep's ``JsonlResultStore`` and the campaign's
``CampaignResultStore``; their record-specific behaviour stays in
``tests/batch/test_store.py`` and ``tests/campaign/test_campaign_store.py``.
"""

import dataclasses
import json
from pathlib import Path
from typing import Callable

import pytest

from repro.batch.results import TasksetEvaluation
from repro.batch.store import JsonlResultStore
from repro.campaign import (
    CampaignResultStore,
    CampaignSpec,
    SchemeTrialOutcome,
    TrialRecord,
)
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.storage import JsonlCheckpointStore
from repro.storage import jsonl as storage_jsonl


def evaluation(index: int) -> TasksetEvaluation:
    return TasksetEvaluation(
        group_index=index,
        normalized_utilization=0.42,
        num_rt_tasks=6,
        num_security_tasks=4,
        max_periods={"ids-a": 2000, "ids-b": 1700},
        schedulable={"HYDRA-C": True, "HYDRA": False},
        periods={"HYDRA-C": {"ids-a": 910, "ids-b": 1700}, "HYDRA": None},
    )


def trial(index: int) -> TrialRecord:
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
        },
    )


@dataclasses.dataclass(frozen=True)
class StoreKind:
    """One subclass of the store, with a way to open it and to make its
    entries."""

    noun: str
    #: Header field holding the fingerprint.
    field: str
    #: ``open(path)`` under the default identity, ``open_other(path)``
    #: under a different one.
    open: Callable[[Path], JsonlCheckpointStore]
    open_other: Callable[[Path], JsonlCheckpointStore]
    #: The appended entry for key ``i`` and the value ``load`` returns.
    entry: Callable[[int], object]
    value: Callable[[int], object]
    #: A result record whose payload has the wrong type.
    mistyped: str


SWEEP_CONFIG = ExperimentConfig(num_cores=2, tasksets_per_group=3, seed=7)
CAMPAIGN_SPEC = CampaignSpec(
    schemes=("HYDRA-C",), num_trials=4, horizon=5_000, seed=5
)

KINDS = [
    StoreKind(
        noun="sweep",
        field="config",
        open=lambda path: JsonlResultStore(path, SWEEP_CONFIG),
        open_other=lambda path: JsonlResultStore(
            path, dataclasses.replace(SWEEP_CONFIG, seed=8)
        ),
        entry=lambda index: (index, evaluation(index)),
        value=evaluation,
        mistyped='{"kind":"result","job":"x","evaluation":null}',
    ),
    StoreKind(
        noun="campaign",
        field="campaign",
        open=lambda path: CampaignResultStore(path, CAMPAIGN_SPEC),
        open_other=lambda path: CampaignResultStore(
            path, dataclasses.replace(CAMPAIGN_SPEC, seed=6)
        ),
        entry=trial,
        value=trial,
        mistyped='{"kind":"result","trial":7}',
    ),
]


@pytest.fixture(params=KINDS, ids=[kind.noun for kind in KINDS])
def kind(request) -> StoreKind:
    return request.param


@pytest.fixture
def store(tmp_path, kind) -> JsonlCheckpointStore:
    return kind.open(tmp_path / "ck.jsonl")


def canonical(line: bytes) -> bytes:
    return json.dumps(json.loads(line), separators=(",", ":")).encode() + b"\n"


class TestFormat:
    def test_fresh_header_is_one_canonical_line(self, store, kind):
        assert store.load() == {}
        raw = store.path.read_bytes()
        assert raw.count(b"\n") == 1
        assert raw.startswith(
            b'{"kind":"header","version":1,"%s":{' % kind.field.encode()
        )
        assert canonical(raw) == raw

    def test_records_are_canonical_lines_in_append_order(self, store, kind):
        store.load()
        store.append_chunk([kind.entry(0), kind.entry(1)])
        store.append_chunk([kind.entry(2)])
        lines = store.path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 4
        for line in lines[1:]:
            assert json.loads(line)["kind"] == "result"
            assert canonical(line) == line
        assert list(store.load()) == [0, 1, 2]

    def test_parent_directories_are_created(self, tmp_path, kind):
        store = kind.open(tmp_path / "a" / "b" / "ck.jsonl")
        assert store.load() == {}
        assert (tmp_path / "a" / "b" / "ck.jsonl").is_file()


class TestDurability:
    def test_one_fsync_per_chunk(self, store, kind, monkeypatch):
        store.load()
        synced = []
        real_fsync = storage_jsonl.os.fsync
        monkeypatch.setattr(
            storage_jsonl.os,
            "fsync",
            lambda fd: (synced.append(fd), real_fsync(fd))[1],
        )
        store.append_chunk([kind.entry(index) for index in range(3)])
        assert len(synced) == 1
        store.append_chunk([])
        assert len(synced) == 1
        assert store.load() == {index: kind.value(index) for index in range(3)}

    def test_appends_go_through_the_base_class(self, store, kind, monkeypatch):
        """Both subclasses inherit ``append_chunk``, so wrapping it on the
        base class (as ``perfbench/tracer.py`` does) sees every append."""
        assert "append_chunk" not in type(store).__dict__
        seen = []
        original = JsonlCheckpointStore.__dict__["append_chunk"]

        def spy(self, entries):
            entries = list(entries)
            seen.append(len(entries))
            return original(self, entries)

        monkeypatch.setattr(JsonlCheckpointStore, "append_chunk", spy)
        store.load()
        store.append_chunk([kind.entry(0), kind.entry(1)])
        assert seen == [2]
        assert store.load() == {0: kind.value(0), 1: kind.value(1)}


class TestRejectedFilesStayIntact:
    """Every rejection happens before the torn-line truncation, so the file
    (its torn tail included) is left exactly as found."""

    @staticmethod
    def torn(store) -> bytes:
        with store.path.open("ab") as handle:
            handle.write(b'{"kind":"result","job":9,"eval')
        return store.path.read_bytes()

    def test_other_format_version_rejected(self, store, kind):
        store.load()
        store.append_chunk([kind.entry(0)])
        lines = store.path.read_bytes().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["version"] = 2
        lines[0] = json.dumps(header, separators=(",", ":")).encode() + b"\n"
        store.path.write_bytes(b"".join(lines))
        before = self.torn(store)
        with pytest.raises(
            ConfigurationError, match="uses format version 2, expected 1"
        ):
            kind.open(store.path).load()
        assert store.path.read_bytes() == before

    def test_header_without_a_fingerprint_object_rejected(self, store, kind):
        store.path.write_text(
            json.dumps({"kind": "header", "version": 1, kind.field: None}) + "\n"
        )
        before = self.torn(store)
        with pytest.raises(
            ConfigurationError, match=f"different {kind.noun} configuration"
        ):
            store.load()
        assert store.path.read_bytes() == before

    def test_non_object_record_rejected(self, store, kind):
        store.load()
        store.append_chunk([kind.entry(0)])
        with store.path.open("a") as handle:
            handle.write("[0, 1]\n")
        before = self.torn(store)
        with pytest.raises(ConfigurationError, match="non-record line"):
            store.load()
        assert store.path.read_bytes() == before

    def test_unknown_record_kind_rejected(self, store, kind):
        store.load()
        store.append_chunk([kind.entry(0)])
        with store.path.open("a") as handle:
            handle.write('{"kind":"mystery"}\n')
        before = self.torn(store)
        with pytest.raises(ConfigurationError, match="unknown record kind 'mystery'"):
            store.load()
        assert store.path.read_bytes() == before

    @pytest.mark.parametrize("case", ["missing-payload", "mistyped-payload"])
    def test_malformed_result_record_rejected(self, store, kind, case):
        store.load()
        store.append_chunk([kind.entry(0)])
        record = '{"kind":"result"}' if case == "missing-payload" else kind.mistyped
        with store.path.open("a") as handle:
            handle.write(record + "\n")
        before = self.torn(store)
        with pytest.raises(ConfigurationError) as excinfo:
            store.load()
        message = str(excinfo.value)
        assert message.startswith(
            f"checkpoint {store.path} holds a malformed {kind.noun} record "
            f"{record!r} ("
        )
        assert "\n" not in message
        assert store.path.read_bytes() == before

    def test_duplicate_result_key_rejected(self, store, kind):
        store.load()
        store.append_chunk([kind.entry(0), kind.entry(1)])
        store.append_chunk([kind.entry(1)])
        before = self.torn(store)
        with pytest.raises(
            ConfigurationError,
            match=f"duplicate result key 1; the {kind.noun} checkpoint is corrupt",
        ):
            store.load()
        assert store.path.read_bytes() == before

    def test_other_identity_rejected(self, store, kind):
        store.load()
        store.append_chunk([kind.entry(0)])
        before = self.torn(store)
        with pytest.raises(
            ConfigurationError, match=f"different {kind.noun} configuration"
        ):
            kind.open_other(store.path).load()
        assert store.path.read_bytes() == before
