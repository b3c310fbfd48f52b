"""The resumable JSONL checkpoint store.

A checkpoint persists the keyed result stream of a resumable run (sweep
slots, campaign trials) as one JSON line per completed record behind a
header line that fingerprints the producing configuration, so a killed
and restarted run resumes exactly where it stopped -- and a resume
against a *different* configuration is rejected instead of silently
mixing result streams.  The format is designed so that a killed and
resumed run reproduces the uninterrupted checkpoint *byte for byte*:

* lines are appended in key order and fsynced once per chunk (the chunk is
  the unit of checkpoint durability);
* ``json.dumps`` output is deterministic (insertion-ordered dicts, exact
  float ``repr``, fixed separators);
* a trailing partial line (the process died mid-write) is physically
  truncated away on load before appending resumes -- but only *after* the
  header and every complete record have been validated, so a rejected
  file is left exactly as found.

:class:`JsonlCheckpointStore` owns all of that; a subsystem subclasses it
with its record hooks (:meth:`~JsonlCheckpointStore._encode_result`,
:meth:`~JsonlCheckpointStore._decode_result`), its header field and noun,
and the fingerprint fields its older headers lack
(``repro.batch.store.JsonlResultStore``,
``repro.campaign.store.CampaignResultStore``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, Tuple, Union

from repro.errors import ConfigurationError, path_error

__all__ = ["JsonlCheckpointStore"]

#: ``--checkpoint`` prefixes that once selected a checkpoint backend.  A
#: path starting with one is refused, so an old command line fails loudly
#: instead of creating a file literally named ``sqlite:run.db``.
_FORMER_SCHEMES = ("jsonl:", "sqlite:", "shards:")


def _dump_record(payload: Dict[str, object]) -> str:
    """One record as its canonical JSON line (trailing newline included)."""
    return json.dumps(payload, separators=(",", ":")) + "\n"


class JsonlCheckpointStore:
    """Append-only single-file JSONL store of keyed records."""

    #: Bumped when the record format changes incompatibly.
    _format_version = 1
    #: Header field holding the fingerprint (``"config"`` for sweeps,
    #: ``"campaign"`` for campaigns), so files are self-describing.
    _fingerprint_field = "config"
    #: Noun used in operator-facing error messages ("sweep", "campaign").
    _noun = "checkpoint"
    #: Fingerprint fields that headers written by older revisions lack,
    #: with the only value those headers could have been written under:
    #: the platform-model axes are the paper's platform (rm/none/zero).
    _legacy_fingerprint: Dict[str, object] = {
        "scheduler": "rm",
        "protocol": "none",
        "overheads": "zero",
    }

    def __init__(self, path: Union[str, Path], fingerprint: Dict[str, object]) -> None:
        text = str(path)
        if text.startswith(_FORMER_SCHEMES):
            scheme, _, rest = text.partition(":")
            example = rest if scheme == "jsonl" else "run.jsonl"
            raise ConfigurationError(
                f"checkpoint {text!r}: the '{scheme}:' prefix is no longer "
                f"accepted; --checkpoint takes a plain path to a JSONL "
                f"file (e.g. {example!r})"
            )
        self._path = Path(path)
        self._fingerprint = fingerprint

    @property
    def path(self) -> Path:
        return self._path

    # -- record hooks (supplied by the subsystem subclass) ---------------------

    def _encode_result(self, entry: object) -> Dict[str, object]:
        """Turn one appended entry into its ``{"kind": "result", ...}`` record."""
        raise NotImplementedError

    def _decode_result(self, record: Dict[str, object]) -> Tuple[object, object]:
        """Inverse of :meth:`_encode_result`: return ``(key, value)``."""
        raise NotImplementedError

    # -- the store -------------------------------------------------------------

    def load(self) -> Dict[object, object]:
        """Read the completed records; create a header-only file if absent.

        Raises :class:`~repro.errors.ConfigurationError` when the header
        belongs to a different configuration, the file is not a checkpoint
        at all, or the record stream is corrupt (undecodable lines, unknown
        record kinds, result records the subclass cannot decode, duplicate
        result keys).
        """
        if self._path.is_dir():
            raise ConfigurationError(
                f"checkpoint {self._path} is a directory; --checkpoint takes "
                f"a path to a JSONL file"
            )
        if not self._path.exists():
            self._create()
            return {}
        try:
            raw = self._path.read_bytes()
        except OSError as exc:
            raise path_error("checkpoint", self._path, exc) from None
        end = raw.rfind(b"\n") + 1  # just past the last complete line
        if not end:
            # Self-heal ONLY the kill-during-header-write window: the file
            # is empty, or holds a strict prefix of the (deterministic)
            # header line this store would write.  Anything else is some
            # unrelated file the user pointed us at -- refuse to touch it.
            if raw and not self._header_line().encode("utf-8").startswith(raw):
                raise self._not_a_checkpoint()
            self._create()
            return {}

        lines = raw[: end - 1].split(b"\n")
        try:
            lines[0].decode("utf-8")
        except UnicodeDecodeError:
            # Binary data (an image, a database): not a checkpoint at all.
            raise self._not_a_checkpoint() from None
        self._check_header(self._parse_record(lines[0]))
        completed: Dict[object, object] = {}
        for line in lines[1:]:
            record = self._parse_record(line)
            if record.get("kind") != "result":
                raise ConfigurationError(
                    f"checkpoint {self._path} holds an unknown record kind "
                    f"{record.get('kind')!r}"
                )
            try:
                key, value = self._decode_result(record)
            except (KeyError, TypeError, ValueError) as exc:
                # A result line missing a field or holding one of the
                # wrong type: the stream is corrupt, not resumable.
                raise ConfigurationError(
                    f"checkpoint {self._path} holds a malformed {self._noun} "
                    f"record {line.decode('utf-8')!r} "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
            if key in completed:
                # A duplicate key means the stream is corrupt (or was
                # hand-concatenated from incompatible runs); resuming from
                # whichever copy came last would silently give wrong data.
                raise ConfigurationError(
                    f"checkpoint {self._path} holds duplicate result key "
                    f"{key!r}; the {self._noun} checkpoint is corrupt -- "
                    f"delete it (or restore it from a clean copy) before "
                    f"resuming"
                )
            completed[key] = value
        # Only now that the file is confirmed to be OUR intact checkpoint
        # may the torn trailing line be physically trimmed away.
        if end < len(raw):
            with self._path.open("r+b") as handle:
                handle.truncate(end)
        return completed

    def append_chunk(self, entries: Iterable[object]) -> None:
        """Append one chunk of entries with a single flush and fsync."""
        text = "".join(_dump_record(self._encode_result(entry)) for entry in entries)
        if text:
            self._write("a", text)

    # -- helpers ---------------------------------------------------------------

    def _create(self) -> None:
        """(Re)initialise the file with just this run's header line."""
        try:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._write("w", self._header_line())
        except OSError as exc:
            # E.g. a parent that is a regular file: nothing is created.
            raise path_error("checkpoint", self._path, exc) from None

    def _write(self, mode: str, text: str) -> None:
        with self._path.open(mode, encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())

    def _header_line(self) -> str:
        return _dump_record(
            {
                "kind": "header",
                "version": self._format_version,
                self._fingerprint_field: self._fingerprint,
            }
        )

    def _not_a_checkpoint(self) -> ConfigurationError:
        return ConfigurationError(
            f"checkpoint {self._path} exists but is not a {self._noun} "
            f"checkpoint; refusing to overwrite it"
        )

    def _parse_record(self, line: bytes) -> Dict[str, object]:
        """Parse one persisted line, rejecting anything but a JSON object."""
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise ConfigurationError(
                f"checkpoint {self._path} holds a non-JSON line: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise ConfigurationError(
                f"checkpoint {self._path} holds a non-record line"
            )
        return record

    def _check_header(self, header: Dict[str, object]) -> None:
        """Validate the parsed header against this run's identity."""
        if header.get("kind") != "header":
            raise ConfigurationError(
                f"checkpoint {self._path} does not start with a header line"
            )
        if header.get("version") != self._format_version:
            raise ConfigurationError(
                f"checkpoint {self._path} uses format version "
                f"{header.get('version')}, expected {self._format_version}"
            )
        fingerprint = header.get(self._fingerprint_field)
        if isinstance(fingerprint, dict):
            fingerprint = {**self._legacy_fingerprint, **fingerprint}
        if fingerprint != self._fingerprint:
            raise ConfigurationError(
                f"checkpoint {self._path} was produced by a different "
                f"{self._noun} configuration; refusing to resume (delete the "
                f"file or point the {self._noun} at a fresh checkpoint path)"
            )
