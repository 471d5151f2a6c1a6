"""Durable sweep journal: crash-resilient, resumable record persistence.

A journal is an append-only JSONL file the sweep engine writes one line per
*completed* task into, fsynced as it goes.  Each line carries the record
itself plus the SHA-256 of its canonical JSON encoding, and the header line
pins the campaign identity — so on restart :meth:`SweepJournal.open` can
tell exactly which tasks already finished (and finished *intact*), and
``run_sweep(..., journal=...)`` re-executes only the missing or corrupt
ones.  Because every task's record is a pure function of the campaign spec
(the sweep determinism contract), a resumed sweep's merged output is
byte-identical to a cold sweep's.

Format (version 1, one JSON object per line)::

    {"campaign_sha256": "...", "format": "repro-sweep-journal", "version": 1}
    {"record": {...}, "sha256": "...", "task_index": 0}
    {"record": {...}, "sha256": "...", "task_index": 3}
    ...

Lines appear in completion order, not task order.  A truncated tail line
(crash mid-write) or a bit-flipped line (digest mismatch) invalidates only
the tasks on those lines, never the file.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Mapping
from typing import IO

from repro import faults
from repro.errors import ConfigurationError, IntegrityError
from repro.experiments.results import ExperimentRecord

JOURNAL_MAGIC = "repro-sweep-journal"
JOURNAL_VERSION = 1


def campaign_digest(campaign: Mapping[str, object]) -> str:
    """Stable identity of a sweep campaign (its sorted-keys JSON, hashed)."""
    encoded = json.dumps(dict(campaign), sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def _record_digest(payload: dict[str, object]) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


class SweepJournal:
    """Append-side handle of an open journal file.

    Use :meth:`open` (which also replays any existing lines) rather than
    constructing directly.  ``fsync=True`` makes every appended record
    durable before :meth:`append` returns — the right default for a crash
    journal; tests that hammer thousands of tiny tasks can turn it off.
    """

    def __init__(self, handle: IO[bytes], *, fsync: bool = True) -> None:
        self._handle = handle
        self._fsync = fsync

    @classmethod
    def open(
        cls,
        path: str,
        campaign: Mapping[str, object],
        *,
        fsync: bool = True,
    ) -> tuple[SweepJournal, dict[int, ExperimentRecord], int]:
        """Open (creating if missing) a journal for the given campaign.

        Returns ``(journal, completed, n_invalid)``: the records replayed
        from intact lines keyed by task index, and how many lines were
        dropped as truncated/corrupt/malformed (their tasks count as not
        done).  A journal written for a *different* campaign raises
        :class:`ConfigurationError` — resuming someone else's journal would
        silently mix incompatible records; a journal whose header is
        unreadable raises :class:`IntegrityError`.
        """
        digest = campaign_digest(campaign)
        raw = b""
        if os.path.exists(path):
            with open(path, "rb") as existing:
                raw = existing.read()
        if b"\n" not in raw:
            # Missing, empty, or a crash tore the header write: the header is
            # fsynced before the first record can be appended, so a file
            # without one complete line holds no records — start it fresh.
            handle = open(path, "wb")
            header = {
                "format": JOURNAL_MAGIC,
                "version": JOURNAL_VERSION,
                "campaign_sha256": digest,
            }
            handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
            return cls(handle, fsync=fsync), {}, 0

        lines = raw.split(b"\n")
        header_payload = _parse_json_line(lines[0])
        if (
            header_payload is None
            or header_payload.get("format") != JOURNAL_MAGIC
            or not isinstance(header_payload.get("campaign_sha256"), str)
        ):
            raise IntegrityError(f"{path}: not a sweep journal (malformed header)")
        if header_payload.get("version") != JOURNAL_VERSION:
            raise IntegrityError(
                f"{path}: unsupported journal version {header_payload.get('version')!r}"
            )
        if header_payload["campaign_sha256"] != digest:
            raise ConfigurationError(
                f"{path}: journal belongs to a different campaign "
                "(spec changed since it was written?)"
            )
        completed: dict[int, ExperimentRecord] = {}
        n_invalid = 0
        for line in lines[1:]:
            if not line:
                continue  # trailing newline / blank line
            entry = _parse_record_line(line)
            if entry is None:
                n_invalid += 1
                continue
            task_index, record = entry
            completed[task_index] = record
        return cls(open(path, "ab"), fsync=fsync), completed, n_invalid

    def append(self, record: ExperimentRecord) -> None:
        """Durably journal one completed task.

        The ``journal.record`` fault site can corrupt the encoded line
        before it hits the disk — exercising exactly the damage the replay
        path must survive.
        """
        payload = record.to_dict()
        line = {
            "task_index": record.task_index,
            "sha256": _record_digest(payload),
            "record": payload,
        }
        encoded = json.dumps(line, sort_keys=True).encode("utf-8") + b"\n"
        action = faults.fire("journal.record", task_index=record.task_index)
        if action == "corrupt":
            encoded = faults.corrupt_bytes(encoded)
        self._handle.write(encoded)
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> SweepJournal:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _parse_json_line(line: bytes) -> dict[str, object] | None:
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _parse_record_line(line: bytes) -> tuple[int, ExperimentRecord] | None:
    """Validate one journal line; ``None`` for anything short of intact."""
    payload = _parse_json_line(line)
    if payload is None:
        return None
    record_payload = payload.get("record")
    task_index = payload.get("task_index")
    digest = payload.get("sha256")
    if not isinstance(record_payload, dict) or not isinstance(task_index, int):
        return None
    if digest != _record_digest(record_payload):
        return None
    try:
        record = ExperimentRecord.from_dict(record_payload)
    except (KeyError, TypeError, ValueError):
        return None
    if record.task_index != task_index:
        return None
    return task_index, record


def verify_journal(path: str) -> tuple[int, int]:
    """Validate a journal file; returns ``(n_valid, n_invalid)`` lines.

    Raises :class:`IntegrityError` for an unreadable or headerless file —
    per-line damage is counted, not fatal, matching the resume semantics.
    """
    try:
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
    except OSError as error:
        raise IntegrityError(f"cannot read journal {path}: {error}") from error
    header = _parse_json_line(lines[0] if lines else b"")
    if header is None or header.get("format") != JOURNAL_MAGIC:
        raise IntegrityError(f"{path}: not a sweep journal (malformed header)")
    n_valid = 0
    n_invalid = 0
    for line in lines[1:]:
        if not line:
            continue
        if _parse_record_line(line) is None:
            n_invalid += 1
        else:
            n_valid += 1
    return n_valid, n_invalid
