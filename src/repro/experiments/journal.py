"""Durable sweep journal: crash-resilient, resumable record persistence.

A journal is an append-only log the sweep engine writes one line per
*completed* task into, fsynced as it goes.  Each line carries the record
itself plus the SHA-256 of its canonical JSON encoding, and the header line
pins the campaign identity — so on restart :meth:`SweepJournal.open` can
tell exactly which tasks already finished (and finished *intact*), and
``run_sweep(..., journal=...)`` re-executes only the missing or corrupt
ones.  Because every task's record is a pure function of the campaign spec
(the sweep determinism contract), a resumed sweep's merged output is
byte-identical to a cold sweep's.

Format (version 1, framed by :mod:`repro.durable`)::

    {"campaign_sha256": "...", "format": "repro-sweep-journal", "version": 1}
    {"record": {...}, "sha256": "...", "task_index": 0}
    {"record": {...}, "sha256": "...", "task_index": 3}
    ...

Lines appear in completion order, not task order.  The damage policy is to
skip bad lines anywhere: a bit-flipped or malformed line invalidates only
the task on it, never the file.  A line torn by a crash mid-append lacks
its newline, so it never counted; :meth:`SweepJournal.open` cuts it off
before the next append.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import IO

from repro import durable, faults
from repro.experiments.results import ExperimentRecord

JOURNAL_MAGIC = "repro-sweep-journal"
JOURNAL_VERSION = 1

_FORMAT = durable.LogFormat(
    name=JOURNAL_MAGIC,
    version=JOURNAL_VERSION,
    identity_key="campaign_sha256",
    noun="sweep journal",
    mismatch="belongs to a different campaign (spec changed since it was written?)",
)


def campaign_digest(campaign: Mapping[str, object]) -> str:
    """Stable identity of a sweep campaign (its sorted-keys JSON, hashed)."""
    return durable.digest(campaign)


class SweepJournal:
    """Append-side handle of an open journal file.

    Use :meth:`open` (which also replays any existing lines) rather than
    constructing directly.  Every appended record is durable before
    :meth:`append` returns.
    """

    def __init__(self, handle: IO[bytes]) -> None:
        self._handle = handle

    @classmethod
    def open(
        cls, path: str, campaign: Mapping[str, object]
    ) -> tuple[SweepJournal, dict[int, ExperimentRecord], int]:
        """Open (creating if missing) a journal for the given campaign.

        Returns ``(journal, completed, n_invalid)``: the records replayed
        from intact lines keyed by task index, and how many lines were
        dropped as truncated/corrupt/malformed (their tasks count as not
        done).  A journal written for a *different* campaign raises
        :class:`~repro.errors.ConfigurationError` — resuming someone
        else's journal would silently mix incompatible records; a journal
        whose header is unreadable raises
        :class:`~repro.errors.IntegrityError`.
        """
        log = durable.LogFile.open(path, _FORMAT, campaign_digest(campaign))
        entries, n_invalid = _replay(log)
        return cls(log.reopen()), dict(entries), n_invalid

    def append(self, record: ExperimentRecord) -> None:
        """Durably journal one completed task.

        The ``journal.record`` fault site can corrupt the encoded line
        before it hits the disk — exercising exactly the damage the replay
        path must survive.
        """
        payload = record.to_dict()
        line = {
            "task_index": record.task_index,
            "sha256": durable.digest(payload),
            "record": payload,
        }
        encoded = durable.encode(line) + b"\n"
        action = faults.fire("journal.record", task_index=record.task_index)
        if action == "corrupt":
            encoded = faults.corrupt_bytes(encoded)
        durable.append(self._handle, encoded)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> SweepJournal:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _replay(log: durable.LogFile) -> tuple[list[tuple[int, ExperimentRecord]], int]:
    """The intact ``(task_index, record)`` lines in file order, and how many
    lines are damaged (a torn tail counts as one; blank lines do not)."""
    entries: list[tuple[int, ExperimentRecord]] = []
    n_invalid = 1 if log.torn else 0
    for line in log.lines:
        if not line:
            continue
        entry = _parse_record_line(line)
        if entry is None:
            n_invalid += 1
        else:
            entries.append(entry)
    return entries, n_invalid


def _parse_record_line(line: bytes) -> tuple[int, ExperimentRecord] | None:
    """Validate one journal line; ``None`` for anything short of intact."""
    payload = durable.parse_line(line)
    if payload is None:
        return None
    record_payload = payload.get("record")
    task_index = payload.get("task_index")
    digest = payload.get("sha256")
    if not isinstance(record_payload, dict) or not isinstance(task_index, int):
        return None
    if digest != durable.digest(record_payload):
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

    Raises :class:`~repro.errors.IntegrityError` for an unreadable file or
    a header :meth:`SweepJournal.open` would refuse — per-line damage,
    a torn tail included, is counted, not fatal, matching the resume
    semantics.
    """
    entries, n_invalid = _replay(durable.LogFile.read(path, _FORMAT))
    return len(entries), n_invalid
