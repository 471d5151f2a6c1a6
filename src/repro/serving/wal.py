"""Write-ahead evidence log: crash durability for the serving layer.

The WAL closes the durability gap between explicit snapshots: every ingest
batch is appended here — fsynced, one JSONL line per *acked* batch — before
the service folds it and acknowledges the client.  Recovery is therefore
``latest snapshot + WAL replay``: :meth:`repro.serving.service.ReputationService.recover`
restores the newest snapshot (if any) and re-ingests every WAL batch past
its watermark, yielding a session byte-identical to one that never crashed
(the same restart-identity contract the snapshot path already honors).

Format (version 1, one JSON object per line, reusing the sweep-journal
discipline of :mod:`repro.experiments.journal`)::

    {"config_sha256": "...", "format": "repro-serve-wal", "version": 1}
    {"events": [...], "key": "c1-0", "n": 2, "seq": 0, "sha256": "..."}
    {"events": [...], "key": null, "n": 1, "seq": 2, "sha256": "..."}
    ...

``seq`` is the service's total-ingested counter *before* the batch, so
batches are contiguous: each line's ``seq`` equals the previous line's
``seq + n``.  ``key`` is the client's idempotency key (replayed into the
dedup window on recovery so retries after a crash still never
double-ingest).  ``sha256`` covers the line's canonical JSON sans itself.

Damage policy — asymmetric on purpose:

* **Torn/corrupt tail** (crash mid-append): those batches were never acked,
  so they are *truncated* from the file with a structured
  :class:`TornTailWarning`; the client's retry re-ingests them.
* **Damaged interior line** (bit rot under acked data): unrecoverable acked
  evidence — :func:`verify_wal` and :meth:`WriteAheadLog.open` hard-fail
  with :class:`~repro.errors.IntegrityError`.

Compaction is keyed to snapshot watermarks: once a snapshot covers the
first ``n`` ingested events, every batch ending at or before ``n`` is dead
weight and :meth:`WriteAheadLog.compact` atomically rewrites the log
without them (tmp file + fsync + ``os.replace``), keeping recovery cost
proportional to the events since the last snapshot, not since boot.

The ``wal.append`` fault site (:mod:`repro.faults`) can corrupt the encoded
line or SIGKILL the process mid-append — exactly the crashes the recovery
path must survive; ``tests/chaos`` and the CI chaos-gate drill both.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import IO

from repro import faults
from repro._util import fsync_directory
from repro.errors import ConfigurationError, IntegrityError
from repro.simulation.transaction import Feedback

WAL_MAGIC = "repro-serve-wal"
WAL_VERSION = 1

#: Wire fields of one feedback event inside a WAL line (sorted).
_FEEDBACK_FIELDS = ("rater", "rating", "subject", "time", "transaction_id", "truthful")


class TornTailWarning(UserWarning):
    """A WAL's torn/corrupt tail was truncated during recovery.

    The warning message is a sorted-keys JSON object
    (``path`` / ``kept_entries`` / ``truncated_lines`` / ``truncated_bytes``)
    so log scrapers get structure, not prose.
    """


def config_digest(identity: Mapping[str, object]) -> str:
    """Stable identity of the service config a WAL belongs to.

    Replaying a WAL into a differently-configured service would produce
    silently different scores, so the header pins the score-relevant
    config subset (sorted-keys JSON, hashed) the same way sweep journals
    pin their campaign.
    """
    encoded = json.dumps(dict(identity), sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def feedback_to_wire(feedback: Feedback) -> dict[str, object]:
    """One feedback event as a plain JSON object (all fields, explicit)."""
    return {
        "rater": feedback.rater,
        "rating": feedback.rating,
        "subject": feedback.subject,
        "time": feedback.time,
        "transaction_id": feedback.transaction_id,
        "truthful": feedback.truthful,
    }


def feedback_from_wire(payload: Mapping[str, object]) -> Feedback:
    """Rebuild a :class:`Feedback` from its WAL wire form."""
    try:
        return Feedback(
            transaction_id=payload["transaction_id"],  # type: ignore[arg-type]
            time=payload["time"],  # type: ignore[arg-type]
            subject=payload["subject"],  # type: ignore[arg-type]
            rating=payload["rating"],  # type: ignore[arg-type]
            rater=payload["rater"],  # type: ignore[arg-type]
            truthful=payload["truthful"],  # type: ignore[arg-type]
        )
    except (KeyError, TypeError) as error:
        raise IntegrityError(f"malformed WAL feedback payload: {error}") from error


@dataclass(frozen=True)
class WalEntry:
    """One replayed WAL line: an acked ingest batch."""

    #: Total events the service had ingested *before* this batch.
    seq: int
    #: The client idempotency key the batch was acked under (if any).
    key: str | None
    events: tuple[Feedback, ...]

    @property
    def end(self) -> int:
        """Total events ingested *after* this batch (``seq + len(events)``)."""
        return self.seq + len(self.events)


def _entry_digest(payload: Mapping[str, object]) -> str:
    encoded = json.dumps(dict(payload), sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def _parse_json_line(line: bytes) -> dict[str, object] | None:
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _parse_entry_line(line: bytes) -> WalEntry | None:
    """Validate one WAL batch line; ``None`` for anything short of intact."""
    payload = _parse_json_line(line)
    if payload is None:
        return None
    seq = payload.get("seq")
    n = payload.get("n")
    key = payload.get("key")
    digest = payload.get("sha256")
    events = payload.get("events")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        return None
    if not isinstance(events, list) or not isinstance(n, int) or n != len(events):
        return None
    if key is not None and not isinstance(key, str):
        return None
    body = {"events": events, "key": key, "n": n, "seq": seq}
    if digest != _entry_digest(body):
        return None
    try:
        decoded = tuple(feedback_from_wire(event) for event in events)
    except IntegrityError:
        return None
    return WalEntry(seq=seq, key=key, events=decoded)


def _scan(
    path: str, raw: bytes, *, expected_config: str | None
) -> tuple[list[WalEntry], list[bytes], int, int]:
    """Classify a WAL's bytes into valid prefix + torn tail.

    Returns ``(entries, raw_entry_lines, tail_offset, tail_lines)`` where
    ``tail_offset`` is the byte offset the file must be truncated to (its
    length when the tail is clean) and ``tail_lines`` how many damaged
    lines sit past it.  Raises :class:`IntegrityError` for a malformed
    header, a damaged *interior* line (a valid line after an invalid one)
    or a sequence gap, and :class:`ConfigurationError` when the header pins
    a different service config than ``expected_config``.
    """
    lines = raw.split(b"\n")
    header = _parse_json_line(lines[0] if lines else b"")
    if (
        header is None
        or header.get("format") != WAL_MAGIC
        or not isinstance(header.get("config_sha256"), str)
    ):
        raise IntegrityError(f"{path}: not a serve WAL (malformed header)")
    if header.get("version") != WAL_VERSION:
        raise IntegrityError(
            f"{path}: unsupported WAL version {header.get('version')!r}"
        )
    if expected_config is not None and header["config_sha256"] != expected_config:
        raise ConfigurationError(
            f"{path}: WAL belongs to a differently-configured service "
            "(mechanism/refresh/default-score changed since it was written?)"
        )
    entries: list[WalEntry] = []
    raw_lines: list[bytes] = []
    offset = len(lines[0]) + 1
    tail_offset = offset
    tail_lines = 0
    for index, line in enumerate(lines[1:]):
        is_last = index == len(lines) - 2
        if not line:
            if is_last:
                continue  # trailing newline
            entry = None  # blank interior line == damage
        else:
            entry = _parse_entry_line(line)
        if entry is None:
            tail_lines += 1
        elif tail_lines:
            raise IntegrityError(
                f"{path}: damaged interior line (valid batch seq={entry.seq} "
                f"follows {tail_lines} corrupt line(s)) — acked evidence lost"
            )
        else:
            if entries and entry.seq != entries[-1].end:
                raise IntegrityError(
                    f"{path}: sequence gap (batch seq={entry.seq} after "
                    f"seq={entries[-1].end} expected) — acked evidence lost"
                )
            entries.append(entry)
            raw_lines.append(line)
            tail_offset = offset + len(line) + 1
        offset += len(line) + 1
    return entries, raw_lines, tail_offset, tail_lines


class WriteAheadLog:
    """Append-side handle of an open serve WAL.

    Use :meth:`open` (which also replays and repairs the existing file)
    rather than constructing directly.  ``fsync=True`` makes every
    appended batch durable before :meth:`append` returns — the whole point
    of a WAL; tests that hammer thousands of tiny batches can turn it off.
    All methods are thread-safe.
    """

    def __init__(
        self,
        path: str,
        handle: IO[bytes],
        *,
        config_sha256: str,
        fsync: bool = True,
        entries: int = 0,
        events: int = 0,
    ) -> None:
        self._path = path
        self._handle = handle
        self._config_sha256 = config_sha256
        self._fsync = fsync
        self._entries = entries
        self._events = events
        self._lock = threading.Lock()

    @classmethod
    def open(
        cls,
        path: str,
        *,
        config_sha256: str,
        fsync: bool = True,
    ) -> tuple[WriteAheadLog, list[WalEntry], int]:
        """Open (creating if missing) a WAL pinned to a service config.

        Returns ``(wal, entries, n_truncated)``: the intact batches in
        append order and how many torn/corrupt tail lines were truncated
        away (each truncation also emits a :class:`TornTailWarning`).
        Interior damage raises :class:`~repro.errors.IntegrityError`; a
        WAL written for a differently-configured service raises
        :class:`~repro.errors.ConfigurationError`.
        """
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            # Missing, or a crash beat the header write: nothing was ever
            # acked through this file, so start it fresh.
            handle = open(path, "wb")
            header = {
                "config_sha256": config_sha256,
                "format": WAL_MAGIC,
                "version": WAL_VERSION,
            }
            handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
            return cls(path, handle, config_sha256=config_sha256, fsync=fsync), [], 0

        with open(path, "rb") as existing:
            raw = existing.read()
        if b"\n" not in raw:
            # Torn header write: the header is fsynced before the first
            # append can happen, so a file without even one complete line
            # holds no acked data — recreate it.
            handle = open(path, "wb")
            header = {
                "config_sha256": config_sha256,
                "format": WAL_MAGIC,
                "version": WAL_VERSION,
            }
            handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
            return cls(path, handle, config_sha256=config_sha256, fsync=fsync), [], 0
        entries, _, tail_offset, tail_lines = _scan(
            path, raw, expected_config=config_sha256
        )
        if tail_lines:
            with open(path, "r+b") as repair:
                repair.truncate(tail_offset)
                repair.flush()
                os.fsync(repair.fileno())
            warnings.warn(
                TornTailWarning(
                    json.dumps(
                        {
                            "kept_entries": len(entries),
                            "path": path,
                            "truncated_bytes": len(raw) - tail_offset,
                            "truncated_lines": tail_lines,
                        },
                        sort_keys=True,
                    )
                ),
                stacklevel=2,
            )
        wal = cls(
            path,
            open(path, "ab"),
            config_sha256=config_sha256,
            fsync=fsync,
            entries=len(entries),
            events=sum(len(entry.events) for entry in entries),
        )
        return wal, entries, tail_lines

    def append(
        self, events: Sequence[Feedback], *, seq: int, key: str | None = None
    ) -> None:
        """Durably log one acked ingest batch *before* the service acks it.

        The ``wal.append`` fault site can corrupt the encoded line or kill
        the process mid-write — exercising exactly the torn tails the
        recovery path must survive.
        """
        wire = [feedback_to_wire(event) for event in events]
        body = {"events": wire, "key": key, "n": len(wire), "seq": seq}
        line = dict(body)
        line["sha256"] = _entry_digest(body)
        encoded = json.dumps(line, sort_keys=True).encode("utf-8") + b"\n"
        action = faults.fire("wal.append", seq=seq, n=len(wire))
        if action == "corrupt":
            encoded = faults.corrupt_bytes(encoded)
        with self._lock:
            self._handle.write(encoded)
            self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())
            self._entries += 1
            self._events += len(wire)

    def compact(self, upto_seq: int) -> int:
        """Atomically drop every batch a snapshot already covers.

        A batch is dead once ``entry.end <= upto_seq`` (all its events sit
        at or below the snapshot's ingested count; batches never straddle
        snapshots because snapshots take the service lock between
        batches).  The rewrite goes through a temp file + fsync +
        ``os.replace`` so a crash mid-compaction leaves either the old or
        the new file, never a hybrid.  Lines that fail validation (e.g. a
        fault-corrupted tail not yet repaired) are kept verbatim —
        compaction must never destroy evidence it cannot vouch for.
        Returns the number of batches dropped.
        """
        with self._lock:
            self._handle.flush()
            with open(self._path, "rb") as current:
                raw = current.read()
            lines = [line for line in raw.split(b"\n")[1:] if line]
            kept: list[bytes] = []
            kept_entries = 0
            kept_events = 0
            dropped = 0
            for line in lines:
                entry = _parse_entry_line(line)
                if entry is not None and entry.end <= upto_seq:
                    dropped += 1
                    continue
                kept.append(line)
                if entry is not None:
                    kept_entries += 1
                    kept_events += len(entry.events)
            header = {
                "config_sha256": self._config_sha256,
                "format": WAL_MAGIC,
                "version": WAL_VERSION,
            }
            tmp_path = f"{self._path}.tmp"
            with open(tmp_path, "wb") as tmp:
                tmp.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
                for line in kept:
                    tmp.write(line + b"\n")
                tmp.flush()
                os.fsync(tmp.fileno())
            self._handle.close()
            os.replace(tmp_path, self._path)
            fsync_directory(self._path)
            self._handle = open(self._path, "ab")
            self._entries = kept_entries
            self._events = kept_events
            return dropped

    @property
    def path(self) -> str:
        return self._path

    @property
    def entry_count(self) -> int:
        """Batch lines currently in the log (post-replay, post-compaction)."""
        with self._lock:
            return self._entries

    @property
    def event_count(self) -> int:
        """Feedback events currently in the log."""
        with self._lock:
            return self._events

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> WriteAheadLog:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def verify_wal(path: str) -> tuple[int, int]:
    """Validate a serve WAL; returns ``(n_valid, n_tail_invalid)`` lines.

    Torn/corrupt *tail* lines are counted (the next recovery will truncate
    them — they were never acked); a damaged *interior* line, a sequence
    gap, or a malformed header raises
    :class:`~repro.errors.IntegrityError` because acked evidence is gone.
    Unlike :meth:`WriteAheadLog.open` this never modifies the file and
    never checks the config digest (``verify-records`` has no config).
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as error:
        raise IntegrityError(f"cannot read WAL {path}: {error}") from error
    entries, _, _, tail_lines = _scan(path, raw, expected_config=None)
    return len(entries), tail_lines
