"""Write-ahead evidence log: crash durability for the serving layer.

The WAL closes the durability gap between explicit snapshots: every ingest
batch is appended here — fsynced, one JSONL line per *acked* batch — before
the service folds it and acknowledges the client.  Recovery is therefore
``latest snapshot + WAL replay``: :meth:`repro.serving.service.ReputationService.recover`
restores the newest snapshot (if any) and re-ingests every WAL batch past
its watermark, yielding a session byte-identical to one that never crashed
(the same restart-identity contract the snapshot path already honors).

Format (version 1, framed by :mod:`repro.durable` like the sweep journal)::

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
  :class:`TornTailWarning`; the client's retry re-ingests them.  A batch
  counts only once its newline is on disk, so the bytes after the last
  newline are always tail.
* **Damaged interior line** (bit rot under acked data): unrecoverable acked
  evidence — :func:`verify_wal` and :meth:`WriteAheadLog.open` hard-fail
  with :class:`~repro.errors.IntegrityError`.

Compaction is keyed to snapshot watermarks: once a snapshot covers the
first ``n`` ingested events, every batch ending at or before ``n`` is dead
weight and :meth:`WriteAheadLog.compact` atomically rewrites the log
without them (:func:`repro.durable.replace_file`), keeping recovery cost
proportional to the events since the last snapshot, not since boot.

The ``wal.append`` fault site (:mod:`repro.faults`) can corrupt the encoded
line or SIGKILL the process mid-append — exactly the crashes the recovery
path must survive; ``tests/chaos`` and the CI chaos-gate drill both.
"""

from __future__ import annotations

import hashlib
import threading
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from typing import IO, Any

from repro import durable, faults
from repro.errors import IntegrityError
from repro.simulation.transaction import FeedbackBatch

WAL_MAGIC = "repro-serve-wal"
WAL_VERSION = 1

_FORMAT = durable.LogFormat(
    name=WAL_MAGIC,
    version=WAL_VERSION,
    identity_key="config_sha256",
    noun="serve WAL",
    mismatch=(
        "belongs to a differently-configured service "
        "(mechanism/refresh/default-score changed since it was written?)"
    ),
)

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
    return durable.digest(identity)


def _decode_events(events: list[Any]) -> FeedbackBatch | None:
    """A batch line's events as a batch; ``None`` when one is malformed: a
    field is missing or a rating is not a number in [0, 1].  A rating of
    -0.0 is read as 0.0."""
    try:
        ratings = [event["rating"] for event in events]
        if not all(type(rating) in (int, float) and 0.0 <= rating <= 1.0 for rating in ratings):
            return None
        return FeedbackBatch(
            transaction_ids=[event["transaction_id"] for event in events],
            times=[event["time"] for event in events],
            subjects=[event["subject"] for event in events],
            ratings=[float(rating) or 0.0 for rating in ratings],
            raters=[event["rater"] for event in events],
            truthful=[event["truthful"] for event in events],
        )
    except (KeyError, TypeError):
        return None


@dataclass(frozen=True)
class WalEntry:
    """One replayed WAL line: an acked ingest batch."""

    #: Total events the service had ingested *before* this batch.
    seq: int
    #: The client idempotency key the batch was acked under (if any).
    key: str | None
    events: FeedbackBatch

    @property
    def end(self) -> int:
        """Total events ingested *after* this batch (``seq + len(events)``)."""
        return self.seq + len(self.events)


def _sealed_line(body: bytes) -> bytes:
    """A batch line from its body's sorted-keys JSON: ``sha256`` sorts after
    every body key, so the digest goes in before the closing brace, and the
    line is the bytes ``durable.encode`` gives the body with its digest,
    from one encode instead of two."""
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return body[:-1] + b', "sha256": "' + digest + b'"}\n'


def _parse_entry_line(line: bytes) -> WalEntry | None:
    """Validate one WAL batch line; ``None`` for anything short of intact."""
    payload = durable.parse_line(line)
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
    if digest != durable.digest(body):
        return None
    decoded = _decode_events(events)
    if decoded is None:
        return None
    return WalEntry(seq=seq, key=key, events=decoded)


def _replay(log: durable.LogFile) -> tuple[list[WalEntry], int]:
    """Split a WAL's lines into the intact batches and the damaged tail.

    Returns ``(entries, tail_lines)``: the intact batches are the first
    ``len(entries)`` lines, and ``tail_lines`` damaged lines follow them
    (a torn tail counts as one).  Raises :class:`IntegrityError` for a
    damaged *interior* line (a valid line after an invalid one) or a
    sequence gap: acked evidence is gone.
    """
    entries: list[WalEntry] = []
    tail_lines = 0
    for line in log.lines:
        entry = _parse_entry_line(line) if line else None  # blank == damage
        if entry is None:
            tail_lines += 1
        elif tail_lines:
            raise IntegrityError(
                f"{log.path}: damaged interior line (valid batch seq={entry.seq} "
                f"follows {tail_lines} corrupt line(s)) — acked evidence lost"
            )
        elif entries and entry.seq != entries[-1].end:
            raise IntegrityError(
                f"{log.path}: sequence gap (batch seq={entry.seq} after "
                f"seq={entries[-1].end} expected) — acked evidence lost"
            )
        else:
            entries.append(entry)
    return entries, tail_lines + (1 if log.torn else 0)


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
        log = durable.LogFile.open(path, _FORMAT, config_sha256)
        entries, tail_lines = _replay(log)
        handle = log.reopen(keep=len(entries), fsync=fsync)
        if tail_lines:
            dropped = log.lines[len(entries) :]
            detail = {
                "kept_entries": len(entries),
                "path": path,
                "truncated_bytes": len(log.torn) + sum(len(line) + 1 for line in dropped),
                "truncated_lines": tail_lines,
            }
            warnings.warn(TornTailWarning(durable.encode(detail).decode("utf-8")), stacklevel=2)
        wal = cls(
            path,
            handle,
            config_sha256=config_sha256,
            fsync=fsync,
            entries=len(entries),
            events=sum(len(entry.events) for entry in entries),
        )
        return wal, entries, tail_lines

    def append(self, batch: FeedbackBatch, *, seq: int, key: str | None = None) -> None:
        """Durably log one acked ingest batch *before* the service acks it.

        The ``wal.append`` fault site can corrupt the encoded line or kill
        the process mid-write — exercising exactly the torn tails the
        recovery path must survive.
        """
        events = [
            {
                "rater": rater,
                "rating": rating,
                "subject": subject,
                "time": time,
                "transaction_id": transaction_id,
                "truthful": truthful,
            }
            for transaction_id, time, subject, rating, rater, truthful in zip(
                batch.transaction_ids,
                batch.times,
                batch.subjects,
                batch.ratings,
                batch.raters,
                batch.truthful,
                strict=True,
            )
        ]
        body = {"events": events, "key": key, "n": len(events), "seq": seq}
        encoded = _sealed_line(durable.encode(body))
        action = faults.fire("wal.append", seq=seq, n=len(batch))
        if action == "corrupt":
            encoded = faults.corrupt_bytes(encoded)
        with self._lock:
            durable.append(self._handle, encoded, fsync=self._fsync)
            self._entries += 1
            self._events += len(batch)

    def compact(self, upto_seq: int) -> int:
        """Atomically drop every batch a snapshot already covers.

        A batch is dead once ``entry.end <= upto_seq`` (all its events sit
        at or below the snapshot's ingested count; batches never straddle
        snapshots because snapshots take the service lock between
        batches).  The rewrite goes through
        :func:`repro.durable.replace_file`, so a crash mid-compaction
        leaves either the old or the new file, never a hybrid.  Lines that
        fail validation (e.g. a fault-corrupted tail not yet repaired) are
        kept verbatim — compaction must never destroy evidence it cannot
        vouch for.  Returns the number of batches dropped.
        """
        with self._lock:
            self._handle.flush()
            kept: list[bytes] = []
            kept_entries = 0
            kept_events = 0
            dropped = 0
            # A torn tail was never committed, so only whole lines carry over.
            for line in durable.LogFile.read(self._path, _FORMAT).lines:
                if not line:
                    continue
                entry = _parse_entry_line(line)
                if entry is not None and entry.end <= upto_seq:
                    dropped += 1
                    continue
                kept.append(line + b"\n")
                if entry is not None:
                    kept_entries += 1
                    kept_events += len(entry.events)
            durable.replace_file(self._path, [_FORMAT.header(self._config_sha256), *kept])
            self._handle.close()
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
    entries, tail_lines = _replay(durable.LogFile.read(path, _FORMAT))
    return len(entries), tail_lines
