"""The transport-agnostic reputation service session.

:class:`ReputationService` stands the offline reputation engine up as a
long-lived session: it owns one :class:`~repro.reputation.base.ReputationSystem`
plus an append-only evidence log, accepts streaming feedback ingestion, and
serves score/rank queries off the *current watermark* — the published
:class:`~repro.reputation.base.ScoreView` of the last refresh.  Ingestion is
batched into the PR-5 incremental-refresh path: every accepted event lands in
the mechanism's evidence store immediately (an O(1) append the incremental
pair-ledger folds later), and scores are re-published once per
``refresh_every`` events instead of per event, so queries between refreshes
are dictionary lookups.

Restart safety layers two mechanisms.  :meth:`snapshot` writes a versioned,
SHA-256-checksummed checkpoint file (kind ``"service"``, now with a
``verify-records``-compatible sidecar) holding the full session, and
:meth:`ReputationService.restore` rehydrates it.  On top of that the PR-10
write-ahead log (:mod:`repro.serving.wal`) makes *acked mean durable*: when
a WAL is attached, every ingest batch is fsynced to the log before the call
returns, and :meth:`ReputationService.recover` = restore the latest snapshot
+ replay the WAL past its watermark — byte-identical to a session that never
crashed.  Snapshots double as the WAL's compaction watermark: a background
maintenance thread drops batches the newest snapshot already covers.

Overload protection: ingestion is gated by a bounded
:class:`AdmissionGate` (shed with HTTP 429 + ``Retry-After`` once
``max_pending_requests`` are in flight) and a per-client token-bucket
:class:`ClientRateLimiter`; a health state machine (``ok`` | ``degraded`` |
``read_only``) is surfaced via :meth:`health`.  In ``read_only`` mode
(entered automatically when a WAL append fails, or explicitly via
:meth:`enter_read_only`) writes raise :class:`~repro.errors.ReadOnlyError`
(HTTP 503) while reads keep answering from the stale watermark.
Idempotency keys give retrying clients exactly-once ingestion: a batch
re-sent under an acked key returns the original receipt (marked
``duplicate``) instead of double-ingesting.

Thread safety: one re-entrant lock serializes every state-touching operation,
so the threaded HTTP adapter can fan requests in without coordination.
Latency accounting is strictly observational (see :mod:`repro.serving.sla`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro import faults
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    InjectedFault,
    IntegrityError,
    OverloadError,
    ReadOnlyError,
)
from repro.experiments.results import write_checksum_sidecar
from repro.reputation import REPUTATION_FACTORIES, make_reputation_system
from repro.reputation.base import ReputationSystem, ScoreView
from repro.serving.sla import OperationClock, clock as sla_clock
from repro.serving.wal import WalEntry, WriteAheadLog, config_digest
from repro.simulation.checkpoint import read_checkpoint, write_checkpoint
from repro.simulation.transaction import Feedback

#: Checkpoint ``kind`` tag for service snapshots.
SERVICE_CHECKPOINT_KIND = "service"

#: Operation families the service tracks latencies for.
SERVICE_OPERATIONS = ("ingest", "query", "refresh", "snapshot")

#: Health states the service moves through (see :meth:`ReputationService.health`).
SERVICE_STATES = ("ok", "degraded", "read_only")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a reputation service session is parameterized on."""

    #: Registered mechanism name (``repro.reputation.REPUTATION_FACTORIES``).
    mechanism: str = "beta"
    #: Accepted for callers written when the compute path was selectable;
    #: ``"auto"`` is the only valid value and nothing reads it.
    backend: str = "auto"
    #: Publish fresh scores every N accepted events (1 = per event).
    refresh_every: int = 64
    #: Score served for peers without evidence.
    default_score: float = 0.5
    #: Optional per-subject evidence cap forwarded to the mechanism.
    max_evidence_per_subject: int | None = None
    #: Ring-buffer window of the per-operation latency trackers.
    latency_window: int = 4096
    #: Concurrently-admitted ingest requests before shedding with 429.
    max_pending_requests: int = 64
    #: Sustained per-client request rate (requests/second); ``None`` disables.
    client_rate: float | None = None
    #: Token-bucket burst size per client.
    client_burst: int = 8
    #: Acked idempotency keys remembered for duplicate suppression.
    dedup_window: int = 1024
    #: ``Retry-After`` hint (seconds) returned with 429/503 responses.
    retry_after: float = 0.1

    def __post_init__(self) -> None:
        if self.mechanism not in REPUTATION_FACTORIES:
            raise ConfigurationError(
                f"unknown mechanism {self.mechanism!r}; expected one of "
                f"{sorted(REPUTATION_FACTORIES)}"
            )
        if self.backend != "auto":
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; there is one compute path, "
                "so only 'auto' is accepted"
            )
        if self.refresh_every < 1:
            raise ConfigurationError("refresh_every must be at least 1")
        if self.latency_window < 1:
            raise ConfigurationError("latency_window must be at least 1")
        if self.max_pending_requests < 1:
            raise ConfigurationError("max_pending_requests must be at least 1")
        if self.client_rate is not None and not self.client_rate > 0:
            raise ConfigurationError("client_rate must be positive (or None)")
        if self.client_burst < 1:
            raise ConfigurationError("client_burst must be at least 1")
        if self.dedup_window < 0:
            raise ConfigurationError("dedup_window must be non-negative")
        if self.retry_after < 0:
            raise ConfigurationError("retry_after must be non-negative")

    def wal_identity(self) -> dict[str, object]:
        """The score-relevant config subset a WAL header pins.

        Replay only depends on what changes the *scores* an event stream
        produces; transport/backpressure knobs stay out so an operator can
        retune them across restarts without orphaning the log.
        """
        return {
            "default_score": self.default_score,
            "max_evidence_per_subject": self.max_evidence_per_subject,
            "mechanism": self.mechanism,
            "refresh_every": self.refresh_every,
        }


@dataclass(frozen=True)
class IngestReceipt:
    """What one ingest call tells the client."""

    #: Events accepted by this call.
    accepted: int
    #: Total events accepted over the session's lifetime.
    ingested: int
    #: Events folded into the currently published scores.
    watermark: int
    #: Whether this call crossed a refresh boundary and republished scores.
    refreshed: bool
    #: Total events the service had ingested *before* this call (WAL seq).
    seq: int = 0
    #: Whether this receipt was replayed from the idempotency dedup window.
    duplicate: bool = False


@dataclass(frozen=True)
class PeerSummary:
    """One peer's served reputation state at a watermark."""

    peer_id: str
    score: float
    #: 1-based position in the ranking; ``None`` for unknown peers.
    rank: int | None
    #: Whether the published scores carry this peer at all.
    known: bool
    #: Watermark (events folded) the summary was served at.
    watermark: int


@dataclass
class ServiceSnapshot:
    """Checkpoint payload of a paused service session.

    The mechanism travels with its whole gathering state (feedback store,
    incremental pair-ledger folds, cached scores), so a restored service
    continues the incremental-refresh path exactly where it stopped.
    """

    config: ServiceConfig
    system: ReputationSystem
    evidence: list[Feedback]
    ingested: int
    watermark: int
    refreshes: int
    published: dict[str, float] = field(default_factory=dict)


def feedback_from_payload(payload: Mapping[str, object], *, sequence: int) -> Feedback:
    """Build a :class:`Feedback` from a client JSON object.

    Required fields: ``subject`` (peer id) and ``rating`` (number in
    ``[0, 1]``).  Optional: ``rater`` (omit or ``null`` for anonymous
    reports), ``time`` and ``transaction_id`` (both default to the ingest
    sequence number, which preserves arrival order for forgetting-weighted
    mechanisms).  Unknown fields are rejected — a silently dropped typo in
    a feedback field would corrupt evidence without any error surfacing.
    """
    allowed = {"subject", "rating", "rater", "time", "transaction_id"}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ConfigurationError(f"unknown feedback fields: {unknown}")
    subject = payload.get("subject")
    if not isinstance(subject, str) or not subject:
        raise ConfigurationError("feedback needs a non-empty string 'subject'")
    rating = payload.get("rating")
    if isinstance(rating, bool) or not isinstance(rating, (int, float)):
        raise ConfigurationError("feedback needs a numeric 'rating' in [0, 1]")
    rater = payload.get("rater")
    if rater is not None and not isinstance(rater, str):
        raise ConfigurationError("'rater' must be a string or null")
    time = payload.get("time", sequence)
    if isinstance(time, bool) or not isinstance(time, int):
        raise ConfigurationError("'time' must be an integer")
    transaction_id = payload.get("transaction_id", sequence)
    if isinstance(transaction_id, bool) or not isinstance(transaction_id, int):
        raise ConfigurationError("'transaction_id' must be an integer")
    return Feedback(
        transaction_id=transaction_id,
        time=time,
        subject=subject,
        rating=float(rating),
        rater=rater,
    )


class AdmissionGate:
    """Bounded admission control for the write path.

    At most ``capacity`` requests may be inside :meth:`admit` at once;
    everything beyond that is *shed* immediately with
    :class:`~repro.errors.OverloadError` (HTTP 429) instead of queueing
    unboundedly — the memory-stays-bounded half of graceful degradation.
    The ``http.admit`` fault site can force a shed (action ``degrade`` or
    ``corrupt``) regardless of depth, which is how the overload drills
    stay deterministic.
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._lock = threading.Lock()
        self._depth = 0
        self._high_water = 0
        self._shed = 0

    @contextmanager
    def admit(self, *, retry_after: float = 0.0) -> Iterator[None]:
        """Hold one admission slot for the duration of the ``with`` body."""
        action = faults.fire("http.admit", depth=self.depth)
        with self._lock:
            if action is not None or self._depth >= self._capacity:
                self._shed += 1
                raise OverloadError(
                    f"admission queue full ({self._capacity} requests in flight)",
                    retry_after=retry_after,
                )
            self._depth += 1
            if self._depth > self._high_water:
                self._high_water = self._depth
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    @property
    def high_water(self) -> int:
        """Deepest concurrent admission seen over the session."""
        with self._lock:
            return self._high_water

    @property
    def shed_total(self) -> int:
        """Requests rejected at the gate over the session."""
        with self._lock:
            return self._shed

    def summary(self) -> dict[str, int]:
        """Counters for :meth:`ReputationService.health` / the bench."""
        with self._lock:
            return {
                "capacity": self._capacity,
                "depth": self._depth,
                "high_water": self._high_water,
                "shed": self._shed,
            }


class ClientRateLimiter:
    """Per-client token-bucket rate limiting.

    Each client id owns a bucket of ``burst`` tokens refilled at ``rate``
    tokens/second; a request costs one token, and an empty bucket means
    shed (HTTP 429) with a computed retry hint.  ``rate=None`` disables
    limiting entirely.  Buckets are LRU-capped at ``max_clients`` so an
    open deployment cannot grow memory without bound.  Time comes from
    :func:`repro.serving.sla.clock` (injectable for deterministic tests).
    """

    def __init__(
        self,
        rate: float | None,
        burst: int,
        *,
        max_clients: int = 1024,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self._rate = rate
        self._burst = float(burst)
        self._max_clients = max_clients
        self._clock = sla_clock if clock is None else clock
        self._lock = threading.Lock()
        self._buckets: OrderedDict[str, tuple[float, float]] = OrderedDict()
        self._limited = 0

    def allow(self, client_id: str) -> tuple[bool, float]:
        """Spend one token; returns ``(allowed, retry_after_seconds)``."""
        if self._rate is None:
            return True, 0.0
        now = self._clock()
        with self._lock:
            tokens, last = self._buckets.pop(client_id, (self._burst, now))
            tokens = min(self._burst, tokens + (now - last) * self._rate)
            if tokens >= 1.0:
                self._buckets[client_id] = (tokens - 1.0, now)
                allowed, wait = True, 0.0
            else:
                self._buckets[client_id] = (tokens, now)
                self._limited += 1
                allowed, wait = False, (1.0 - tokens) / self._rate
            while len(self._buckets) > self._max_clients:
                self._buckets.popitem(last=False)
            return allowed, wait

    @property
    def limited_total(self) -> int:
        """Requests rejected by rate limiting over the session."""
        with self._lock:
            return self._limited


def _replayed_receipt(entry: WalEntry, refresh_every: int) -> IngestReceipt:
    """Reconstruct the receipt a pre-snapshot WAL batch was acked with.

    Deterministic from the batch bounds alone: refreshes fire at every
    ``refresh_every`` crossing, so the watermark after the batch is the
    last multiple at or below its end.  (Explicit ``refresh()`` calls
    between batches can make the historical watermark differ — the dedup
    window only needs ``accepted``/``seq``/``duplicate`` to be exact.)
    """
    return IngestReceipt(
        accepted=len(entry.events),
        ingested=entry.end,
        watermark=(entry.end // refresh_every) * refresh_every,
        refreshed=(entry.end // refresh_every) != (entry.seq // refresh_every),
        seq=entry.seq,
    )


class ReputationService:
    """A live reputation-serving session over one mechanism.

    See the module docstring for the architecture.  All public methods are
    thread-safe; none of them block on anything but the session lock.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        wal: WriteAheadLog | None = None,
        **overrides: object,
    ) -> None:
        if config is None:
            config = ServiceConfig(**overrides)  # type: ignore[arg-type]
        elif overrides:
            raise ConfigurationError("pass either a config object or keyword overrides")
        self.config = config
        self._system = make_reputation_system(
            config.mechanism,
            default_score=config.default_score,
            max_evidence_per_subject=config.max_evidence_per_subject,
        )
        self._evidence: list[Feedback] = []
        self._ingested = 0
        self._watermark = 0
        self._refreshes = 0
        self._published = ScoreView(default_score=config.default_score)
        self._ranking: list[str] = []
        self._lock = threading.RLock()
        self._clock = OperationClock(SERVICE_OPERATIONS, window=config.latency_window)
        self._wal = wal
        self._snapshotted = 0
        self._read_only_reason: str | None = None
        self._dedup: OrderedDict[str, IngestReceipt] = OrderedDict()
        self._gate = AdmissionGate(config.max_pending_requests)
        self._limiter = ClientRateLimiter(config.client_rate, config.client_burst)
        self._compact_event = threading.Event()
        self._closed = threading.Event()
        self._maintenance: threading.Thread | None = None

    # -- ingestion ---------------------------------------------------------

    def ingest(
        self,
        event: Feedback | Mapping[str, object],
        *,
        idempotency_key: str | None = None,
    ) -> IngestReceipt:
        """Accept one feedback event (see :meth:`ingest_many`)."""
        return self.ingest_many((event,), idempotency_key=idempotency_key)

    def ingest_many(
        self,
        events: Iterable[Feedback | Mapping[str, object]],
        *,
        idempotency_key: str | None = None,
    ) -> IngestReceipt:
        """Accept a batch of feedback events in order.

        The batch is validated up front, durably appended to the WAL (when
        one is attached) and only then folded — so *acked means durable*:
        either the whole batch is logged and acknowledged, or the call
        raises and nothing was ingested.  Scores are republished whenever
        the accepted count crosses a ``refresh_every`` boundary, so one
        large batch may refresh several times (the same watermarks a
        one-by-one stream would hit — restart byte-identity depends on
        that).

        ``idempotency_key`` makes retries safe: a batch re-sent under a
        key that was already acked (within ``config.dedup_window`` keys)
        returns the original receipt marked ``duplicate=True`` instead of
        ingesting twice.  In read-only mode the call raises
        :class:`~repro.errors.ReadOnlyError` without touching any state.
        """
        with self._lock, self._clock.timed("ingest"):
            if self._read_only_reason is not None:
                raise ReadOnlyError(
                    f"service is read-only: {self._read_only_reason}",
                    retry_after=self.config.retry_after,
                )
            if idempotency_key is not None:
                cached = self._dedup.get(idempotency_key)
                if cached is not None:
                    return replace(cached, duplicate=True)
            batch: list[Feedback] = []
            for offset, event in enumerate(events):
                if isinstance(event, Feedback):
                    batch.append(event)
                else:
                    batch.append(
                        feedback_from_payload(event, sequence=self._ingested + offset)
                    )
            return self._ingest_batch(batch, key=idempotency_key, write_wal=True)

    def _ingest_batch(
        self, batch: list[Feedback], *, key: str | None, write_wal: bool
    ) -> IngestReceipt:
        """Log, fold and ack one validated batch (caller holds the lock)."""
        seq = self._ingested
        if write_wal and self._wal is not None:
            try:
                self._wal.append(batch, seq=seq, key=key)
            except (OSError, InjectedFault) as error:
                # Durability is gone: refuse further writes rather than
                # acking events a crash would silently lose.
                self._read_only_reason = f"WAL append failed: {error}"
                raise ReadOnlyError(
                    f"service is read-only: {self._read_only_reason}",
                    retry_after=self.config.retry_after,
                ) from error
        refreshed = False
        for feedback in batch:
            self._evidence.append(feedback)
            self._system.record_feedback(feedback)
            self._ingested += 1
            if self._ingested % self.config.refresh_every == 0:
                self._publish()
                refreshed = True
        receipt = IngestReceipt(
            accepted=len(batch),
            ingested=self._ingested,
            watermark=self._watermark,
            refreshed=refreshed,
            seq=seq,
        )
        if key is not None:
            self._remember(key, receipt)
        return receipt

    def _remember(self, key: str, receipt: IngestReceipt) -> None:
        """Park an acked receipt in the bounded idempotency window."""
        if self.config.dedup_window == 0:
            return
        self._dedup[key] = receipt
        self._dedup.move_to_end(key)
        while len(self._dedup) > self.config.dedup_window:
            self._dedup.popitem(last=False)

    def _publish(self) -> None:
        """Refresh the mechanism and publish the new score watermark."""
        with self._clock.timed("refresh"):
            self._published = self._system.refresh()
            self._ranking = self._published.ranking()
            self._watermark = self._ingested
            self._refreshes += 1

    def refresh(self) -> ScoreView:
        """Force a refresh now (flushes any pending events) and publish."""
        with self._lock:
            self._publish()
            return self._published

    # -- overload / health -------------------------------------------------

    @property
    def admission(self) -> AdmissionGate:
        """The bounded admission gate HTTP adapters wrap ingestion in."""
        return self._gate

    @property
    def rate_limiter(self) -> ClientRateLimiter:
        """The per-client token-bucket limiter HTTP adapters consult."""
        return self._limiter

    @property
    def state(self) -> str:
        """Health state: ``ok`` | ``degraded`` (gate half full) | ``read_only``."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._read_only_reason is not None:
            return "read_only"
        if self._gate.depth * 2 >= self._gate.capacity:
            return "degraded"
        return "ok"

    @property
    def read_only_reason(self) -> str | None:
        """Why writes are refused (``None`` while writable)."""
        with self._lock:
            return self._read_only_reason

    def enter_read_only(self, reason: str) -> None:
        """Refuse writes from now on; reads keep serving the stale watermark."""
        with self._lock:
            self._read_only_reason = reason

    def resume_writes(self) -> None:
        """Leave read-only mode (operator action after resolving the cause)."""
        with self._lock:
            self._read_only_reason = None

    # -- queries -----------------------------------------------------------

    def scores(self) -> ScoreView:
        """The published scores at the current watermark (no refresh)."""
        with self._lock, self._clock.timed("query"):
            return ScoreView(self._published, default_score=self.config.default_score)

    def ranking(self, limit: int | None = None) -> list[str]:
        """Peer ids from most to least reputable at the current watermark."""
        with self._lock, self._clock.timed("query"):
            ranking = self._ranking
            return list(ranking if limit is None else ranking[: max(limit, 0)])

    def peer(self, peer_id: str) -> PeerSummary:
        """One peer's served score and rank at the current watermark."""
        with self._lock, self._clock.timed("query"):
            known = peer_id in self._published
            rank = self._ranking.index(peer_id) + 1 if known else None
            return PeerSummary(
                peer_id=peer_id,
                score=self._published.score_of(peer_id),
                rank=rank,
                known=known,
                watermark=self._watermark,
            )

    @property
    def watermark(self) -> int:
        """Events folded into the published scores."""
        with self._lock:
            return self._watermark

    @property
    def pending(self) -> int:
        """Accepted events not yet reflected in the published scores."""
        with self._lock:
            return self._ingested - self._watermark

    def health(self) -> dict[str, object]:
        """Liveness plus the session counters and SLA latency summary."""
        with self._lock:
            wal = self._wal
            wal_summary: dict[str, object] | None = None
            if wal is not None:
                wal_summary = {
                    "entries": wal.entry_count,
                    "events": wal.event_count,
                    "path": wal.path,
                }
            return {
                "status": self._state_locked(),
                "mechanism": self.config.mechanism,
                "ingested": self._ingested,
                "watermark": self._watermark,
                "pending": self._ingested - self._watermark,
                "refreshes": self._refreshes,
                "known_peers": len(self._published),
                "refresh_every": self.config.refresh_every,
                "latency": self._clock.summary(),
                "admission": self._gate.summary(),
                "rate_limited": self._limiter.limited_total,
                "read_only_reason": self._read_only_reason,
                "dedup_keys": len(self._dedup),
                "wal": wal_summary,
            }

    # -- snapshot / restore / recovery -------------------------------------

    def snapshot(self, path: str) -> dict[str, object]:
        """Persist the full session to a checkpoint file.

        Atomic, versioned and checksummed (see
        :mod:`repro.simulation.checkpoint`), with a SHA-256 sidecar so
        ``verify-records`` can audit it; returns the snapshot's vitals for
        the caller (the HTTP adapter echoes them to the client).  With a
        WAL attached, the snapshot also advances the compaction watermark
        and nudges the background maintenance thread to drop the batches
        it covers.
        """
        with self._lock, self._clock.timed("snapshot"):
            payload = ServiceSnapshot(
                config=self.config,
                system=self._system,
                evidence=self._evidence,
                ingested=self._ingested,
                watermark=self._watermark,
                refreshes=self._refreshes,
                published=dict(self._published),
            )
            write_checkpoint(
                path, SERVICE_CHECKPOINT_KIND, payload, round_index=self._watermark
            )
            sidecar = write_checksum_sidecar(path)
            self._snapshotted = self._ingested
            vitals = {
                "path": path,
                "ingested": self._ingested,
                "watermark": self._watermark,
                "events": len(self._evidence),
                "sidecar": sidecar,
            }
        if self._wal is not None:
            self._schedule_compaction()
        return vitals

    @classmethod
    def restore(cls, path: str) -> ReputationService:
        """Rehydrate a session from a :meth:`snapshot` file.

        The restored service continues exactly where the snapshot paused:
        same counters, same published scores, same incremental-refresh
        state — feeding it the remaining event stream yields byte-identical
        final scores to a never-interrupted session.
        """
        _, payload = read_checkpoint(path, expected_kind=SERVICE_CHECKPOINT_KIND)
        if not isinstance(payload, ServiceSnapshot):
            raise CheckpointError(f"{path}: payload is not a service snapshot")
        service = cls(payload.config)
        service._system = payload.system
        service._evidence = payload.evidence
        service._ingested = payload.ingested
        service._watermark = payload.watermark
        service._refreshes = payload.refreshes
        service._published = ScoreView(
            payload.published, default_score=payload.config.default_score
        )
        service._ranking = service._published.ranking()
        service._snapshotted = payload.ingested
        return service

    @classmethod
    def recover(
        cls,
        *,
        wal_path: str,
        snapshot_path: str | None = None,
        config: ServiceConfig | None = None,
        wal_fsync: bool = True,
    ) -> ReputationService:
        """Boot a durable session: latest snapshot + WAL replay.

        Restores ``snapshot_path`` when given (it must exist and match
        ``config`` if both are supplied), replays every intact WAL batch
        past the snapshot's ingested count, re-registers their idempotency
        keys (so a client retrying across the crash still never
        double-ingests), attaches the WAL for subsequent ingests, and
        compacts away the batches the snapshot already covers.  The result
        is byte-identical to a session that never went down — every acked
        event survives; only unacked (torn-tail) batches are lost, and
        those the resilient client re-sends.
        """
        if snapshot_path is not None:
            service = cls.restore(snapshot_path)
            if config is not None and config != service.config:
                raise ConfigurationError(
                    "recover(): explicit config conflicts with the snapshot's"
                )
        else:
            service = cls(config)
        wal, entries, _ = WriteAheadLog.open(
            wal_path,
            config_sha256=config_digest(service.config.wal_identity()),
            fsync=wal_fsync,
        )
        with service._lock:
            covered = service._ingested
            replayed = 0
            for entry in entries:
                if entry.end <= covered:
                    if entry.key is not None:
                        service._remember(
                            entry.key,
                            _replayed_receipt(entry, service.config.refresh_every),
                        )
                    continue
                if entry.seq != service._ingested:
                    raise IntegrityError(
                        f"{wal_path}: WAL batch seq={entry.seq} does not line up "
                        f"with the recovered session at {service._ingested} "
                        "ingested events — acked evidence missing"
                    )
                service._ingest_batch(list(entry.events), key=entry.key, write_wal=False)
                replayed += 1
            service._wal = wal
            service._snapshotted = covered
        if covered > 0:
            wal.compact(covered)
        return service

    # -- WAL maintenance ---------------------------------------------------

    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached write-ahead log (``None`` for ephemeral sessions)."""
        return self._wal

    def compact_wal(self) -> int:
        """Synchronously drop WAL batches the newest snapshot covers.

        Returns the number of batches dropped; the background maintenance
        thread calls this after every snapshot, and tests call it directly
        for determinism.
        """
        with self._lock:
            wal = self._wal
            upto = self._snapshotted
        if wal is None or upto <= 0:
            return 0
        return wal.compact(upto)

    def _schedule_compaction(self) -> None:
        if self._maintenance is None:
            self._maintenance = threading.Thread(
                target=self._maintenance_loop,
                name="repro-serve-wal-compactor",
                daemon=True,
            )
            self._maintenance.start()
        self._compact_event.set()

    def _maintenance_loop(self) -> None:
        while True:
            self._compact_event.wait()
            if self._closed.is_set():
                return
            self._compact_event.clear()
            self.compact_wal()

    def close(self) -> None:
        """Stop background maintenance and close the WAL handle."""
        self._closed.set()
        self._compact_event.set()
        thread = self._maintenance
        if thread is not None:
            thread.join(timeout=5.0)
        with self._lock:
            if self._wal is not None:
                self._wal.close()

    # -- evidence log ------------------------------------------------------

    @property
    def evidence_count(self) -> int:
        """Events in the append-only evidence log."""
        with self._lock:
            return len(self._evidence)

    def evidence(self, start: int = 0, limit: int | None = None) -> list[Feedback]:
        """A slice of the append-only evidence log (audit/replay access)."""
        with self._lock:
            end = None if limit is None else start + max(limit, 0)
            return list(self._evidence[start:end])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReputationService mechanism={self.config.mechanism} "
            f"ingested={self._ingested} watermark={self._watermark}>"
        )
