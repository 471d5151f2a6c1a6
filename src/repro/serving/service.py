"""The transport-agnostic reputation service session.

:class:`ReputationService` stands the offline reputation engine up as a
long-lived session: it owns one :class:`~repro.reputation.base.ReputationSystem`,
whose feedback store is the session's evidence log, accepts streaming
feedback ingestion, and serves score/rank queries off the *current
watermark* — the published
:class:`~repro.reputation.base.ScoreView` of the last refresh.  An ingest
call validates its events into one column batch
(:class:`~repro.simulation.transaction.FeedbackBatch`), which the WAL line
is encoded from and the mechanism's store appends (``record_batch``) as soon
as it is logged; the incremental refresh folds only the appended rows.
Scores are re-published once per ``refresh_every`` events instead of per
event, so queries between refreshes are dictionary lookups.

Restart safety layers two mechanisms.  :meth:`snapshot` writes a versioned,
SHA-256-checksummed checkpoint file (kind ``"service"``, which
``verify-records`` checks against the digest in its own header) holding the
full session, and :meth:`ReputationService.restore` rehydrates it.  On top
of that the write-ahead log (:mod:`repro.serving.wal`) makes *acked mean
durable*: when a WAL is attached, every ingest batch is fsynced to the log
before the call returns, and :meth:`ReputationService.recover` = restore the
latest snapshot + replay the WAL past its watermark — byte-identical to a
session that never crashed.  Snapshots double as the WAL's compaction
watermark: a background maintenance thread drops batches the newest
snapshot already covers.

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

import json
import operator
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro import faults
from repro._util import require_unit_interval
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    InjectedFault,
    IntegrityError,
    OverloadError,
    ReadOnlyError,
)
from repro.reputation.base import ReputationSystem, ScoreView
from repro.reputation.registry import REPUTATION_FACTORIES, make_reputation_system
from repro.serving.sla import OperationClock, clock as sla_clock
from repro.serving.wal import WalEntry, WriteAheadLog, config_digest
from repro.simulation.checkpoint import read_checkpoint, write_checkpoint
from repro.simulation.transaction import Feedback, FeedbackBatch

#: Checkpoint ``kind`` tag for service snapshots.
SERVICE_CHECKPOINT_KIND = "service"

#: Operation families the service tracks latencies for.
SERVICE_OPERATIONS = ("ingest", "query", "refresh", "snapshot")

#: Health states the service moves through (see :meth:`ReputationService.health`).
SERVICE_STATES = ("ok", "degraded", "read_only")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a reputation service session is parameterized on."""

    #: Registered mechanism name (``repro.reputation.registry.REPUTATION_FACTORIES``).
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
class _Publication:
    """What one refresh published, swapped in as one reference.

    ``members`` is the encoded ``"ranking": [...], "scores": {...}`` part
    of the full ``/v1/scores`` body.  The first
    :meth:`ReputationService.scores_json` read of this publication fills
    it, and every later read of it reuses it; the next publish starts a
    new publication, so the members never outlive their scores.
    """

    scores: ScoreView
    ranking: list[str]
    members: bytes | None = None


class PublishedScores(ScoreView):
    """The published scores together with the watermark they were read at.

    :meth:`ReputationService.scores` fills every field under one hold of
    the session lock, so a refresh racing the read can never pair one
    watermark's scores with another's counters.  :meth:`ranking` is the
    ranking the service published with these scores, not a fresh sort.
    """

    #: Events folded into these scores.
    watermark: int
    #: Events accepted after the watermark, not yet in these scores.
    pending: int

    def __init__(
        self,
        publication: _Publication,
        *,
        default_score: float,
        watermark: int,
        pending: int,
    ) -> None:
        super().__init__(publication.scores, default_score=default_score)
        self._publication = publication
        self.watermark = watermark
        self.pending = pending

    def ranking(self) -> list[str]:
        return list(self._publication.ranking)


@dataclass
class ServiceSnapshot:
    """Checkpoint payload of a paused service session.

    The mechanism travels with its feedback store, its counters and its
    cached scores, and with nothing derived from the store: its pair ledger
    and per-subject aggregates are refolded from the store by the first
    refresh after a restore, which gives the same bits.  The store is the
    evidence; an older payload's ``evidence`` list is ignored.
    """

    config: ServiceConfig
    system: ReputationSystem
    ingested: int
    watermark: int
    refreshes: int
    published: dict[str, float] = field(default_factory=dict)


#: The fields a client may send in one feedback event.
_PAYLOAD_FIELDS = frozenset({"subject", "rating", "rater", "time", "transaction_id"})


def feedback_batch(
    events: Iterable[Feedback | Mapping[str, object]], *, sequence: int
) -> FeedbackBatch:
    """Validate feedback events into one batch, in order.

    An event is a :class:`Feedback` or a client JSON object.  Required
    fields: ``subject`` (peer id) and ``rating`` (number in ``[0, 1]``;
    -0.0 is taken as 0.0).  Optional: ``rater`` (omit or ``null`` for
    anonymous reports), ``time`` and ``transaction_id`` (both default to
    the event's ingest sequence number, ``sequence`` plus its position,
    which preserves arrival order for forgetting-weighted mechanisms; the
    store's log holds times within ±2**53 and signed 64-bit ids exactly).
    Unknown fields are rejected — a silently dropped typo in a feedback
    field would corrupt evidence without any error surfacing.  The first
    invalid event raises :class:`~repro.errors.ConfigurationError`.
    """
    transaction_ids: list[int] = []
    times: list[int] = []
    subjects: list[str] = []
    ratings: list[float] = []
    raters: list[str | None] = []
    truthful: list[bool] = []
    for position, event in enumerate(events, sequence):
        if isinstance(event, Feedback):
            # Exact types, as a JSON event gives them: a NumPy scalar or an
            # int subclass would otherwise reach the WAL and the store.
            transaction_ids.append(operator.index(event.transaction_id))
            times.append(operator.index(event.time))
            subjects.append(event.subject)
            ratings.append(float(event.rating))
            raters.append(event.rater)
            truthful.append(bool(event.truthful))
            continue
        unknown = sorted(set(event) - _PAYLOAD_FIELDS)
        if unknown:
            raise ConfigurationError(f"unknown feedback fields: {unknown}")
        subject = event.get("subject")
        if not isinstance(subject, str) or not subject:
            raise ConfigurationError("feedback needs a non-empty string 'subject'")
        rating = event.get("rating")
        if isinstance(rating, bool) or not isinstance(rating, (int, float)):
            raise ConfigurationError("feedback needs a numeric 'rating' in [0, 1]")
        rater = event.get("rater")
        if rater is not None and not isinstance(rater, str):
            raise ConfigurationError("'rater' must be a string or null")
        time = event.get("time", position)
        if isinstance(time, bool) or not isinstance(time, int) or abs(time) > 2**53:
            raise ConfigurationError("'time' must be an integer within ±2**53")
        transaction_id = event.get("transaction_id", position)
        if (
            isinstance(transaction_id, bool)
            or not isinstance(transaction_id, int)
            or not -(2**63) <= transaction_id < 2**63
        ):
            raise ConfigurationError("'transaction_id' must be a signed 64-bit integer")
        try:
            rating = float(rating)
        except OverflowError:  # an integer beyond the double range
            raise ConfigurationError("feedback needs a numeric 'rating' in [0, 1]") from None
        if not 0.0 <= rating <= 1.0:
            require_unit_interval(rating, "rating")
        transaction_ids.append(transaction_id)
        times.append(time)
        subjects.append(subject)
        ratings.append(rating or 0.0)  # -0.0 is 0.0
        raters.append(rater)
        truthful.append(True)
    return FeedbackBatch(
        transaction_ids=transaction_ids,
        times=times,
        subjects=subjects,
        ratings=ratings,
        raters=raters,
        truthful=truthful,
    )


def feedback_from_payload(payload: Mapping[str, object], *, sequence: int) -> Feedback:
    """Validate one client JSON object into a :class:`Feedback` (see
    :func:`feedback_batch`)."""
    return feedback_batch((payload,), sequence=sequence).feedback(0)


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
        self._ingested = 0
        self._watermark = 0
        self._refreshes = 0
        self._publication = _Publication(ScoreView(default_score=config.default_score), [])
        self._lock = threading.RLock()
        #: Guards the scores-body counters and the filling of a
        #: publication's ``members`` (see :meth:`scores_json`).
        self._body_lock = threading.Lock()
        self._bodies_encoded = 0
        self._bodies_served = 0
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
            batch = feedback_batch(events, sequence=self._ingested)
            return self._ingest_batch(batch, key=idempotency_key, write_wal=True)

    def _ingest_batch(
        self, batch: FeedbackBatch, *, key: str | None, write_wal: bool
    ) -> IngestReceipt:
        """Log, fold and ack one validated batch (caller holds the lock).

        The mechanism receives the batch cut at every ``refresh_every``
        boundary, and each boundary publishes, so the watermarks are those
        of ingesting the events one by one.
        """
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
        every = self.config.refresh_every
        total = len(batch)
        start = 0
        while start < total:
            stop = min(total, start + every - self._ingested % every)
            self._system.record_batch(
                batch if stop - start == total else batch.take(range(start, stop))
            )
            self._ingested += stop - start
            start = stop
            if self._ingested % every == 0:
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
            published = self._system.refresh()
            self._publication = _Publication(published, published.ranking())
            self._watermark = self._ingested
            self._refreshes += 1

    def refresh(self) -> ScoreView:
        """Force a refresh now (flushes any pending events) and publish."""
        with self._lock:
            self._publish()
            return self._publication.scores

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

    def scores(self) -> PublishedScores:
        """The published scores at the current watermark (no refresh)."""
        with self._lock, self._clock.timed("query"):
            # Publishing replaces the publication rather than mutating it,
            # so the view may share it.
            return PublishedScores(
                self._publication,
                default_score=self.config.default_score,
                watermark=self._watermark,
                pending=self._ingested - self._watermark,
            )

    def scores_json(self) -> bytes:
        """The full ``GET /v1/scores`` document at the current watermark.

        The bytes are ``json.dumps(payload, sort_keys=True)`` of the payload
        ``{"default_score", "pending", "ranking", "scores", "watermark"}``
        read from one :meth:`scores` view, so all of it belongs to one
        watermark.  The ``ranking`` and ``scores`` members are encoded once
        per publish, by the first read that asks, and kept with the
        publication; each read splices ``default_score`` and ``pending`` in
        before them and ``watermark`` after, which is where sorted keys put
        them.  :meth:`health` counts the encodes and the reads.
        """
        view = self.scores()
        publication = view._publication
        with self._body_lock:
            members = publication.members
            if members is None:
                encoded = json.dumps(
                    {"ranking": publication.ranking, "scores": publication.scores},
                    sort_keys=True,
                )
                members = publication.members = encoded[1:-1].encode("utf-8")
                self._bodies_encoded += 1
            self._bodies_served += 1
        default = json.dumps(view.default_score).encode("utf-8")
        return b'{"default_score": %s, "pending": %d, %s, "watermark": %d}' % (
            default,
            view.pending,
            members,
            view.watermark,
        )

    def ranking(self, limit: int | None = None) -> list[str]:
        """Peer ids from most to least reputable at the current watermark."""
        with self._lock, self._clock.timed("query"):
            ranking = self._publication.ranking
            return list(ranking if limit is None else ranking[: max(limit, 0)])

    def peer(self, peer_id: str) -> PeerSummary:
        """One peer's served score and rank at the current watermark."""
        with self._lock, self._clock.timed("query"):
            published = self._publication.scores
            known = peer_id in published
            rank = self._publication.ranking.index(peer_id) + 1 if known else None
            return PeerSummary(
                peer_id=peer_id,
                score=published.score_of(peer_id),
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
            with self._body_lock:
                bodies = {"encoded": self._bodies_encoded, "served": self._bodies_served}
            return {
                "status": self._state_locked(),
                "mechanism": self.config.mechanism,
                "ingested": self._ingested,
                "watermark": self._watermark,
                "pending": self._ingested - self._watermark,
                "refreshes": self._refreshes,
                "known_peers": len(self._publication.scores),
                "refresh_every": self.config.refresh_every,
                "latency": self._clock.summary(),
                "admission": self._gate.summary(),
                "rate_limited": self._limiter.limited_total,
                "read_only_reason": self._read_only_reason,
                "dedup_keys": len(self._dedup),
                "scores_bodies": bodies,
                "wal": wal_summary,
            }

    # -- snapshot / restore / recovery -------------------------------------

    def snapshot(self, path: str) -> dict[str, object]:
        """Persist the full session to a checkpoint file.

        Atomic, versioned and checksummed (see
        :mod:`repro.simulation.checkpoint`): the header records the
        payload's SHA-256, which is what ``verify-records`` audits, so no
        sidecar is written.  Returns the snapshot's vitals for the caller
        (the HTTP adapter echoes them to the client).  With a
        WAL attached, the snapshot also advances the compaction watermark
        and nudges the background maintenance thread to drop the batches
        it covers.
        """
        with self._lock, self._clock.timed("snapshot"):
            payload = ServiceSnapshot(
                config=self.config,
                system=self._system,
                ingested=self._ingested,
                watermark=self._watermark,
                refreshes=self._refreshes,
                published=dict(self._publication.scores),
            )
            write_checkpoint(
                path, SERVICE_CHECKPOINT_KIND, payload, round_index=self._watermark
            )
            self._snapshotted = self._ingested
            vitals = {
                "path": path,
                "ingested": self._ingested,
                "watermark": self._watermark,
                "events": len(self._system.store),
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
        service._ingested = payload.ingested
        service._watermark = payload.watermark
        service._refreshes = payload.refreshes
        published = ScoreView(payload.published, default_score=payload.config.default_score)
        service._publication = _Publication(published, published.ranking())
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
        ``config`` if both are supplied), then :meth:`attach_wal`.  The
        result is byte-identical to a session that never went down — every
        acked event survives; only unacked (torn-tail) batches are lost, and
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
        service.attach_wal(wal_path, fsync=wal_fsync)
        return service

    def attach_wal(self, wal_path: str, *, fsync: bool = True) -> None:
        """Replay the WAL past this session, then log every later ingest to it.

        Opens (or creates) the log for this session's config, replays every
        intact batch past the ingested count, re-registers the idempotency
        keys of the batches already covered (so a client retrying across
        the crash still never double-ingests), attaches the log and
        compacts away the covered batches.  Nothing touches the log file
        before this call, so a caller can vet a restored session first.
        """
        if self._wal is not None:
            raise ConfigurationError("a WAL is already attached to this session")
        wal, entries, _ = WriteAheadLog.open(
            wal_path,
            config_sha256=config_digest(self.config.wal_identity()),
            fsync=fsync,
        )
        with self._lock:
            covered = self._ingested
            for entry in entries:
                if entry.end <= covered:
                    if entry.key is not None:
                        self._remember(
                            entry.key,
                            _replayed_receipt(entry, self.config.refresh_every),
                        )
                    continue
                if entry.seq != self._ingested:
                    raise IntegrityError(
                        f"{wal_path}: WAL batch seq={entry.seq} does not line up "
                        f"with the recovered session at {self._ingested} "
                        "ingested events — acked evidence missing"
                    )
                self._ingest_batch(entry.events, key=entry.key, write_wal=False)
            self._wal = wal
            self._snapshotted = covered
        if covered > 0:
            wal.compact(covered)

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
        """Reports the mechanism holds (``len(evidence())``)."""
        with self._lock:
            return len(self._system.store)

    def evidence(self, start: int = 0, limit: int | None = None) -> list[Feedback]:
        """A slice of the reports the mechanism's store holds, in arrival
        order: every acked one but those a ``max_evidence_per_subject`` cap
        evicted and TrustMe reports refused for a mismatched certificate."""
        with self._lock:
            columns = self._system.store.columns()
            end = None if limit is None else start + max(limit, 0)
            rows = range(len(columns))[start:end]
        # Rows counted under the lock never change: ingest appends, compaction rebinds.
        return [columns.feedback(row) for row in rows]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReputationService mechanism={self.config.mechanism} "
            f"ingested={self._ingested} watermark={self._watermark}>"
        )
