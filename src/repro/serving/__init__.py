"""Reputation-as-a-service: a live serving layer over the paper's mechanisms.

The batch pipeline answers "what would the scores have been"; this package
answers "what are the scores *now*".
:class:`~repro.serving.service.ReputationService` is a
transport-agnostic session object — it owns a reputation system plus an
append-only evidence log, folds streamed feedback through the incremental
refresh path, and publishes score views at an explicit watermark.  A thin
adapter in :mod:`repro.serving.http` puts that session behind HTTP (a
stdlib ``ThreadingHTTPServer``), and :mod:`repro.serving.loadgen` replays
scenario traces against a live server for the benchmark and CI gates.

Durability layers two mechanisms.  ``snapshot()`` / ``restore()``
round-trip the whole session through a checksummed checkpoint file, and the
write-ahead log (:mod:`repro.serving.wal`) makes every *acked* ingest batch
durable between snapshots — recovery (``ReputationService.recover``)
replays the WAL past the newest snapshot and a restarted server provably
(CI-enforced) publishes byte-identical scores to one that never stopped,
even after a SIGKILL mid-traffic.  Overload protection (bounded admission,
per-client rate limiting, an ``ok|degraded|read_only`` health state
machine) sheds with 429/503 instead of melting, and
:class:`~repro.serving.client.ResilientClient` gives callers the matching
retry/circuit-breaker/idempotency discipline.
"""
