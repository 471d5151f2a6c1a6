"""Load generation for the serving layer: replay scenario traces as traffic.

The serving claim is benchmarked against *realistic* evidence streams, not
synthetic noise: :func:`build_trace` runs a catalog scenario (the same
deterministic pipeline every experiment uses) and extracts the disclosed
feedback stream — every report an actual simulated peer chose to share —
as a list of JSON-ready ingestion events.  :func:`replay` then drives a
running server with that trace over real HTTP: concurrent client workers
POST event batches to ``/v1/feedback`` and interleave ``GET /v1/scores`` /
``GET /v1/peers/{id}`` queries, measuring client-observed latencies.

``benchmarks/bench_serve.py`` builds its throughput/latency numbers and the
CI serve-gate's smoke drill on these helpers; the kill+restart byte-identity
check replays the same trace through :func:`ingest_events` sequentially
(concurrency is a throughput tool — equivalence drills need a deterministic
ingest order).

All traffic — sequential and concurrent — goes through
:class:`~repro.serving.client.ResilientClient`, so the benchmarks exercise
the real production path: per-request timeouts, seeded-jitter backoff on
429/503 backpressure, circuit breaking on a dead server, and idempotency
keys that make retries exactly-once.  :func:`request_json` remains as the
raw single-shot primitive for probes that must *not* retry.
"""

from __future__ import annotations

import http.client
import json
import threading
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.scenarios.runner import ScenarioRunConfig, run_scenario
from repro.serving import sla
from repro.serving.client import ClientRetryPolicy, ResilientClient
from repro.serving.sla import LatencyTracker


def build_trace(
    scenario: str = "collusion-ring",
    *,
    n_users: int = 30,
    rounds: int = 30,
    seed: int = 0,
) -> list[dict[str, object]]:
    """The disclosed-feedback stream of one scenario run, as ingest events.

    Deterministic in all arguments (the scenario pipeline draws only from
    seed-derived streams), so two calls — in different processes — produce
    the identical event list.  The simulated *mechanism* is irrelevant to
    the disclosed stream's content ordering only insofar as provider
    selection reacts to scores; running with the ``"none"`` baseline keeps
    the trace mechanism-neutral.
    """
    result = run_scenario(
        ScenarioRunConfig(
            scenario=scenario,
            mechanism="none",
            n_users=n_users,
            rounds=rounds,
            seed=seed,
        )
    )
    events: list[dict[str, object]] = []
    for feedback in result.simulation.disclosed_feedbacks:
        events.append(
            {
                "subject": feedback.subject,
                "rating": feedback.rating,
                "rater": feedback.rater,
                "time": feedback.time,
                "transaction_id": feedback.transaction_id,
            }
        )
    return events


def request_json(
    host: str,
    port: int,
    method: str,
    path: str,
    body: object | None = None,
    *,
    timeout: float = 10.0,
) -> tuple[int, dict[str, object], bytes]:
    """One HTTP request; returns ``(status, parsed payload, raw bytes)``."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        status = response.status
    finally:
        connection.close()
    try:
        parsed = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        parsed = {}
    if not isinstance(parsed, dict):
        parsed = {"payload": parsed}
    return status, parsed, raw


def ingest_events(
    host: str,
    port: int,
    events: list[dict[str, object]],
    *,
    batch_size: int = 32,
    timeout: float = 10.0,
    client: ResilientClient | None = None,
) -> int:
    """POST a trace sequentially in order; returns accepted-event count.

    The deterministic-ingest path: one client, one batch in flight, arrival
    order exactly the trace order — what the restart byte-identity drill
    needs on both sides of the comparison.  Pass an explicit ``client`` to
    keep its acked-receipt record across calls (the crash drills check
    every acked event survives recovery); a default resilient client is
    built otherwise, and closed on return.
    """
    if client is None:
        with ResilientClient(
            host,
            port,
            client_id="loadgen",
            policy=ClientRetryPolicy(timeout=timeout),
        ) as owned:
            return ingest_events(host, port, events, batch_size=batch_size, client=owned)
    accepted = 0
    for start in range(0, len(events), max(batch_size, 1)):
        batch = events[start : start + max(batch_size, 1)]
        receipt = client.ingest(batch)
        value = receipt.get("accepted", 0)
        accepted += value if isinstance(value, int) and not isinstance(value, bool) else 0
    return accepted


@dataclass
class ReplayStats:
    """What one concurrent replay measured (client-side view)."""

    events: int
    batches: int
    clients: int
    wall_seconds: float
    ingest_events_per_sec: float
    queries: int
    query_p50_ms: float
    query_p99_ms: float
    errors: int
    #: Client-side retry sleeps taken across all workers.
    retries: int = 0
    #: 429/503 backpressure responses absorbed across all workers.
    backpressure: int = 0
    #: Final ``/v1/health`` body (server-side counters and SLA summary).
    health: dict[str, object] = field(default_factory=dict)


def replay(
    host: str,
    port: int,
    events: list[dict[str, object]],
    *,
    clients: int = 4,
    batch_size: int = 32,
    query_every: int = 4,
    timeout: float = 10.0,
) -> ReplayStats:
    """Drive a server with a trace from ``clients`` concurrent workers.

    The trace is split into contiguous shards (one per worker); each worker
    drives a :class:`~repro.serving.client.ResilientClient` (id
    ``worker-{i}``, jitter seed ``i`` — deterministic backoff per worker),
    POSTs its shard in ``batch_size`` event batches and issues one
    ``/v1/scores?limit=10`` plus one ``/v1/peers/{id}`` query every
    ``query_every`` batches, timing each query.  Returns throughput,
    client-observed query percentiles, retry/backpressure totals and the
    server's own final health report.  A batch that still fails after the
    client's full retry budget (including an open circuit) counts as one
    error; 429/503 responses absorbed by retries are *not* errors.
    Concurrent arrival order is nondeterministic by nature — use
    :func:`ingest_events` when equivalence matters.
    """
    if clients < 1:
        raise ValueError("clients must be at least 1")
    shard_size = (len(events) + clients - 1) // max(clients, 1)
    shards = [
        events[index : index + shard_size] for index in range(0, len(events), shard_size)
    ] or [[]]
    query_latency = LatencyTracker(window=65536)
    lock = threading.Lock()
    errors = [0]
    queries = [0]
    batches = [0]
    retries = [0]
    backpressure = [0]

    def worker(index: int, shard: list[dict[str, object]]) -> None:
        with ResilientClient(
            host,
            port,
            client_id=f"worker-{index}",
            policy=ClientRetryPolicy(timeout=timeout, seed=index),
        ) as client:
            sent_batches = 0
            for start in range(0, len(shard), max(batch_size, 1)):
                batch = shard[start : start + max(batch_size, 1)]
                sent_batches += 1
                try:
                    client.ingest(batch)
                except ReproError:
                    with lock:
                        errors[0] += 1
                if query_every and sent_batches % query_every == 0:
                    subject = batch[-1].get("subject", "")
                    for path in ("/v1/scores?limit=10", f"/v1/peers/{subject}"):
                        begin = sla.clock()
                        try:
                            status, _, _ = client.request("GET", path)
                        except ReproError:
                            status = -1
                        elapsed = sla.clock() - begin
                        with lock:
                            queries[0] += 1
                            query_latency.observe(elapsed)
                            # Unknown peers answer 404 by design; anything else
                            # non-2xx is a replay error.
                            if status not in (200, 404):
                                errors[0] += 1
            with lock:
                batches[0] += sent_batches
                retries[0] += client.retries
                backpressure[0] += client.backpressure_responses

    threads = [
        threading.Thread(target=worker, args=(index, shard), daemon=True)
        for index, shard in enumerate(shards)
    ]
    start_time = sla.clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = sla.clock() - start_time

    _, health, _ = request_json(host, port, "GET", "/v1/health", timeout=timeout)
    return ReplayStats(
        events=len(events),
        batches=batches[0],
        clients=len(shards),
        wall_seconds=wall,
        ingest_events_per_sec=len(events) / wall if wall > 0 else 0.0,
        queries=queries[0],
        query_p50_ms=1000.0 * query_latency.percentile(50.0),
        query_p99_ms=1000.0 * query_latency.percentile(99.0),
        errors=errors[0],
        retries=retries[0],
        backpressure=backpressure[0],
        health=health,
    )


def scores_body(host: str, port: int, *, timeout: float = 10.0) -> bytes:
    """The raw ``/v1/scores`` response bytes (the restart drill compares
    these bytewise between an interrupted and an uninterrupted session)."""
    status, _, raw = request_json(host, port, "GET", "/v1/scores", timeout=timeout)
    if status != 200:
        raise RuntimeError(f"scores query failed with HTTP {status}")
    return raw
