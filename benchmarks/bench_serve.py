"""Benchmark the serving layer: replayed traffic against a live server.

Run as a script to produce ``BENCH_serve.json`` (the CI artifact the
serve-gate checks)::

    PYTHONPATH=src python benchmarks/bench_serve.py --out BENCH_serve.json

Four drills against real ``repro serve`` subprocesses (stdlib HTTP adapter,
zero extra dependencies); ``--drill`` selects a subset:

* **throughput** — a scenario-trace replay from concurrent clients:
  ``POST /v1/feedback`` batches interleaved with score/peer queries.
  Reports ingest events/sec, client-observed query p50/p99, and the
  server's own per-operation latency summary (including the refresh path —
  the "refresh lag" a consumer sees is bounded by ``refresh_every`` events
  plus the p95 refresh latency reported here).
* **restart** — half the trace is ingested sequentially, the session
  is snapshotted over HTTP, the server is SIGKILLed mid-flight, a new
  server restores from the snapshot and ingests the rest.  Its final
  ``/v1/scores`` body must be byte-identical to an uninterrupted control
  run; any mismatch fails the gate outright.
* **overload** — resilient clients flood a server whose admission gate is
  deliberately small while a planned ``http.admit`` fault forces
  deterministic sheds.  Reports shed count, queue high-water mark and the
  server-side ingest p99 under saturation; the gate requires sheds > 0
  (backpressure actually engaged), zero read errors (queries keep
  answering), and acked == ingested (nothing acked was lost, nothing
  double-ingested through the retries).
* **crash** — the WAL drill: a server started with ``--wal`` is SIGKILLed
  *mid-append* (a planned ``wal.append`` kill rule) under live resilient
  traffic; a second server recovers from the WAL alone.  Every event the
  client saw acked must be present after recovery and the finished
  stream's ``/v1/scores`` must match an uninterrupted control run
  byte-for-byte.

``--check-baseline PATH`` compares against the committed baseline
(``benchmarks/baselines/BENCH_serve_baseline.json``): a report whose
workload definition (:func:`workload_definition`) differs from the
baseline's is refused outright, throughput may not fall below
``(1 - tolerance)`` of the baseline events/sec, and the absolute floors
catch wholesale losses even with a stale baseline.  The tolerance is
deliberately loose (CI machines differ widely); the byte-identity and
zero-error checks are exact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.api import (
    ClientRetryPolicy,
    ReputationService,
    RequestFailedError,
    ResilientClient,
    ServiceConfig,
    build_trace,
    create_http_server,
    ingest_events,
    replay,
    request_json,
    scores_body,
)

SCHEMA_VERSION = 2

DRILLS = ("throughput", "restart", "overload", "crash")

#: Absolute floors/ceilings per mode (full, quick): minimum sustained
#: ingest events/sec over HTTP and maximum client-observed query p99.
#: Deliberately conservative — a healthy server clears them by an order of
#: magnitude; they exist to catch a wholesale loss of the serving path.
FLOORS = {
    "ingest_events_per_sec": (400.0, 200.0),
    "query_p99_ms_max": (500.0, 500.0),
    #: Server-side ingest p99 while the admission gate is shedding: loose,
    #: it exists to catch the write path collapsing under saturation.
    "overload_ingest_p99_ms_max": (2000.0, 2000.0),
}

#: Service parameters used by every drill (and by the committed baseline).
REFRESH_EVERY = 32

#: Each drill's fixed parameters, all recorded in :func:`workload_definition`.
#: A batch is the events one ingest request carries.
THROUGHPUT_BATCH = 32
#: The throughput clients query the scores after every this many batches.
THROUGHPUT_QUERY_EVERY = 2
RESTART_BATCH = 16
#: The restart drill snapshots and kills its server after this share of
#: the events.
RESTART_SPLIT = 0.5
OVERLOAD_BATCH = 16
#: The overload server's admission gate (``--max-pending``) and the fault
#: plan that forces its first sheds.
OVERLOAD_MAX_PENDING = 4
OVERLOAD_FAULT_PLAN = {
    "seed": 0,
    "rules": [{"site": "http.admit", "action": "degrade", "times": 12}],
}
CRASH_BATCH = 16
#: The crash drill kills its server mid-append of the batch this share of
#: the way through the trace.
CRASH_KILL_POINT = 0.5

#: The in-repo src/ tree, so server subprocesses resolve the same package
#: as the driving process regardless of the caller's cwd or install state.
_SRC_PATH = os.pathsep.join(
    [str(Path(__file__).resolve().parent.parent / "src")]
    + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)


def trace_kwargs(quick: bool) -> dict[str, object]:
    if quick:
        return dict(scenario="collusion-ring", n_users=25, rounds=20, seed=11)
    return dict(scenario="collusion-ring", n_users=40, rounds=60, seed=11)


def workload_definition() -> dict[str, object]:
    """Everything that shapes what the drills measure, for both modes.

    Recorded in every report; the gate refuses to compare a report against
    a baseline whose definition differs.
    """
    return {
        "trace": {mode: trace_kwargs(quick) for mode, quick in (("full", False), ("quick", True))},
        "refresh_every": REFRESH_EVERY,
        "throughput": {"batch_size": THROUGHPUT_BATCH, "query_every": THROUGHPUT_QUERY_EVERY},
        "restart": {"batch_size": RESTART_BATCH, "split": RESTART_SPLIT},
        "overload": {
            "batch_size": OVERLOAD_BATCH,
            "max_pending": OVERLOAD_MAX_PENDING,
            "fault_plan": OVERLOAD_FAULT_PLAN,
        },
        "crash": {"batch_size": CRASH_BATCH, "kill_point": CRASH_KILL_POINT},
    }


class ServerProcess:
    """One ``repro serve`` subprocess with port-file coordination."""

    def __init__(
        self,
        workdir: Path,
        name: str,
        extra_args: list[str],
        *,
        env_extra: dict[str, str] | None = None,
    ) -> None:
        self.port_file = workdir / f"{name}.port"
        self.log_path = workdir / f"{name}.log"
        self.log_handle = open(self.log_path, "w", encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": _SRC_PATH}
        # Never inherit an ambient fault plan: each drill injects its own.
        env.pop("REPRO_FAULTS", None)
        env.update(env_extra or {})
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--port-file",
                str(self.port_file),
                *extra_args,
            ],
            stdout=self.log_handle,
            stderr=subprocess.STDOUT,
            env=env,
        )
        self.port = self._await_port()

    def _await_port(self, timeout: float = 30.0) -> int:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited early (status {self.process.returncode}); "
                    f"log: {self.log_path.read_text()}"
                )
            if self.port_file.exists():
                text = self.port_file.read_text().strip()
                if text:
                    return int(text)
            time.sleep(0.05)
        raise RuntimeError(f"server did not report a port within {timeout}s")

    def kill(self) -> None:
        """SIGKILL — the crash the restart drill simulates."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        self.log_handle.close()

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        self.process.wait()
        self.log_handle.close()


def throughput_drill(
    workdir: Path, events: list[dict[str, object]], *, clients: int
) -> dict[str, object]:
    server = ServerProcess(
        workdir, "throughput", ["--refresh-every", str(REFRESH_EVERY)]
    )
    try:
        stats = replay(
            "127.0.0.1",
            server.port,
            events,
            clients=clients,
            batch_size=THROUGHPUT_BATCH,
            query_every=THROUGHPUT_QUERY_EVERY,
        )
    finally:
        server.terminate()
    health = stats.health
    latency = health.get("latency", {}) if isinstance(health, dict) else {}
    return {
        "drill": "throughput",
        "events": stats.events,
        "clients": stats.clients,
        "wall_seconds": stats.wall_seconds,
        "ingest_events_per_sec": stats.ingest_events_per_sec,
        "queries": stats.queries,
        "query_p50_ms": stats.query_p50_ms,
        "query_p99_ms": stats.query_p99_ms,
        "errors": stats.errors,
        "final_watermark": health.get("watermark"),
        "final_pending": health.get("pending"),
        "refreshes": health.get("refreshes"),
        "server_latency_ms": latency,
    }


def _control_scores_body(events: list[dict[str, object]]) -> bytes:
    """The ``/v1/scores`` bytes of an uninterrupted control session.

    Served in process (the body depends only on session state, not
    transport), fed through the same HTTP ingest path as the drills.
    """
    service = ReputationService(ServiceConfig(refresh_every=REFRESH_EVERY))
    control_server = create_http_server(service)
    host, port = control_server.server_address[0], control_server.server_address[1]
    thread = threading.Thread(
        target=control_server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        ingest_events(host, port, events, batch_size=16)
        return scores_body(host, port)
    finally:
        control_server.shutdown()


def restart_drill(workdir: Path, events: list[dict[str, object]]) -> dict[str, object]:
    """Kill a server mid-trace, restore from snapshot, compare bytewise."""
    snapshot = workdir / "restart.ckpt"
    split = int(len(events) * RESTART_SPLIT)

    first = ServerProcess(
        workdir,
        "restart-a",
        ["--refresh-every", str(REFRESH_EVERY), "--snapshot", str(snapshot)],
    )
    try:
        ingest_events("127.0.0.1", first.port, events[:split], batch_size=RESTART_BATCH)
        status, payload, _ = request_json(
            "127.0.0.1", first.port, "POST", "/v1/snapshot"
        )
        if status != 200:
            raise RuntimeError(f"snapshot failed: {payload}")
    finally:
        first.kill()

    second = ServerProcess(workdir, "restart-b", ["--restore", str(snapshot)])
    try:
        ingest_events("127.0.0.1", second.port, events[split:], batch_size=RESTART_BATCH)
        interrupted = scores_body("127.0.0.1", second.port)
    finally:
        second.terminate()

    control = _control_scores_body(events)

    return {
        "drill": "restart",
        "events": len(events),
        "snapshot_at": split,
        "restart_identical": interrupted == control,
        "interrupted_sha": hashlib.sha256(interrupted).hexdigest(),
        "control_sha": hashlib.sha256(control).hexdigest(),
    }


def overload_drill(
    workdir: Path, events: list[dict[str, object]], *, clients: int
) -> dict[str, object]:
    """Flood a small admission gate; prove shedding, bounded memory, live reads.

    A planned ``http.admit`` fault forces the first sheds deterministically
    (CI machines differ too much for genuine saturation to be reliable);
    genuine queue-full sheds on top of that are welcome.  Resilient clients
    absorb the 429s through their retry budget, so the invariant at the end
    is exact: every acked event is ingested exactly once.
    """
    server = ServerProcess(
        workdir,
        "overload",
        ["--refresh-every", str(REFRESH_EVERY), "--max-pending", str(OVERLOAD_MAX_PENDING)],
        env_extra={"REPRO_FAULTS": json.dumps(OVERLOAD_FAULT_PLAN)},
    )
    shards = [events[index::clients] for index in range(clients)]
    flood_clients = [
        ResilientClient(
            "127.0.0.1",
            server.port,
            client_id=f"flood-{index}",
            policy=ClientRetryPolicy(
                max_attempts=8, backoff_base=0.01, backoff_cap=0.2, seed=index
            ),
        )
        for index in range(clients)
    ]
    failed_batches = [0] * clients
    reads = {"ok": 0, "errors": 0}
    stop = threading.Event()

    def reader() -> None:
        client = ResilientClient("127.0.0.1", server.port, client_id="reader")
        while not stop.is_set():
            try:
                client.scores()
                reads["ok"] += 1
            except Exception:
                reads["errors"] += 1
            time.sleep(0.005)

    def flood(index: int) -> None:
        shard = shards[index]
        client = flood_clients[index]
        for start in range(0, len(shard), OVERLOAD_BATCH):
            try:
                client.ingest(shard[start : start + OVERLOAD_BATCH])
            except RequestFailedError:
                failed_batches[index] += 1

    try:
        reader_thread = threading.Thread(target=reader, daemon=True)
        reader_thread.start()
        threads = [
            threading.Thread(target=flood, args=(index,)) for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        reader_thread.join(timeout=10)
        status, health, _ = request_json("127.0.0.1", server.port, "GET", "/v1/health")
        if status != 200:
            raise RuntimeError(f"health query failed under overload: {health}")
    finally:
        server.terminate()

    acked = sum(client.total_acked_events for client in flood_clients)
    admission = health.get("admission", {})
    latency = health.get("latency", {})
    return {
        "drill": "overload",
        "events": len(events),
        "clients": clients,
        "shed_requests": admission.get("shed"),
        "queue_high_water": admission.get("high_water"),
        "queue_capacity": admission.get("capacity"),
        "rate_limited": health.get("rate_limited"),
        "ingest_p99_ms": latency.get("ingest", {}).get("p99_ms"),
        "backpressure_responses": sum(
            client.backpressure_responses for client in flood_clients
        ),
        "retries": sum(client.retries for client in flood_clients),
        "failed_batches": sum(failed_batches),
        "reads_during_saturation": reads["ok"],
        "read_errors": reads["errors"],
        "acked_events": acked,
        "ingested_events": health.get("ingested"),
        "acked_all_present": acked == health.get("ingested"),
    }


def crash_drill(workdir: Path, events: list[dict[str, object]]) -> dict[str, object]:
    """SIGKILL mid-WAL-append under live traffic; recover from the WAL alone."""
    wal_path = workdir / "crash.wal"
    batch = CRASH_BATCH
    kill_seq = int(len(events) // batch * CRASH_KILL_POINT) * batch
    plan = json.dumps(
        {
            "seed": 0,
            "rules": [
                {
                    "site": "wal.append",
                    "action": "kill",
                    "match": {"seq": kill_seq},
                    "times": 1,
                }
            ],
        }
    )

    first = ServerProcess(
        workdir,
        "crash-a",
        ["--refresh-every", str(REFRESH_EVERY), "--wal", str(wal_path)],
        env_extra={"REPRO_FAULTS": plan},
    )
    client = ResilientClient(
        "127.0.0.1",
        first.port,
        client_id="crash-phase-1",
        policy=ClientRetryPolicy(max_attempts=2, timeout=10.0, backoff_base=0.01),
    )
    died_at = None
    try:
        for start in range(0, len(events), batch):
            try:
                client.ingest(events[start : start + batch])
            except RequestFailedError:
                died_at = start
                break
    finally:
        first.kill()
    if died_at is None:
        raise RuntimeError("crash drill: the planned wal.append kill never fired")
    acked = client.total_acked_events

    second = ServerProcess(
        workdir,
        "crash-b",
        ["--refresh-every", str(REFRESH_EVERY), "--wal", str(wal_path)],
    )
    try:
        survivor = ResilientClient("127.0.0.1", second.port, client_id="crash-phase-2")
        recovered_ingested = survivor.health()["ingested"]
        for start in range(died_at, len(events), batch):
            survivor.ingest(events[start : start + batch])
        interrupted = survivor.raw_scores()
    finally:
        second.terminate()

    control = _control_scores_body(events)
    return {
        "drill": "crash",
        "events": len(events),
        "kill_seq": kill_seq,
        "acked_before_kill": acked,
        "recovered_ingested": recovered_ingested,
        "acked_survived": recovered_ingested == acked,
        "crash_identical": interrupted == control,
        "interrupted_sha": hashlib.sha256(interrupted).hexdigest(),
        "control_sha": hashlib.sha256(control).hexdigest(),
    }


def run_benchmarks(
    *, quick: bool, clients: int, drills: tuple[str, ...] = DRILLS
) -> dict[str, object]:
    kwargs = trace_kwargs(quick)
    events = build_trace(**kwargs)
    results: list[dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        workdir = Path(tmp)
        if "throughput" in drills:
            results.append(throughput_drill(workdir, events, clients=clients))
        if "restart" in drills:
            results.append(restart_drill(workdir, events))
        if "overload" in drills:
            results.append(overload_drill(workdir, events, clients=clients))
        if "crash" in drills:
            results.append(crash_drill(workdir, events))
    floors = {
        name: (floor[1] if quick else floor[0]) for name, floor in FLOORS.items()
    }
    by_drill = {entry["drill"]: entry for entry in results}
    report = {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/bench_serve.py",
        "definition": workload_definition(),
        "quick": quick,
        "clients": clients,
        "refresh_every": REFRESH_EVERY,
        "trace": {**kwargs, "events": len(events)},
        "floors": floors,
        "drills_selected": list(drills),
        "drills": results,
    }
    if "restart" in by_drill:
        report["restart_identical"] = bool(by_drill["restart"]["restart_identical"])
    if "throughput" in by_drill:
        report["errors"] = int(by_drill["throughput"]["errors"])
    return report


def check_against_baseline(
    report: dict[str, object], baseline: dict[str, object], *, tolerance: float
) -> list[str]:
    """Regression findings (empty when the gate passes)."""
    if report.get("definition") != baseline.get("definition"):
        return [
            "workload definition differs from the baseline's; regenerate "
            "the baseline in the same change"
        ]
    problems: list[str] = []
    drills = {entry["drill"]: entry for entry in report["drills"]}
    selected = tuple(report.get("drills_selected", DRILLS))
    floors = report.get("floors", {})
    throughput = drills.get("throughput")
    restart = drills.get("restart")

    if restart is None:
        if "restart" in selected:
            problems.append("restart: drill missing from the report")
    elif not restart["restart_identical"]:
        problems.append(
            "restart: scores after kill+restore differ bytewise from the "
            "uninterrupted run (snapshot/restore broke determinism)"
        )

    overload = drills.get("overload")
    if overload is None:
        if "overload" in selected:
            problems.append("overload: drill missing from the report")
    else:
        if not int(overload["shed_requests"] or 0):
            problems.append(
                "overload: no requests were shed (backpressure never engaged)"
            )
        if int(overload["read_errors"] or 0):
            problems.append(
                f"overload: {overload['read_errors']} read errors while shedding "
                "(reads must keep answering under overload)"
            )
        if not overload["acked_all_present"]:
            problems.append(
                f"overload: acked {overload['acked_events']} != ingested "
                f"{overload['ingested_events']} (events lost or double-ingested)"
            )
        if int(overload["queue_high_water"] or 0) > int(
            overload["queue_capacity"] or 0
        ):
            problems.append(
                "overload: admission depth exceeded capacity (queue is unbounded)"
            )
        overload_p99 = float(overload["ingest_p99_ms"] or 0.0)
        overload_ceiling = float(
            floors.get("overload_ingest_p99_ms_max", float("inf"))
        )
        if overload_p99 > overload_ceiling:
            problems.append(
                f"overload: ingest p99 {overload_p99:.1f}ms exceeds the "
                f"{overload_ceiling:.0f}ms ceiling under saturation"
            )

    crash = drills.get("crash")
    if crash is None:
        if "crash" in selected:
            problems.append("crash: drill missing from the report")
    else:
        if not crash["acked_survived"]:
            problems.append(
                f"crash: recovered {crash['recovered_ingested']} events but the "
                f"client was acked {crash['acked_before_kill']} (acked data lost)"
            )
        if not crash["crash_identical"]:
            problems.append(
                "crash: scores after SIGKILL+WAL recovery differ bytewise from "
                "the uninterrupted run"
            )

    if throughput is None:
        if "throughput" in selected:
            problems.append("throughput: drill missing from the report")
        return problems
    if int(throughput["errors"]):
        problems.append(f"throughput: {throughput['errors']} failed requests")

    rate = float(throughput["ingest_events_per_sec"])
    rate_floor = float(floors.get("ingest_events_per_sec", 0.0))
    if rate < rate_floor:
        problems.append(
            f"throughput: {rate:.0f} events/s is below the {rate_floor:.0f}/s floor"
        )
    p99 = float(throughput["query_p99_ms"])
    p99_ceiling = float(floors.get("query_p99_ms_max", float("inf")))
    if p99 > p99_ceiling:
        problems.append(
            f"throughput: query p99 {p99:.1f}ms exceeds the {p99_ceiling:.0f}ms ceiling"
        )

    if bool(report.get("quick")) == bool(baseline.get("quick")):
        base_drills = {entry["drill"]: entry for entry in baseline.get("drills", [])}
        base_throughput = base_drills.get("throughput")
        if base_throughput is not None:
            base_rate = float(base_throughput["ingest_events_per_sec"])
            allowed = (1.0 - tolerance) * base_rate
            if rate < allowed:
                problems.append(
                    f"throughput: {rate:.0f} events/s regressed >{tolerance:.0%} "
                    f"against baseline {base_rate:.0f} events/s"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="PATH", help="write the JSON report here")
    parser.add_argument(
        "--quick", action="store_true", help="smaller trace for smoke testing"
    )
    parser.add_argument(
        "--clients", type=int, default=4, help="concurrent replay clients"
    )
    parser.add_argument(
        "--drill",
        choices=[*DRILLS, "all"],
        default="all",
        help="run one drill (or 'all', the default)",
    )
    parser.add_argument(
        "--check-baseline",
        metavar="PATH",
        help="fail when results regressed against this committed baseline",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed fractional throughput regression against the baseline",
    )
    args = parser.parse_args(argv)

    drills = DRILLS if args.drill == "all" else (args.drill,)
    report = run_benchmarks(quick=args.quick, clients=args.clients, drills=drills)

    for entry in report["drills"]:
        if entry["drill"] == "throughput":
            print(
                f"throughput  {entry['events']} events via {entry['clients']} clients   "
                f"{entry['ingest_events_per_sec']:8.0f} ev/s   "
                f"query p50 {entry['query_p50_ms']:6.2f}ms  "
                f"p99 {entry['query_p99_ms']:6.2f}ms   "
                f"errors {entry['errors']}"
            )
        elif entry["drill"] == "restart":
            verdict = "byte-identical" if entry["restart_identical"] else "DIVERGED"
            print(
                f"restart     snapshot@{entry['snapshot_at']}/{entry['events']} "
                f"+ SIGKILL + restore -> {verdict}"
            )
        elif entry["drill"] == "overload":
            verdict = "exactly-once" if entry["acked_all_present"] else "LOST/DUPED"
            print(
                f"overload    shed {entry['shed_requests']}  "
                f"high-water {entry['queue_high_water']}/{entry['queue_capacity']}  "
                f"ingest p99 {entry['ingest_p99_ms']:.2f}ms  "
                f"reads {entry['reads_during_saturation']} "
                f"(errors {entry['read_errors']})  acked {entry['acked_events']} "
                f"-> {verdict}"
            )
        else:
            verdict = (
                "byte-identical"
                if entry["crash_identical"] and entry["acked_survived"]
                else "DIVERGED"
            )
            print(
                f"crash       SIGKILL@wal.append seq={entry['kill_seq']}  "
                f"acked {entry['acked_before_kill']} -> recovered "
                f"{entry['recovered_ingested']} -> {verdict}"
            )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")

    if args.check_baseline:
        with open(args.check_baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
        problems = check_against_baseline(report, baseline, tolerance=args.tolerance)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print("serve gate passed (no regression against baseline)")
    else:
        # Even without a baseline, the exactness checks are non-negotiable.
        drills_run = {entry["drill"]: entry for entry in report["drills"]}
        restart = drills_run.get("restart")
        if restart is not None and not restart["restart_identical"]:
            print("REGRESSION: restart drill diverged", file=sys.stderr)
            return 1
        crash = drills_run.get("crash")
        if crash is not None and not (
            crash["crash_identical"] and crash["acked_survived"]
        ):
            print("REGRESSION: crash drill lost acked data or diverged", file=sys.stderr)
            return 1
        overload = drills_run.get("overload")
        if overload is not None and not overload["acked_all_present"]:
            print("REGRESSION: overload drill lost acked data", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
