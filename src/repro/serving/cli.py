"""``repro serve``: boot a live reputation service over HTTP.

The stdlib adapter — zero dependencies beyond the standard library, so the
same command works on a laptop, in tier-1 CI and inside the serve-gate
job.

Subprocess coordination: with ``--port 0`` the OS picks a free port; the
bound address is printed on stdout and, with ``--port-file``, written to a
file the parent process can poll — how the benchmark harness and the CI
serve-gate discover their servers without racing on fixed ports.
"""

from __future__ import annotations

import argparse
import signal
import threading
from types import FrameType

from repro.serving.http import ReputationHTTPServer, create_http_server
from repro.serving.service import ReputationService, ServiceConfig


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``repro serve`` argument surface."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve live reputation scores over HTTP (stdlib adapter).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port; 0 lets the OS pick a free one (default: %(default)s)",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        help="write the bound port to this file once listening (subprocess coordination)",
    )
    parser.add_argument(
        "--mechanism",
        default="beta",
        help="reputation mechanism backing the service (default: %(default)s)",
    )
    parser.add_argument(
        "--refresh-every",
        type=int,
        default=64,
        help="publish refreshed scores every N ingested events (default: %(default)s)",
    )
    parser.add_argument(
        "--default-score",
        type=float,
        default=0.5,
        help="score reported for peers with no evidence (default: %(default)s)",
    )
    parser.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="default checkpoint path for POST /v1/snapshot",
    )
    parser.add_argument(
        "--restore",
        default=None,
        metavar="PATH",
        help="resume the session from this checkpoint instead of starting empty",
    )
    parser.add_argument(
        "--wal",
        default=None,
        metavar="PATH",
        help=(
            "write-ahead log path: every acked ingest batch is fsynced here "
            "before the response; on boot the log is replayed past the "
            "restored snapshot (acked events survive crashes)"
        ),
    )
    parser.add_argument(
        "--no-wal-fsync",
        action="store_true",
        help="skip the per-append fsync (faster, loses the power-failure guarantee)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admitted ingest requests before shedding with 429 (default: %(default)s)",
    )
    parser.add_argument(
        "--client-rate",
        type=float,
        default=None,
        help="per-client sustained requests/second (token bucket); omit to disable",
    )
    parser.add_argument(
        "--client-burst",
        type=int,
        default=8,
        help="per-client token-bucket burst size (default: %(default)s)",
    )
    parser.add_argument(
        "--dedup-window",
        type=int,
        default=1024,
        help="acked idempotency keys remembered for retry dedup (default: %(default)s)",
    )
    parser.add_argument(
        "--retry-after",
        type=float,
        default=0.1,
        help="Retry-After hint (seconds) on 429/503 responses (default: %(default)s)",
    )
    return parser


def build_service(args: argparse.Namespace) -> ReputationService:
    """Construct (restore / recover) the service session an invocation asked for."""
    if args.restore is not None:
        # A restore resumes the *checkpointed* session verbatim; mechanism
        # flags that contradict it would silently fork the score history.
        if args.wal is not None:
            service = ReputationService.recover(
                wal_path=args.wal,
                snapshot_path=args.restore,
                wal_fsync=not args.no_wal_fsync,
            )
        else:
            service = ReputationService.restore(args.restore)
        if args.mechanism != service.config.mechanism and args.mechanism != "beta":
            raise SystemExit(
                f"--mechanism {args.mechanism!r} conflicts with the checkpoint's "
                f"{service.config.mechanism!r}; drop the flag when restoring"
            )
        return service
    config = ServiceConfig(
        mechanism=args.mechanism,
        refresh_every=args.refresh_every,
        default_score=args.default_score,
        max_pending_requests=args.max_pending,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
        dedup_window=args.dedup_window,
        retry_after=args.retry_after,
    )
    if args.wal is not None:
        return ReputationService.recover(
            wal_path=args.wal, config=config, wal_fsync=not args.no_wal_fsync
        )
    return ReputationService(config)


def serve(
    server: ReputationHTTPServer,
    *,
    port_file: str | None = None,
    ready: threading.Event | None = None,
) -> None:
    """Run a bound server until SIGTERM/SIGINT, then shut down cleanly."""

    def _shutdown(signum: int, frame: FrameType | None) -> None:
        # shutdown() must not run on the serve_forever thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _shutdown)

    host, port = server.server_address[0], server.server_address[1]
    print(f"repro-serve listening on http://{host}:{port}", flush=True)
    if port_file is not None:
        with open(port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{port}\n")
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()


def main(argv: list[str]) -> int:
    args = build_serve_parser().parse_args(argv)
    service = build_service(args)
    server = create_http_server(
        service, host=args.host, port=args.port, snapshot_path=args.snapshot
    )
    try:
        serve(server, port_file=args.port_file)
    finally:
        # Flush/stop WAL maintenance; harmless for ephemeral sessions.
        service.close()
    return 0
