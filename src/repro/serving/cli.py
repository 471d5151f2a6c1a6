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

from repro.errors import ConfigurationError
from repro.serving.http import ReputationHTTPServer, create_http_server
from repro.serving.service import ReputationService, ServiceConfig


#: The ``repro serve`` flags that set a :class:`ServiceConfig` field, by
#: field.  They have no parser default: a boot builds its config from the
#: flags given, so the dataclass's field defaults are the only copy.
CONFIG_FLAGS = {
    "mechanism": "--mechanism",
    "refresh_every": "--refresh-every",
    "default_score": "--default-score",
    "max_pending_requests": "--max-pending",
    "client_rate": "--client-rate",
    "client_burst": "--client-burst",
    "dedup_window": "--dedup-window",
    "retry_after": "--retry-after",
}


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``repro serve`` argument surface."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve live reputation scores over HTTP (stdlib adapter).",
    )
    defaults = ServiceConfig()

    def config_flag(field: str, kind: type, help_text: str) -> None:
        default = getattr(defaults, field)
        shown = "" if default is None else f" (default: {default})"
        parser.add_argument(
            CONFIG_FLAGS[field], dest=field, type=kind, default=None, help=help_text + shown
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
    config_flag("mechanism", str, "reputation mechanism backing the service")
    config_flag("refresh_every", int, "publish refreshed scores every N ingested events")
    config_flag("default_score", float, "score reported for peers with no evidence")
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
        help=(
            "resume the session from this checkpoint instead of starting empty; "
            "the checkpoint's settings apply, and a --mechanism, --refresh-every "
            "or --default-score that differs from them is refused"
        ),
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
    config_flag("max_pending_requests", int, "admitted ingest requests before shedding with 429")
    config_flag(
        "client_rate", float, "per-client sustained requests/second (token bucket); omit to disable"
    )
    config_flag("client_burst", int, "per-client token-bucket burst size")
    config_flag("dedup_window", int, "acked idempotency keys remembered for retry dedup")
    config_flag("retry_after", float, "Retry-After hint (seconds) on 429/503 responses")
    return parser


def _given(args: argparse.Namespace) -> dict[str, object]:
    """The :class:`ServiceConfig` fields the flags given set."""
    flags = vars(args)
    return {field: flags[field] for field in CONFIG_FLAGS if flags[field] is not None}


def config_from_flags(args: argparse.Namespace) -> ServiceConfig:
    """The :class:`ServiceConfig` the flags given build.  Raises
    :class:`~repro.errors.ConfigurationError` for an invalid value, so a bad
    flag is refused before any checkpoint or WAL is opened."""
    return ServiceConfig(**_given(args))  # type: ignore[arg-type]


def build_service(args: argparse.Namespace, config: ServiceConfig) -> ReputationService:
    """Construct (restore / recover) the service session an invocation asked
    for; ``config`` is :func:`config_from_flags` of ``args``."""
    if args.restore is None:
        service = ReputationService(config)
    else:
        # A restore resumes the *checkpointed* session verbatim.  A flag for
        # a score setting (one the WAL pins) that contradicts it would
        # silently fork the score history, so it is refused before the WAL
        # is opened; the overload flags are ignored.
        service = ReputationService.restore(args.restore)
        pinned = service.config.wal_identity()
        conflicts = [
            f"{CONFIG_FLAGS[field]} {value!r} conflicts with the checkpoint's {pinned[field]!r}"
            for field, value in _given(args).items()
            if field in pinned and value != pinned[field]
        ]
        if conflicts:
            raise SystemExit("; ".join(conflicts) + "; drop the flag when restoring")
    if args.wal is not None:
        service.attach_wal(args.wal, fsync=not args.no_wal_fsync)
    return service


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
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_flags(args)
    except ConfigurationError as exc:
        parser.error(str(exc))
    service = build_service(args, config)
    server = create_http_server(
        service, host=args.host, port=args.port, snapshot_path=args.snapshot
    )
    try:
        serve(server, port_file=args.port_file)
    finally:
        # Flush/stop WAL maintenance; harmless for ephemeral sessions.
        service.close()
    return 0
