"""Kill-and-restore byte-identity: the serving layer's core guarantee.

A service snapshotted mid-stream, destroyed, restored from the checkpoint
and fed the remaining events must publish *byte-identical* scores to a
session that was never interrupted.  Proven twice here: in-process against
the session object, and end-to-end through the ``repro serve`` subprocess
(SIGKILL included) exactly like the CI serve-gate's restart drill.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serving.client import ResilientClient
from repro.serving.loadgen import (
    build_trace,
    ingest_events,
    request_json,
    scores_body,
)
from repro.serving.service import ReputationService, ServiceConfig
from repro.serving.wal import WriteAheadLog, config_digest

REFRESH_EVERY = 8


@pytest.fixture(scope="module")
def trace():
    return build_trace("collusion-ring", n_users=12, rounds=6, seed=3)


def _control_scores(trace):
    """The published scores of a never-interrupted session."""
    service = ReputationService(refresh_every=REFRESH_EVERY)
    service.ingest_many(trace)
    return json.dumps(service.scores(), sort_keys=True)


class TestInProcess:
    def test_snapshot_mid_stream_restores_byte_identically(self, trace, tmp_path):
        half = len(trace) // 2
        service = ReputationService(refresh_every=REFRESH_EVERY)
        service.ingest_many(trace[:half])
        path = tmp_path / "mid.ckpt"
        service.snapshot(str(path))
        del service

        restored = ReputationService.restore(str(path))
        restored.ingest_many(trace[half:])
        assert json.dumps(restored.scores(), sort_keys=True) == _control_scores(trace)

    def test_every_split_point_is_safe(self, trace, tmp_path):
        """Byte-identity must not depend on snapshotting at a refresh boundary."""
        control = _control_scores(trace)
        # One split mid-refresh-window, one exactly on a boundary.
        for split in (REFRESH_EVERY + 3, 3 * REFRESH_EVERY):
            service = ReputationService(refresh_every=REFRESH_EVERY)
            service.ingest_many(trace[:split])
            path = tmp_path / f"split{split}.ckpt"
            service.snapshot(str(path))
            restored = ReputationService.restore(str(path))
            restored.ingest_many(trace[split:])
            assert json.dumps(restored.scores(), sort_keys=True) == control


class TestWalRecovery:
    """Recovery = snapshot + WAL replay, byte-identical either way."""

    def _wal_service(self, tmp_path, tag):
        config = ServiceConfig(refresh_every=REFRESH_EVERY)
        wal, _, _ = WriteAheadLog.open(
            str(tmp_path / f"{tag}.wal"),
            config_sha256=config_digest(config.wal_identity()),
        )
        return ReputationService(config, wal=wal)

    def test_wal_only_recovery_is_byte_identical(self, trace, tmp_path):
        service = self._wal_service(tmp_path, "only")
        for start in range(0, len(trace), 16):
            service.ingest_many(trace[start : start + 16])
        service.close()  # crash stand-in: no snapshot was ever taken

        recovered = ReputationService.recover(
            wal_path=str(tmp_path / "only.wal"),
            config=ServiceConfig(refresh_every=REFRESH_EVERY),
        )
        assert json.dumps(recovered.scores(), sort_keys=True) == _control_scores(trace)
        assert recovered.health()["ingested"] == len(trace)
        recovered.close()

    def test_snapshot_plus_wal_tail_is_byte_identical(self, trace, tmp_path):
        half = len(trace) // 2
        service = self._wal_service(tmp_path, "mix")
        service.ingest_many(trace[:half])
        snapshot = tmp_path / "mix.ckpt"
        service.snapshot(str(snapshot))
        # Post-snapshot traffic lives only in the WAL when the crash hits.
        for start in range(half, len(trace), 8):
            service.ingest_many(trace[start : start + 8])
        service.close()

        recovered = ReputationService.recover(
            wal_path=str(tmp_path / "mix.wal"), snapshot_path=str(snapshot)
        )
        assert json.dumps(recovered.scores(), sort_keys=True) == _control_scores(trace)
        recovered.close()

    def test_recovery_restores_idempotency_keys(self, trace, tmp_path):
        service = self._wal_service(tmp_path, "keys")
        receipt = service.ingest_many(trace[:10], idempotency_key="k-0")
        service.close()

        recovered = ReputationService.recover(
            wal_path=str(tmp_path / "keys.wal"),
            config=ServiceConfig(refresh_every=REFRESH_EVERY),
        )
        replayed = recovered.ingest_many(trace[:10], idempotency_key="k-0")
        assert replayed.duplicate is True
        assert replayed.seq == receipt.seq
        assert replayed.accepted == receipt.accepted
        assert recovered.health()["ingested"] == 10
        recovered.close()


class _Server:
    """A repro serve subprocess bound to a free port."""

    def __init__(self, tmp_path: Path, tag: str, *extra: str) -> None:
        self.port_file = tmp_path / f"port-{tag}"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
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
                "--refresh-every",
                str(REFRESH_EVERY),
                *extra,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.port_file.exists() and self.port_file.read_text().strip():
                self.port = int(self.port_file.read_text().strip())
                return
            if self.process.poll() is not None:
                raise RuntimeError("repro serve exited before binding a port")
            time.sleep(0.05)
        self.process.kill()
        raise RuntimeError("repro serve did not report a port within 30s")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=10)


class TestSubprocess:
    def test_sigkill_restore_resume_matches_control(self, trace, tmp_path):
        half = len(trace) // 2
        snapshot = tmp_path / "svc.ckpt"

        first = _Server(tmp_path, "first")
        try:
            ingest_events("127.0.0.1", first.port, trace[:half], batch_size=16)
            status, vitals, _ = request_json(
                "127.0.0.1",
                first.port,
                "POST",
                "/v1/snapshot",
                {"path": str(snapshot)},
            )
            assert status == 200
            assert vitals["ingested"] == half
        finally:
            first.kill()  # hard crash: no graceful shutdown

        second = _Server(tmp_path, "second", "--restore", str(snapshot))
        try:
            status, health, _ = request_json(
                "127.0.0.1", second.port, "GET", "/v1/health"
            )
            assert status == 200
            assert health["ingested"] == half  # counters survived the crash
            ingest_events("127.0.0.1", second.port, trace[half:], batch_size=16)
            served = scores_body("127.0.0.1", second.port)
        finally:
            second.kill()

        control = ReputationService(refresh_every=REFRESH_EVERY)
        control.ingest_many(trace)
        expected = {
            "watermark": control.watermark,
            "pending": control.pending,
            "default_score": control.config.default_score,
            "scores": dict(control.scores()),
            "ranking": control.scores().ranking(),
        }
        expected_body = (
            json.dumps(expected, sort_keys=True) + "\n"
        ).encode("utf-8")
        assert served == expected_body

    def test_sigkill_with_wal_loses_nothing_without_a_snapshot(self, trace, tmp_path):
        half = len(trace) // 2
        wal_path = tmp_path / "serve.wal"

        first = _Server(tmp_path, "wal-first", "--wal", str(wal_path))
        try:
            # Distinct client ids per phase: idempotency keys survive the
            # crash via the WAL, so a fresh client reusing "loadgen-0"
            # would be (correctly) deduplicated instead of ingesting.
            with ResilientClient("127.0.0.1", first.port, client_id="phase-1") as client:
                ingest_events(
                    "127.0.0.1", first.port, trace[:half], batch_size=16, client=client
                )
        finally:
            first.kill()  # SIGKILL: only the WAL carries the acked events

        second = _Server(tmp_path, "wal-second", "--wal", str(wal_path))
        try:
            status, health, _ = request_json(
                "127.0.0.1", second.port, "GET", "/v1/health"
            )
            assert status == 200
            assert health["ingested"] == half  # every acked event survived
            assert health["wal"]["path"] == str(wal_path)
            with ResilientClient("127.0.0.1", second.port, client_id="phase-2") as client:
                ingest_events(
                    "127.0.0.1", second.port, trace[half:], batch_size=16, client=client
                )
            served = scores_body("127.0.0.1", second.port)
        finally:
            second.kill()

        control = ReputationService(refresh_every=REFRESH_EVERY)
        control.ingest_many(trace)
        expected = {
            "watermark": control.watermark,
            "pending": control.pending,
            "default_score": control.config.default_score,
            "scores": dict(control.scores()),
            "ranking": control.scores().ranking(),
        }
        expected_body = (
            json.dumps(expected, sort_keys=True) + "\n"
        ).encode("utf-8")
        assert served == expected_body
