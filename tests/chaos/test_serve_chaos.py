"""Serving-layer chaos: SIGKILL mid-window, corrupt WAL lines, read-only flips.

The headline drill — the one the CI chaos-gate also runs end to end — is
SIGKILL-under-live-traffic: a ``repro serve`` subprocess with a WAL dies at
a planned ``wal.append`` while a resilient client streams batches at it;
after restart, *every event the client saw acked* is present and the scores
are byte-identical to an uninterrupted control session.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.faults as faults
from repro.errors import ReadOnlyError, RequestFailedError
from repro.serving.client import ClientRetryPolicy, ResilientClient
from repro.serving.loadgen import build_trace
from repro.serving.service import ReputationService, ServiceConfig
from repro.serving.wal import TornTailWarning, WriteAheadLog, config_digest, verify_wal

REFRESH_EVERY = 8
BATCH = 8


def wal_service(tmp_path, tag):
    config = ServiceConfig(refresh_every=REFRESH_EVERY)
    wal, _, _ = WriteAheadLog.open(
        str(tmp_path / f"{tag}.wal"),
        config_sha256=config_digest(config.wal_identity()),
    )
    return ReputationService(config, wal=wal)


@pytest.fixture(scope="module")
def trace():
    return build_trace("collusion-ring", n_users=12, rounds=6, seed=3)


class TestWalAppendFaults:
    def test_raise_at_append_flips_read_only_and_acks_nothing(self, tmp_path, trace):
        service = wal_service(tmp_path, "ro")
        service.ingest_many(trace[:BATCH])
        plan = faults.FaultPlan(
            rules=(faults.FaultRule(site="wal.append", action="raise"),)
        )
        with faults.active(plan):
            with pytest.raises(ReadOnlyError, match="WAL append failed"):
                service.ingest_many(trace[BATCH : 2 * BATCH])
        # The failed batch was never acked and never folded.
        assert service.state == "read_only"
        assert "WAL append failed" in service.read_only_reason
        assert service.health()["ingested"] == BATCH
        # Reads still answer; a later write is refused until the operator acts.
        assert service.scores() is not None
        with pytest.raises(ReadOnlyError):
            service.ingest_many(trace[:1])
        service.resume_writes()
        service.ingest_many(trace[BATCH : 2 * BATCH])
        assert service.health()["ingested"] == 2 * BATCH
        service.close()

    def test_corrupt_append_surfaces_as_torn_tail(self, tmp_path, trace):
        service = wal_service(tmp_path, "rot")
        service.ingest_many(trace[:BATCH])
        plan = faults.FaultPlan(
            rules=(
                faults.FaultRule(
                    site="wal.append", action="corrupt", match=(("seq", BATCH),)
                ),
            )
        )
        with faults.active(plan):
            service.ingest_many(trace[BATCH : 2 * BATCH])  # acked, line rotted
        service.close()

        wal_path = str(tmp_path / "rot.wal")
        assert verify_wal(wal_path) == (1, 1)
        with pytest.warns(TornTailWarning):
            recovered = ReputationService.recover(
                wal_path=wal_path,
                config=ServiceConfig(refresh_every=REFRESH_EVERY),
            )
        # Storage rot on the tail costs exactly that unverifiable batch.
        assert recovered.health()["ingested"] == BATCH
        recovered.close()

    def test_corrupt_interior_line_blocks_recovery(self, tmp_path, trace):
        from repro.errors import IntegrityError

        service = wal_service(tmp_path, "interior")
        service.ingest_many(trace[:BATCH])
        plan = faults.FaultPlan(
            rules=(
                faults.FaultRule(
                    site="wal.append", action="corrupt", match=(("seq", BATCH),)
                ),
            )
        )
        with faults.active(plan):
            service.ingest_many(trace[BATCH : 2 * BATCH])
        service.ingest_many(trace[2 * BATCH : 3 * BATCH])  # acked data above the rot
        service.close()

        wal_path = str(tmp_path / "interior.wal")
        with pytest.raises(IntegrityError, match="damaged interior"):
            verify_wal(wal_path)
        with pytest.raises(IntegrityError, match="damaged interior"):
            ReputationService.recover(
                wal_path=wal_path,
                config=ServiceConfig(refresh_every=REFRESH_EVERY),
            )


class _Server:
    """A repro serve subprocess with an optional fault plan in its env."""

    def __init__(self, tmp_path: Path, tag: str, *extra: str, env_extra=None) -> None:
        self.port_file = tmp_path / f"port-{tag}"
        env = dict(os.environ)
        env.pop("REPRO_FAULTS", None)
        src = str(Path(__file__).resolve().parents[2] / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
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


class TestSigkillMidWindow:
    def test_every_acked_event_survives_a_kill_at_append(self, tmp_path, trace):
        """The PR-10 headline: SIGKILL mid-append loses nothing acked."""
        wal_path = tmp_path / "serve.wal"
        kill_seq = 4 * BATCH
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

        first = _Server(
            tmp_path, "kill", "--wal", str(wal_path), env_extra={"REPRO_FAULTS": plan}
        )
        client = ResilientClient(
            "127.0.0.1",
            first.port,
            client_id="chaos",
            policy=ClientRetryPolicy(max_attempts=2, timeout=5.0, backoff_base=0.01),
        )
        died_at = None
        try:
            for start in range(0, len(trace), BATCH):
                try:
                    client.ingest(trace[start : start + BATCH])
                except RequestFailedError:
                    died_at = start
                    break
            assert died_at is not None, "the kill rule never fired"
        finally:
            client.close()
            first.kill()

        acked = client.total_acked_events
        assert acked == kill_seq  # everything before the killed batch was acked

        second = _Server(tmp_path, "after", "--wal", str(wal_path))
        try:
            with ResilientClient("127.0.0.1", second.port, client_id="survivor") as survivor:
                health = survivor.health()
                # Zero acked events lost; the killed batch was never acked.
                assert health["ingested"] == acked
                # Finish the stream and compare byte-identically to a session
                # that never crashed.
                for start in range(died_at, len(trace), BATCH):
                    survivor.ingest(trace[start : start + BATCH])
                served = survivor.raw_scores()
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
        assert served == (json.dumps(expected, sort_keys=True) + "\n").encode("utf-8")
