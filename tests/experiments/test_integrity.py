"""Record integrity: checksum sidecars, failure detail, the verify-records CLI."""

import json
import os
import sys
import threading
import types
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import CheckpointError, IntegrityError
from repro.experiments.results import (
    ExperimentRecord,
    checksum_sidecar_path,
    file_sha256,
    verify_file_checksum,
    write_checksum_sidecar,
    write_records_csv,
    write_records_json,
)
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.scenarios.runner import (
    ScenarioCheckpoint,
    ScenarioRunConfig,
    resume_scenario,
    run_scenario,
)
from repro.scenarios.schema.cli import main as scenario_main
from repro.serving.http import create_http_server
from repro.serving.loadgen import request_json
from repro.serving.service import ReputationService
from repro.serving.wal import WriteAheadLog
from repro.simulation.checkpoint import read_checkpoint, write_checkpoint
from repro.simulation.transaction import Feedback, FeedbackBatch


def make_record(status="ok", failure=None):
    return ExperimentRecord(
        experiment="figure1",
        task_index=0,
        params={"n_users": 12},
        seed=3,
        status=status,
        metrics={"score": 0.5} if status == "ok" else {},
        error=None if status == "ok" else "boom",
        failure=failure,
    )


class TestChecksumSidecars:
    def test_sidecar_round_trip(self, tmp_path):
        path = str(tmp_path / "records.json")
        write_records_json(path, [make_record()], checksum=True)
        digest = verify_file_checksum(path)
        assert digest == file_sha256(path)
        # sha256sum-compatible shape: "<digest>  <basename>".
        sidecar_text = Path(checksum_sidecar_path(path)).read_text()
        assert sidecar_text == f"{digest}  records.json\n"

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "records.json"
        write_records_json(str(path), [make_record()], checksum=True)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(IntegrityError, match="SHA-256 mismatch"):
            verify_file_checksum(str(path))

    def test_bit_flip_detected(self, tmp_path):
        path = tmp_path / "records.json"
        write_records_json(str(path), [make_record()], checksum=True)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            verify_file_checksum(str(path))

    def test_missing_sidecar_is_an_error(self, tmp_path):
        path = tmp_path / "records.json"
        write_records_json(str(path), [make_record()], checksum=False)
        with pytest.raises(IntegrityError, match="sidecar"):
            verify_file_checksum(str(path))

    def test_malformed_sidecar_is_an_error(self, tmp_path):
        path = tmp_path / "records.json"
        write_records_json(str(path), [make_record()])
        (tmp_path / "records.json.sha256").write_text("not a digest\n")
        with pytest.raises(IntegrityError, match="malformed"):
            verify_file_checksum(str(path))

    def test_standalone_sidecar_writer(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"\x00\x01\x02")
        sidecar = write_checksum_sidecar(str(path))
        assert sidecar == str(path) + ".sha256"
        verify_file_checksum(str(path))

    @pytest.mark.parametrize("writer", [write_records_json, write_records_csv])
    def test_failed_rewrite_leaves_the_previous_artifact(self, tmp_path, monkeypatch, writer):
        path = str(tmp_path / "records.out")
        writer(path, [make_record()], checksum=True)
        before = Path(path).read_bytes(), Path(checksum_sidecar_path(path)).read_bytes()

        def refuse(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="simulated crash"):
            writer(path, [make_record(status="error")], checksum=True)
        monkeypatch.undo()
        after = Path(path).read_bytes(), Path(checksum_sidecar_path(path)).read_bytes()
        assert after == before
        verify_file_checksum(path)


class TestFailureDetail:
    def test_failure_only_valid_on_error_records(self):
        with pytest.raises(ValueError, match="only valid on error"):
            make_record(status="ok", failure={"exception": "ValueError"})

    def test_failure_round_trips_through_dict(self):
        failure = {
            "exception": "ValueError",
            "message": "boom",
            "traceback": "Traceback ...",
            "retries": 2,
        }
        record = make_record(status="error", failure=failure)
        clone = ExperimentRecord.from_dict(record.to_dict())
        assert clone.failure == failure

    def test_ok_record_bytes_unchanged_by_failure_field(self):
        """Pre-existing record files must stay byte-stable: ``failure`` only
        appears in the payload when set."""
        assert "failure" not in make_record().to_dict()


class TestVerifyRecordsCli:
    def test_intact_artifacts_pass(self, tmp_path, capsys):
        spec = SweepSpec(experiment="figure1", grids={"n_users": [12]}, seed=3)
        journal = str(tmp_path / "sweep.jnl")
        result = run_sweep(spec, journal=journal)
        out = str(tmp_path / "records.json")
        result.write_json(out)  # SweepResult writers checksum by default
        assert main(["verify-records", out, journal]) == 0
        output = capsys.readouterr().out
        assert f"{out}: ok" in output
        assert f"{journal}: ok" in output

    def test_damaged_file_fails_with_exit_one(self, tmp_path, capsys):
        spec = SweepSpec(experiment="figure1", grids={"n_users": [12]}, seed=3)
        out = tmp_path / "records.json"
        run_sweep(spec).write_json(str(out))
        out.write_bytes(out.read_bytes() + b"tail garbage")
        assert main(["verify-records", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_damaged_journal_reports_line_counts(self, tmp_path, capsys):
        spec = SweepSpec(experiment="figure1", grids={"n_users": [12, 16]}, seed=3)
        journal = tmp_path / "sweep.jnl"
        run_sweep(spec, journal=str(journal))
        lines = journal.read_bytes().split(b"\n")
        damaged = bytearray(lines[1])
        damaged[len(damaged) // 2] ^= 0x01
        lines[1] = bytes(damaged)
        journal.write_bytes(b"\n".join(lines))
        assert main(["verify-records", str(journal)]) == 1
        assert "corrupt/truncated journal lines" in capsys.readouterr().out

    def test_unreadable_path_fails(self, tmp_path, capsys):
        assert main(["verify-records", str(tmp_path / "absent.json")]) == 1


class TestSweepCliFaultFlags:
    def test_journal_flag_resumes(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jnl")
        args = [
            "sweep",
            "figure1",
            "--grid",
            "n_users=12,16",
            "--journal",
            journal,
        ]
        assert main(args) == 0
        assert "2 tasks executed in" in capsys.readouterr().out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 tasks executed in" in out
        assert "(0.00 tasks/s, jobs=1); 2 tasks resumed from journal" in out

    def test_failed_tasks_print_structured_summaries(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "figure2-left",
                "--grid",
                "threshold=0.5,1.5",
                "--out",
                str(tmp_path / "records.json"),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED task 1" in captured.err
        assert "retries=0" in captured.err
        assert "1 of 2 tasks failed" in captured.err
        payload = json.loads((tmp_path / "records.json").read_text())
        failed = payload["records"][1]
        assert failed["status"] == "error"
        assert failed["failure"]["exception"]
        assert "Traceback" in failed["failure"]["traceback"]


class TestVerifyRecordsDispatch:
    """``verify-records`` reads the header once and switches on its ``format``."""

    def test_journal_with_a_torn_header_fails_as_a_journal(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jnl"
        journal.write_bytes(
            b'{"campaign_sha256": "ab", "format": "repro-sweep-journal", "version": 1}'
        )
        assert main(["verify-records", str(journal)]) == 1
        assert "not a sweep journal (malformed header)" in capsys.readouterr().out

    def test_wal_torn_one_byte_short_is_a_warning(self, tmp_path, capsys):
        path = tmp_path / "serve.wal"
        wal, _, _ = WriteAheadLog.open(str(path), config_sha256="c")
        for seq in range(2):
            event = Feedback(transaction_id=seq, time=seq, subject="a", rating=1.0, rater="r")
            wal.append(FeedbackBatch.of([event]), seq=seq)
        wal.close()
        path.write_bytes(path.read_bytes()[:-1])
        assert main(["verify-records", str(path)]) == 0
        assert "1 torn/corrupt unacked tail line(s) (1 intact batches" in capsys.readouterr().out


def _service_with_evidence():
    service = ReputationService(refresh_every=2)
    service.ingest_many(
        [
            Feedback(transaction_id=i, time=i, subject="ab"[i % 2], rating=0.9, rater="r")
            for i in range(6)
        ]
    )
    return service


class TestCheckpointsVerifyByTheirHeader:
    """Checkpoints carry their payload digest in their header: no sidecar."""

    def test_service_snapshot_verifies_without_a_sidecar(self, tmp_path, capsys):
        path = str(tmp_path / "svc.ckpt")
        vitals = _service_with_evidence().snapshot(path)
        assert "sidecar" not in vitals
        assert not os.path.exists(checksum_sidecar_path(path))
        assert main(["verify-records", path]) == 0
        assert f"{path}: ok" in capsys.readouterr().out

    def test_scenario_checkpoint_verifies_without_a_sidecar(self, tmp_path, capsys):
        path = str(tmp_path / "scenario.ckpt")
        config = ScenarioRunConfig(
            scenario="traitor-oscillation", mechanism="beta", n_users=16, rounds=4, seed=3
        )
        run_scenario(config, checkpoint_every=2, checkpoint_path=path)
        assert main(["verify-records", path]) == 0
        assert f"{path}: ok" in capsys.readouterr().out

    def test_checkpoint_whose_payload_class_is_gone_fails_cleanly(
        self, tmp_path, monkeypatch, capsys
    ):
        """A scenario checkpoint from a build whose simulator class is gone:
        reading it names the file, and the intact digest still verifies."""
        module = types.ModuleType("throwaway_payload")
        module.Simulator = type("Simulator", (), {"__module__": module.__name__})
        monkeypatch.setitem(sys.modules, module.__name__, module)
        path = str(tmp_path / "old.ckpt")
        config = ScenarioRunConfig(
            scenario="traitor-oscillation", mechanism="beta", n_users=16, rounds=4, seed=3
        )
        payload = ScenarioCheckpoint(config=config, simulator=module.Simulator())
        write_checkpoint(path, "scenario", payload, round_index=2)
        monkeypatch.delitem(sys.modules, module.__name__)

        for read in (read_checkpoint, resume_scenario):
            with pytest.raises(CheckpointError, match="cannot unpickle") as raised:
                read(path)
            assert path in str(raised.value)
        assert scenario_main(["run", "--resume", path]) == 2
        assert main(["verify-records", path]) == 0
        assert f"{path}: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_damaged_snapshot_fails(self, tmp_path, capsys, damage):
        path = tmp_path / "svc.ckpt"
        _service_with_evidence().snapshot(str(path))
        raw = bytearray(path.read_bytes())
        if damage == "truncate":
            raw = raw[:-7]
        else:
            raw[-1] ^= 0x01  # the last byte is payload, past the header line
        path.write_bytes(bytes(raw))
        assert main(["verify-records", str(path)]) == 1
        output = capsys.readouterr().out
        assert "FAIL" in output
        assert ("truncated" if damage == "truncate" else "SHA-256") in output

    def test_snapshot_route_writes_no_sidecar(self, tmp_path):
        service = _service_with_evidence()
        server = create_http_server(service, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        path = str(tmp_path / "route.ckpt")
        try:
            host, port = server.server_address[:2]
            status, body, _ = request_json(host, port, "POST", "/v1/snapshot", {"path": path})
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert status == 200
        assert "sidecar" not in body
        assert os.path.exists(path)
        assert not os.path.exists(checksum_sidecar_path(path))
