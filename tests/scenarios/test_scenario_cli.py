"""Tests for the ``scenario`` CLI subcommands."""

import json

import pytest

from repro.cli import main as repro_main
from repro.scenarios.schema.cli import main


class TestList:
    def test_lists_shipped_templates(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "collusion-ring" in out
        assert "double-cross" in out
        assert "campaign" in out


class TestValidate:
    def test_shipped_templates_validate(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["validate", "--catalog", "--report", str(report_path)]) == 0
        assert "templates valid" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert report["parity_errors"] == []
        assert all(entry["ok"] for entry in report["templates"])

    def test_broken_template_fails_with_error_path(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "schema_version: 1\nname: bad\nscenario:\n  catalog: collusion-ring\n"
            "run:\n  roundz: 5\n"
        )
        assert main(["--dir", str(tmp_path), "validate"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "run.roundz" in out

    def test_catalog_parity_failure_lists_missing_names(self, capsys, tmp_path):
        only = tmp_path / "baseline.yaml"
        only.write_text(
            "schema_version: 1\nname: baseline\nscenario:\n  catalog: baseline\n"
        )
        assert main(["--dir", str(tmp_path), "validate", "--catalog"]) == 1
        out = capsys.readouterr().out
        assert "PARITY FAIL" in out
        assert "collusion-ring" in out

    def test_explicit_paths_limit_the_check(self, capsys, tmp_path):
        good = tmp_path / "one.yaml"
        good.write_text(
            "schema_version: 1\nname: one\nscenario:\n  catalog: baseline\n"
        )
        assert main(["validate", str(good)]) == 0


class TestVerify:
    def test_verifies_named_template(self, capsys, tmp_path):
        report_path = tmp_path / "verify.json"
        code = main(
            ["verify", "baseline", "--tier", "small", "--report", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert report["results"][0]["mode"] == "catalog-equivalence"

    def test_unknown_template_name_errors(self, capsys):
        assert main(["verify", "no-such-template"]) == 2
        assert "no template named" in capsys.readouterr().err


class TestRun:
    def test_writes_deterministic_records(self, capsys, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = ["run", "double-cross", "--tier", "small"]
        assert main([*base, "--out", str(out_a)]) == 0
        assert main([*base, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        payload = json.loads(out_a.read_text())
        assert payload["records"][0]["params"]["scenario"] == "double-cross"

    def test_csv_output(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = main(["run", "baseline", "--tier", "small", "--csv", str(csv_path)])
        assert code == 0
        header = csv_path.read_text().splitlines()[0]
        assert "param_scenario" in header

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_record_files_pass_verify_records(self, capsys, tmp_path, flag):
        path = str(tmp_path / "records")
        assert main(["run", "baseline", "--tier", "small", flag, path]) == 0
        assert repro_main(["verify-records", path]) == 0
        assert f"{path}: ok" in capsys.readouterr().out

    def test_runs_template_from_path(self, capsys, tmp_path):
        path = tmp_path / "inline.yaml"
        path.write_text(
            "schema_version: 1\nname: inline\nscenario:\n  catalog: baseline\n"
            "run:\n  rounds: 4\n"
        )
        assert main(["run", str(path)]) == 0
        assert '"status": "ok"' in capsys.readouterr().out

    def test_stdout_payload_is_record_json(self, capsys):
        assert main(["run", "baseline", "--tier", "small"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1


class TestRunCheckpointResume:
    def test_checkpointed_and_resumed_runs_match_direct(self, capsys, tmp_path):
        base = ["run", "traitor-oscillation", "--tier", "small", "--mechanism", "beta"]
        direct = tmp_path / "direct.json"
        assert main([*base, "--out", str(direct)]) == 0

        checkpoint = tmp_path / "run.ckpt"
        checkpointed = tmp_path / "checkpointed.json"
        assert (
            main(
                [
                    *base,
                    "--checkpoint-every",
                    "5",
                    "--checkpoint",
                    str(checkpoint),
                    "--out",
                    str(checkpointed),
                ]
            )
            == 0
        )
        assert checkpointed.read_bytes() == direct.read_bytes()

        # The final checkpoint sits at the last round; a resume finishes the
        # (already complete) run and must emit the very same bytes.
        resumed = tmp_path / "resumed.json"
        assert main(["run", "--resume", str(checkpoint), "--out", str(resumed)]) == 0
        assert resumed.read_bytes() == direct.read_bytes()

    def test_checkpoint_every_requires_checkpoint_path(self, capsys):
        assert main(["run", "baseline", "--tier", "small", "--checkpoint-every", "5"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_run_without_template_or_resume_errors(self, capsys):
        assert main(["run"]) == 2
        assert "template" in capsys.readouterr().err

    def test_resume_of_foreign_file_errors(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(b"not a checkpoint\n")
        assert main(["run", "--resume", str(bogus)]) == 2
        assert "checkpoint" in capsys.readouterr().err
