"""CLI coverage: list/run paths and the sweep subcommand end to end."""

import json

import pytest

from repro.cli import build_sweep_parser, main


class TestLegacyCli:
    def test_list_shows_every_registered_experiment(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        for name in (
            "figure1",
            "figure2-left",
            "figure2-right",
            "claims",
            "reputation",
            "privacy",
            "satisfaction",
            "ablations",
        ):
            assert name in output

    def test_unknown_experiment_exits_with_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-experiment"])
        assert excinfo.value.code != 0
        assert "unknown experiments" in capsys.readouterr().err

    def test_quick_run_prints_report(self, capsys):
        assert main(["figure2-right"]) == 0
        output = capsys.readouterr().out
        assert "==== figure2-right ====" in output
        assert "sharing level" in output

    def test_profile_flag_prints_phase_table(self, capsys):
        assert main(["robustness", "--profile"]) == 0
        output = capsys.readouterr().out
        assert "per-phase wall clock" in output
        for phase in ("setup", "simulate", "refresh", "metrics", "total"):
            assert phase in output


class TestSweepCli:
    def test_help_mentions_sweep(self, capsys):
        parser = build_sweep_parser()
        assert "--grid" in parser.format_help()
        assert "--jobs" in parser.format_help()

    def test_sweep_writes_json_and_csv(self, tmp_path, capsys):
        out = tmp_path / "records.json"
        csv_out = tmp_path / "records.csv"
        code = main(
            [
                "sweep",
                "figure2-left",
                "--grid",
                "threshold=0.4,0.6",
                "--grid",
                "mechanism=eigentrust,beta",
                "--seed",
                "7",
                "--out",
                str(out),
                "--csv",
                str(csv_out),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "4 tasks, 4 ok, 0 failed" in output
        payload = json.loads(out.read_text())
        assert payload["campaign"]["seed"] == 7
        assert len(payload["records"]) == 4
        assert all(record["status"] == "ok" for record in payload["records"])
        assert csv_out.read_text().splitlines()[0].startswith("experiment,")

    def test_sweep_parallel_output_matches_serial(self, tmp_path):
        args = [
            "sweep",
            "figure2-left",
            "--grid",
            "threshold=0.4,0.5,0.6",
            "--seed",
            "3",
        ]
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main([*args, "--jobs", "1", "--out", str(serial)]) == 0
        assert main([*args, "--jobs", "2", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_sweep_stream_writes_ordered_jsonl(self, tmp_path):
        out = tmp_path / "records.json"
        stream = tmp_path / "records.jsonl"
        code = main(
            [
                "sweep",
                "figure2-left",
                "--grid",
                "threshold=0.4,0.5,0.6",
                "--jobs",
                "2",
                "--chunksize",
                "1",
                "--seed",
                "3",
                "--out",
                str(out),
                "--stream",
                str(stream),
            ]
        )
        assert code == 0
        lines = [json.loads(line) for line in stream.read_text().splitlines()]
        assert [entry["task_index"] for entry in lines] == [0, 1, 2]
        payload = json.loads(out.read_text())
        assert lines == payload["records"]

    def test_sweep_unknown_experiment_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "no-such-experiment", "--grid", "threshold=0.5"])
        assert excinfo.value.code != 0

    def test_sweep_bad_grid_option_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "figure2-left", "--grid", "threshold"])
        assert "--grid expects" in capsys.readouterr().err

    def test_sweep_without_parameters_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "figure2-left"])
        assert "at least one" in capsys.readouterr().err

    def test_sweep_with_failed_task_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "records.json"
        code = main(
            [
                "sweep",
                "figure2-left",
                "--grid",
                "threshold=0.5,1.5",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        statuses = [record["status"] for record in payload["records"]]
        assert statuses == ["ok", "error"]
