"""The ``repro`` command line: dispatch and usage lines."""

import pytest

from repro import cli

SWEEP_ARGS = [
    "sweep",
    "figure2-left",
    "--grid",
    "threshold=0.4,0.6",
    "--seed",
    "5",
]


class TestDispatch:
    def test_no_args_prints_overview(self, capsys):
        assert cli.main([]) == 0
        output = capsys.readouterr().out
        for command in cli.COMMANDS:
            assert command in output

    @pytest.mark.parametrize("spelling", ["help", "--help", "-h"])
    def test_help_spellings_print_overview(self, spelling, capsys):
        assert cli.main([spelling]) == 0
        assert "usage: repro <command>" in capsys.readouterr().out

    def test_run_list(self, capsys):
        assert cli.main(["run", "--list"]) == 0
        output = capsys.readouterr().out
        assert "figure1" in output
        assert "claims" in output

    def test_bare_experiment_name_is_run_input(self, capsys):
        assert cli.main(["figure2-right"]) == 0
        assert "==== figure2-right ====" in capsys.readouterr().out

    def test_unknown_experiment_via_run_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "no-such-experiment"])
        assert excinfo.value.code != 0
        assert "unknown experiments" in capsys.readouterr().err

    def test_verify_records_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "records.json"
        assert cli.main([*SWEEP_ARGS, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["verify-records", str(out)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_scenario_subcommand_routes(self, capsys):
        assert cli.main(["scenario", "list"]) == 0
        assert capsys.readouterr().out.strip()

    def test_serve_help_routes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve", "--help"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert "--port" in output
        assert "--restore" in output

    @pytest.mark.parametrize("command", ["scenario", "serve"])
    def test_subcommand_usage_names_the_unified_spelling(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {command} ")

    def test_scenario_argument_error_names_the_unified_spelling(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["scenario", "no-such-command"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage: repro scenario ")


class TestLegacyShimEquivalence:
    """A bare invocation prints the overview; the removed shim ran everything."""

    def test_new_cli_bare_invocation_does_not_run_everything(self, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(
            "repro.experiments.runner.run_experiment",
            lambda name, quick: ran.append(name) or f"<{name}>",
        )
        assert cli.main([]) == 0
        assert ran == []
