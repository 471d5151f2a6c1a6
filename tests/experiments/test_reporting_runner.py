"""Unit tests for reporting helpers, the experiment registry and the CLI."""

import pytest

from repro.cli import build_run_parser, main
from repro.experiments.reporting import format_table, format_value
from repro.experiments.runner import EXPERIMENTS, run_experiment


class TestFormatting:
    def test_format_value(self):
        assert format_value(0.123456) == "0.123"
        assert format_value(0.5, precision=1) == "0.5"
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value("text") == "text"
        assert format_value(7) == "7"

    def test_format_table_alignment_and_title(self):
        table = format_table(["name", "value"], [("a", 1.0), ("longer", 0.25)], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len({len(line) for line in lines[1:]}) <= 2  # header/sep/rows aligned

    def test_format_table_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table


class TestRegistry:
    def test_registry_covers_every_design_experiment_id(self):
        ids = {eid for entry in EXPERIMENTS.values() for eid in entry.experiment_ids}
        expected = {
            "E-F1",
            "E-F2L",
            "E-F2R",
            "E-C1",
            "E-C2",
            "E-C3",
            "E-C4",
            "E-C5",
            "E-R1",
            "E-P1",
            "E-S1",
            "E-A1",
            "E-A2",
        }
        assert expected <= ids

    def test_every_entry_has_quick_kwargs_and_callables(self):
        for entry in EXPERIMENTS.values():
            assert callable(entry.run)
            assert callable(entry.report)
            assert isinstance(entry.quick_kwargs, dict)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("does-not-exist")

    def test_run_experiment_returns_report_text(self):
        text = run_experiment("figure2-right", quick=True)
        assert "sharing level" in text
        assert "E-F2R" in text


class TestCli:
    def test_parser_lists_experiments_in_help(self):
        parser = build_run_parser()
        assert "figure1" in parser.format_help()

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "figure2-right" in output
        assert "E-F2R" in output

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["nonexistent"])

    def test_running_one_quick_experiment(self, capsys):
        assert main(["figure2-left"]) == 0
        output = capsys.readouterr().out
        assert "Area A" in output
