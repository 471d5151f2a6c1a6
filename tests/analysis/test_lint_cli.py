"""The repro-lint CLI: argument handling, exit codes, report output."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from lint_helpers import FIXTURES
from repro.analysis.cli import main

BAD = str(FIXTURES / "r5_float_bad.py")
GOOD = str(FIXTURES / "r5_float_good.py")


def test_exit_zero_on_clean(capsys: pytest.CaptureFixture[str]) -> None:
    assert main([GOOD, "--select", "R5,R6"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_exit_one_on_findings(capsys: pytest.CaptureFixture[str]) -> None:
    assert main([BAD, "--select", "R5"]) == 1
    out = capsys.readouterr().out
    assert "R5[float-equality]" in out


def test_select_limits_rules(capsys: pytest.CaptureFixture[str]) -> None:
    # R5 violations are invisible when only R1 runs.
    assert main([BAD, "--select", "R1"]) == 0
    capsys.readouterr()


def test_ignore_excludes_rules(capsys: pytest.CaptureFixture[str]) -> None:
    assert main([BAD, "--ignore", "float-equality"]) == 0
    capsys.readouterr()


def test_deprecated_tests_option_warns_and_keeps_the_exit_status(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    assert main([GOOD, "--select", "R5", "--tests", str(tmp_path)]) == 0
    assert capsys.readouterr().err == "repro-lint: --tests is deprecated and ignored\n"
    assert main([BAD, "--select", "R5", "--tests", str(tmp_path)]) == 1
    assert "deprecated" in capsys.readouterr().err


def test_unknown_rule_is_a_usage_error() -> None:
    with pytest.raises(SystemExit, match="unknown rule"):
        main([GOOD, "--select", "R99"])


def test_missing_path_is_a_usage_error(capsys: pytest.CaptureFixture[str]) -> None:
    with pytest.raises(SystemExit):
        main(["no/such/file.py"])
    assert "do not exist" in capsys.readouterr().err


def test_no_paths_without_default_tree(
    tmp_path: Path,
    monkeypatch: pytest.MonkeyPatch,
    capsys: pytest.CaptureFixture[str],
) -> None:
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit):
        main([])
    assert "src/repro does not exist" in capsys.readouterr().err


def test_list_rules(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("R1", "R2", "R3", "R5", "R6", "R8", "R9"):
        assert rule_id in out
    assert "R4" not in out
    assert "R7" not in out


def test_json_output_to_file(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    report_path = tmp_path / "report.json"
    code = main([BAD, "--select", "R5", "--format", "json", "--output", str(report_path)])
    assert code == 1
    document = json.loads(report_path.read_text())
    assert document["clean"] is False
    assert document["counts"] == {"R5": 5}
    # The console still carries an actionable one-line summary.
    out = capsys.readouterr().out
    assert "5 active finding(s)" in out


def test_text_output_to_file(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    report_path = tmp_path / "report.txt"
    assert main([GOOD, "--select", "R5", "--output", str(report_path)]) == 0
    assert "clean" in report_path.read_text()
    assert "clean" in capsys.readouterr().out


def test_show_suppressed_flag(capsys: pytest.CaptureFixture[str]) -> None:
    target = str(FIXTURES / "suppressed_examples.py")
    assert main([target, "--select", "R1", "--show-suppressed"]) == 0
    assert "(suppressed)" in capsys.readouterr().out


def test_module_entry_point_matches_cli() -> None:
    from repro.analysis import __main__  # noqa: F401  (importable entry point)
