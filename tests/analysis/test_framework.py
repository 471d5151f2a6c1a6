"""Framework mechanics: suppressions, registry, collection, result shaping."""

from __future__ import annotations

from pathlib import Path

import pytest

from lint_helpers import fixture_config, lint_source, rules_by_id
from repro.analysis.framework import (
    Finding,
    ModuleContext,
    Rule,
    collect_modules,
    register,
    registered_rules,
    run_lint,
)

CLOCK_CALL = "import time\n\n\ndef stamp() -> float:\n    return time.time()\n"


def _context(source: str) -> ModuleContext:
    return ModuleContext(Path("sample.py"), "sample.py", source)


class TestSuppressions:
    def test_inline_comment_silences_by_id(self) -> None:
        ctx = _context("x = 1  # repro-lint: ignore[R1] reason\n")
        assert ctx.suppressed(1, "R1", "determinism")
        assert not ctx.suppressed(1, "R2", "ordering")

    def test_slug_and_case_insensitive(self) -> None:
        ctx = _context("x = 1  # REPRO-LINT: IGNORE[Determinism] reason\n")
        assert ctx.suppressed(1, "R1", "determinism")

    def test_multiple_rules_in_one_comment(self) -> None:
        ctx = _context("x = 1  # repro-lint: ignore[R1, float-equality]\n")
        assert ctx.suppressed(1, "R1", "determinism")
        assert ctx.suppressed(1, "R5", "float-equality")
        assert not ctx.suppressed(1, "R2", "ordering")

    def test_comment_line_above_applies(self) -> None:
        ctx = _context("# repro-lint: ignore[R1] reason\nx = 1\n")
        assert ctx.suppressed(2, "R1", "determinism")

    def test_comment_block_is_walked(self) -> None:
        source = "# repro-lint: ignore[R1] reason\n# more commentary\nx = 1\n"
        ctx = _context(source)
        assert ctx.suppressed(3, "R1", "determinism")

    def test_code_line_stops_the_walk(self) -> None:
        """A suppression must not leak across intervening statements."""
        source = "y = 2  # repro-lint: ignore[R1] for THIS line only\nx = 1\n"
        ctx = _context(source)
        assert ctx.suppressed(1, "R1", "determinism")
        assert not ctx.suppressed(2, "R1", "determinism")

    def test_plain_comments_do_not_suppress(self) -> None:
        ctx = _context("# TODO: ignore[R1] is not our marker\nx = 1\n")
        assert not ctx.suppressed(2, "R1", "determinism")

    def test_end_to_end_suppression_marks_finding(self, tmp_path: Path) -> None:
        source = CLOCK_CALL.replace(
            "time.time()", "time.time()  # repro-lint: ignore[R1] fixture"
        )
        result = lint_source(tmp_path, source, "R1")
        assert result.active == []
        assert len(result.suppressed) == 1
        assert result.suppressed[0].suppressed is True


class TestRegistry:
    def test_all_rules_registered_in_order(self) -> None:
        rules = registered_rules()
        assert [rule.rule_id for rule in rules] == [
            "R1", "R2", "R3", "R5", "R6", "R8", "R9",
        ]
        assert all(rule.name and rule.description for rule in rules)

    def test_register_rejects_missing_id(self) -> None:
        class Nameless(Rule):
            pass

        with pytest.raises(ValueError, match="no rule_id"):
            register(Nameless)

    def test_register_rejects_duplicate_id(self) -> None:
        registered_rules()  # ensure the built-in rules hold their ids

        class Impostor(Rule):
            rule_id = "R1"
            name = "impostor"

        with pytest.raises(ValueError, match="duplicate"):
            register(Impostor)

    def test_reregistering_same_class_is_idempotent(self) -> None:
        rule_cls = type(rules_by_id("R1")[0])
        assert register(rule_cls) is rule_cls


class TestCollection:
    def test_directory_collection_is_recursive_and_sorted(self, tmp_path: Path) -> None:
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
        modules = collect_modules([tmp_path / "pkg"], tmp_path)
        assert [module.rel for module in modules] == ["pkg/a.py", "pkg/b.py"]

    def test_single_file_collection(self, tmp_path: Path) -> None:
        target = tmp_path / "solo.py"
        target.write_text("x = 1\n")
        modules = collect_modules([target], tmp_path)
        assert [module.rel for module in modules] == ["solo.py"]

    def test_rel_falls_back_outside_root(self, tmp_path: Path) -> None:
        target = tmp_path / "outside.py"
        target.write_text("x = 1\n")
        other_root = tmp_path / "elsewhere"
        other_root.mkdir()
        modules = collect_modules([target], other_root)
        assert modules[0].rel == target.as_posix()

    def test_module_suffix_matching(self, tmp_path: Path) -> None:
        target = tmp_path / "repro" / "core" / "accel.py"
        target.parent.mkdir(parents=True)
        target.write_text("x = 1\n")
        module = collect_modules([target], tmp_path)[0]
        assert module.matches("repro/core/accel.py")
        assert module.matches("core/accel.py")
        assert module.matches("accel.py")
        assert not module.matches("decel.py")
        assert not module.matches("ore/accel.py")


class TestResultShaping:
    def test_findings_sorted_by_location(self, tmp_path: Path) -> None:
        source = (
            "import time\n"
            "import uuid\n"
            "\n"
            "\n"
            "def later() -> str:\n"
            "    return str(uuid.uuid4())\n"
            "\n"
            "\n"
            "def earlier() -> float:\n"
            "    return time.time()\n"
        )
        result = lint_source(tmp_path, source, "R1")
        lines = [finding.line for finding in result.active]
        assert lines == sorted(lines)

    def test_counts_exclude_suppressed(self, tmp_path: Path) -> None:
        source = (
            "import time\n"
            "\n"
            "\n"
            "def stamp() -> float:\n"
            "    return time.time()\n"
            "\n"
            "\n"
            "def quiet() -> float:\n"
            "    return time.time()  # repro-lint: ignore[R1] reason\n"
        )
        result = lint_source(tmp_path, source, "R1")
        assert result.counts() == {"R1": 1}
        assert len(result.suppressed) == 1

    def test_finding_as_dict_round_trip(self) -> None:
        finding = Finding(
            rule="R9", name="demo", path="a.py", line=3, column=7, message="boom"
        )
        payload = finding.as_dict()
        assert payload == {
            "rule": "R9",
            "name": "demo",
            "path": "a.py",
            "line": 3,
            "column": 7,
            "message": "boom",
            "suppressed": False,
        }

    def test_checked_files_counts_modules(self, tmp_path: Path) -> None:
        (tmp_path / "one.py").write_text("x = 1\n")
        (tmp_path / "two.py").write_text("y = 2\n")
        result = run_lint([tmp_path], fixture_config(), root=tmp_path)
        assert result.checked_files == 2
        assert result.active == []
