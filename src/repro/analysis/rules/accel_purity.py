"""R4 — accel purity: every acceleration flag has a byte-agreement test.

The switchboard contract (:mod:`repro.core.accel`) is that flipping any flag
never changes a record byte.  That contract only holds while each flag is
*exercised*: a new flag merged without a cold-vs-accelerated agreement test
is an unchecked claim.  This rule parses the ``AccelFlags`` dataclass for
its boolean fields and requires, for each, at least one test module that
names the flag **and** drives the switchboard (``accel.override(...)`` or
the ``REPRO_ACCEL`` environment knob).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.contracts import LintConfig
from repro.analysis.framework import Finding, ProjectContext, Rule, register

_DRIVER_MARKERS = ("override(", "REPRO_ACCEL")


@register
class AccelPurityRule(Rule):
    rule_id = "R4"
    name = "accel-purity"
    description = (
        "Every AccelFlags field must be exercised by a test that drives the "
        "switchboard and asserts cold/accelerated agreement."
    )

    def check_project(
        self, project: ProjectContext, config: LintConfig
    ) -> Iterable[Finding]:
        if not config.accel_module:
            return []
        accel = project.find_module(config.accel_module)
        if accel is None:
            # The switchboard is outside the linted paths (e.g. linting a
            # single unrelated file); nothing to cross-reference.
            return []
        flags = self._flag_fields(accel.tree, config.accel_class)
        if not flags:
            return [
                Finding(
                    rule=self.rule_id,
                    name=self.name,
                    path=accel.rel,
                    line=1,
                    column=1,
                    message=(
                        f"class {config.accel_class} with boolean flag fields "
                        f"not found in {accel.rel}; the accel-purity contract "
                        "cannot be checked"
                    ),
                )
            ]
        if project.tests_root is None or not project.tests_root.is_dir():
            return [
                Finding(
                    rule=self.rule_id,
                    name=self.name,
                    path=accel.rel,
                    line=1,
                    column=1,
                    message=(
                        "no test tree available to cross-reference accel flags "
                        "(pass --tests); refusing to silently pass"
                    ),
                )
            ]
        covered = set()
        for test_file in sorted(project.tests_root.rglob("*.py")):
            text = test_file.read_text()
            if not any(marker in text for marker in _DRIVER_MARKERS):
                continue
            for flag in flags:
                if flag in text:
                    covered.add(flag)
        findings: list[Finding] = []
        for flag, line in flags.items():
            if flag in set(config.accel_exempt) or flag in covered:
                continue
            findings.append(
                Finding(
                    rule=self.rule_id,
                    name=self.name,
                    path=accel.rel,
                    line=line,
                    column=1,
                    message=(
                        f"accel flag {flag!r} has no byte-agreement test: no "
                        "module under the test tree names it while driving "
                        "override()/REPRO_ACCEL"
                    ),
                )
            )
        return findings

    @staticmethod
    def _flag_fields(tree: ast.Module, class_name: str) -> dict[str, int]:
        """Boolean dataclass fields of the flags class -> definition line."""
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                fields: dict[str, int] = {}
                for item in node.body:
                    if (
                        isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and isinstance(item.annotation, ast.Name)
                        and item.annotation.id == "bool"
                    ):
                        fields[item.target.id] = item.lineno
                return fields
        return {}
