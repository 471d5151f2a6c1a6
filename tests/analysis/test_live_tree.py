"""The gate the CI job enforces: repro-lint runs clean on the live tree.

A failure here means a reproducibility invariant regressed (or a new,
justified exception needs a suppression comment) — fix the code or add a
``# repro-lint: ignore[...]`` with a justification, never weaken the rule.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis.contracts import default_config
from repro.analysis.framework import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_live_src_tree_is_clean() -> None:
    result = run_lint(
        [REPO_ROOT / "src" / "repro"],
        default_config(),
        root=REPO_ROOT,
    )
    assert result.active == [], "\n".join(
        f"{finding.location()}: {finding.rule} {finding.message}"
        for finding in result.active
    )
    # The linted surface is the whole library, not a subset.
    assert result.checked_files >= 90


def test_default_config_references_real_modules() -> None:
    """Contract targets must exist, or R3 silently stops protecting them."""
    config = default_config()
    for contract in config.cache_contracts:
        assert (REPO_ROOT / "src" / contract.module).is_file(), contract.module
    for module in config.determinism_exempt + config.clock_exempt:
        assert (REPO_ROOT / "src" / module).is_file(), module


def test_r3_checks_the_store_write_path(tmp_path: Path) -> None:
    """``FeedbackStore.extend`` is the store's one write path: without its
    counter bumps, R3 flags it."""
    source = (REPO_ROOT / "src" / "repro" / "reputation" / "gathering.py").read_text()
    bumps = "        self._epoch += evictions\n        self._version += len(batch)\n"
    assert source.count(bumps) == 1
    module = tmp_path / "repro" / "reputation" / "gathering.py"
    module.parent.mkdir(parents=True)
    module.write_text(source.replace(bumps, ""))
    result = run_lint([tmp_path / "repro"], default_config(), root=tmp_path)
    assert [(finding.rule, finding.message.split(" ")[0]) for finding in result.active] == [
        ("R3", "FeedbackStore.extend")
    ]


def test_every_live_suppression_carries_a_justification() -> None:
    """``ignore[RULE]`` alone is not enough: say *why* it is safe."""
    pattern = re.compile(r"repro-lint:\s*ignore\[[^\]]+\]\s*(\S.*)?$")
    offenders: list[str] = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            match = pattern.search(line)
            if match is not None and not match.group(1):
                offenders.append(f"{path}:{number}")
    assert offenders == [], offenders
