"""The ``repro-lint`` command line interface.

Usage::

    repro-lint                      # lint src/repro against the default rules
    repro-lint src/repro --format json --output lint-report.json
    repro-lint --select R1,R5      # only the named rules
    repro-lint --list-rules

Exit status 0 means no active findings; 1 means findings; 2 means usage
error.  ``python -m repro.analysis`` is the equivalent module entry point.
No rule reads the test tree: ``--tests PATH`` is still accepted, prints a
deprecation notice and changes nothing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from collections.abc import Sequence

from repro.analysis.contracts import default_config
from repro.analysis.framework import Rule, registered_rules, run_lint
from repro.analysis.reporters import render_json, render_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Determinism/purity static analysis for the repro tree.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro under the cwd)",
    )
    parser.add_argument(
        "--tests",
        type=Path,
        default=None,
        help="deprecated and ignored: no rule reads the test tree",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the report to this file instead of stdout",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids/names to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule ids/names to skip",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in the text report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _match_rules(rules: Sequence[Rule], spec: str) -> list[Rule]:
    wanted = {token.strip().lower() for token in spec.split(",") if token.strip()}
    matched = [
        rule
        for rule in rules
        if rule.rule_id.lower() in wanted or rule.name.lower() in wanted
    ]
    known = {rule.rule_id.lower() for rule in rules} | {rule.name.lower() for rule in rules}
    unknown = wanted - known
    if unknown:
        raise SystemExit(f"repro-lint: unknown rule(s): {', '.join(sorted(unknown))}")
    return matched


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    options = parser.parse_args(argv)
    rules = registered_rules()
    if options.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.name:16s} {rule.description}")
        return 0
    if options.select:
        rules = _match_rules(rules, options.select)
    if options.ignore:
        ignored = {rule.rule_id for rule in _match_rules(rules, options.ignore)}
        rules = [rule for rule in rules if rule.rule_id not in ignored]
    paths = list(options.paths)
    if not paths:
        default = Path("src") / "repro"
        if not default.is_dir():
            parser.error("no paths given and ./src/repro does not exist")
        paths = [default]
    missing = [path for path in paths if not path.exists()]
    if missing:
        parser.error(f"path(s) do not exist: {', '.join(str(p) for p in missing)}")
    if options.tests is not None:
        print("repro-lint: --tests is deprecated and ignored", file=sys.stderr)
    result = run_lint(paths, default_config(), rules=rules, root=Path.cwd())
    if options.format == "json":
        report = render_json(result)
    else:
        report = render_text(result, show_suppressed=options.show_suppressed)
    if options.output is not None:
        options.output.write_text(report + "\n")
        # Keep the console actionable even when the report goes to a file.
        summary = report.splitlines()[-1] if options.format == "text" else (
            f"repro-lint: {len(result.active)} active finding(s); "
            f"report written to {options.output}"
        )
        print(summary)
    else:
        print(report)
    return 1 if result.active else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
