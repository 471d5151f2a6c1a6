"""``scenario`` CLI subcommands: list, validate, verify and run templates.

Reached as ``repro scenario <command>``.  ``validate`` is the CI
scenario-gate workhorse: it parses every shipped template strictly (which
checks its ``schema_version``), compiles every tier, and (with
``--catalog``) fails when a catalog scenario has no template; ``verify``
runs the golden-record equivalence check; ``run`` executes one template
and writes deterministic record files suitable for ``cmp``-based byte
comparison across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ConfigurationError, ReproError
from repro.experiments.results import records_from_json, write_records_csv, write_records_json
from repro.scenarios.catalog import CATALOG
from repro.scenarios.runner import resume_scenario
from repro.scenarios.schema.compile import compile_template
from repro.scenarios.schema.library import (
    builtin_template_dir,
    discover_templates,
    find_template,
    load_template,
    scenario_record_json,
    template_record_json,
    verify_template,
)
from repro.scenarios.schema.model import SUPPORTED_SCHEMA_VERSIONS, ScenarioTemplate


def _template_dir(value: str | None) -> Path:
    return Path(value) if value is not None else builtin_template_dir()


def _load_all(directory: Path) -> list[tuple[Path, ScenarioTemplate]]:
    return [(path, load_template(path)) for path in discover_templates(directory)]


def _write_report(path: str | None, payload: dict[str, object]) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _cmd_list(args: argparse.Namespace) -> int:
    directory = _template_dir(args.dir)
    for path, template in _load_all(directory):
        kind = "catalog" if template.catalog is not None else "campaign"
        tiers = ",".join(template.tier_names()) or "-"
        print(
            f"{template.name:24s} {kind:8s} tiers={tiers:20s} "
            f"[{path.name}] {template.description}"
        )
    return 0


def _validate_one(path: Path) -> dict[str, object]:
    entry: dict[str, object] = {"file": path.name}
    try:
        template = load_template(path)
        # Every declared tier must compile (campaign materialization,
        # knob names, window arithmetic) without running anything.
        for tier in [None, *template.tier_names()]:
            compile_template(template, tier)
        entry.update(
            name=template.name,
            schema_version=template.schema_version,
            tiers=template.tier_names(),
            ok=True,
        )
    except ReproError as error:
        entry.update(ok=False, error=str(error))
    return entry


def _cmd_validate(args: argparse.Namespace) -> int:
    directory = _template_dir(args.dir)
    paths = [Path(p) for p in args.paths] if args.paths else discover_templates(directory)
    entries = [_validate_one(path) for path in paths]
    failures = [entry for entry in entries if not entry["ok"]]
    parity_errors: list[str] = []
    if args.catalog and not args.paths:
        names = {entry.get("name") for entry in entries if entry["ok"]}
        missing = sorted(set(CATALOG) - names)
        if missing:
            parity_errors.append(f"catalog scenarios without a template: {missing}")
    report = {
        "supported_schema_versions": list(SUPPORTED_SCHEMA_VERSIONS),
        "templates": entries,
        "parity_errors": parity_errors,
        "ok": not failures and not parity_errors,
    }
    _write_report(args.report, report)
    for entry in entries:
        status = "ok" if entry["ok"] else f"FAIL: {entry.get('error')}"
        print(f"{entry['file']}: {status}")
    for message in parity_errors:
        print(f"PARITY FAIL: {message}")
    if failures or parity_errors:
        return 1
    print(f"{len(entries)} templates valid")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    directory = _template_dir(args.dir)
    if args.names:
        templates = [find_template(name, directory) for name in args.names]
    else:
        templates = [template for _, template in _load_all(directory)]
    results = [
        verify_template(template, args.tier, mechanism=args.mechanism)
        for template in templates
    ]
    _write_report(
        args.report,
        {"results": [result.to_dict() for result in results], "ok": all(r.ok for r in results)},
    )
    for result in results:
        status = "ok" if result.ok else "FAIL"
        print(
            f"{result.template:24s} tier={result.tier or '-':8s} "
            f"{result.mode:20s} {status}: {result.detail}"
        )
    if not all(result.ok for result in results):
        return 1
    print(f"{len(results)} templates verified")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.resume:
        # Resume a checkpointed run: all run parameters come from the
        # checkpoint itself, so no template is needed (or allowed to
        # contradict it — it is simply ignored if given).
        result = resume_scenario(
            args.resume,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint,
        )
        record_json = scenario_record_json(result)
    else:
        if not args.template:
            raise ConfigurationError("run needs a template name/path (or --resume)")
        if args.checkpoint_every is not None and not args.checkpoint:
            raise ConfigurationError("--checkpoint-every needs --checkpoint PATH")
        directory = _template_dir(args.dir)
        target = Path(args.template)
        if target.is_file():
            template = load_template(target)
        else:
            template = find_template(args.template, directory)
        compiled = compile_template(template, args.tier, mechanism=args.mechanism)
        record_json = template_record_json(
            compiled,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint,
        )
    # Written as sweeps write theirs: atomically, with a checksum sidecar,
    # so `repro verify-records` accepts both files.
    records = records_from_json(record_json)
    if args.out:
        write_records_json(args.out, records, checksum=True)
        print(f"records written to {args.out}")
    if args.csv:
        write_records_csv(args.csv, records, checksum=True)
        print(f"CSV written to {args.csv}")
    if not args.out and not args.csv:
        print(record_json, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro scenario",
        description="List, validate, verify and run declarative scenario templates.",
    )
    parser.add_argument(
        "--dir",
        metavar="PATH",
        default=None,
        help="template directory (default: the shipped templates/)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the shipped templates")

    validate = commands.add_parser(
        "validate", help="strictly validate templates (the CI scenario-gate check)"
    )
    validate.add_argument(
        "paths", nargs="*", metavar="PATH", help="template files (default: all shipped)"
    )
    validate.add_argument(
        "--catalog",
        action="store_true",
        help="also fail if any catalog scenario lacks a template counterpart",
    )
    validate.add_argument(
        "--report", metavar="PATH", help="write a JSON validation report here"
    )

    verify = commands.add_parser(
        "verify", help="golden-record equivalence check against the programmatic catalog"
    )
    verify.add_argument(
        "names", nargs="*", metavar="NAME", help="template names (default: all shipped)"
    )
    verify.add_argument("--tier", choices=("small", "medium", "large"), default=None)
    verify.add_argument("--mechanism", default=None)
    verify.add_argument("--report", metavar="PATH", help="write a JSON report here")

    run = commands.add_parser("run", help="run one template and write its records")
    run.add_argument(
        "template", metavar="NAME_OR_PATH", nargs="?", default=None,
        help="template name or file (omit with --resume)",
    )
    run.add_argument("--tier", choices=("small", "medium", "large"), default=None)
    run.add_argument("--mechanism", default=None)
    run.add_argument("--out", metavar="PATH", help="write the JSON record file here")
    run.add_argument("--csv", metavar="PATH", help="also write the records as CSV here")
    run.add_argument(
        "--checkpoint-every", type=int, metavar="N", default=None,
        help="snapshot the run state every N rounds (needs --checkpoint)",
    )
    run.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="checkpoint file to write (atomic, newest wins)",
    )
    run.add_argument(
        "--resume", metavar="PATH", default=None,
        help="resume a checkpointed run; finishes it byte-identically",
    )
    return parser


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "validate": _cmd_validate,
        "verify": _cmd_verify,
        "run": _cmd_run,
    }[args.command]
    try:
        return handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
