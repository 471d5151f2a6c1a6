"""The shipped template library: discovery, loading, and verification.

Templates live in the repository-level ``templates/`` directory (one file
per workload, YAML or JSON).  :func:`discover_templates` finds them,
:func:`load_template` parses one file, and :func:`verify_template` runs the
golden-record equivalence check: a catalog-reference template whose knobs
are all defaults must produce an experiment record *byte-identical* to the
one the programmatic robustness experiment produces for the same
parameters; any other template must reproduce its own record byte-for-byte
across a full cache flush.  The CI scenario-gate and the repro-lint
template-parity rule are both built on these helpers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.errors import TemplateError
from repro.experiments import robustness
from repro.experiments.results import ExperimentRecord, records_to_json
from repro.scenarios.catalog import clear_campaign_cache
from repro.scenarios.runner import (
    ScenarioRunConfig,
    ScenarioRunResult,
    clear_run_cache,
    run_scenario,
)
from repro.scenarios.schema.compile import CompiledScenario, compile_template
from repro.scenarios.schema.model import ScenarioTemplate, template_from_text
from repro.scenarios.setup import clear_setup_cache

#: Environment override for the template directory (CI and tests use it).
TEMPLATE_DIR_ENV = "REPRO_TEMPLATE_DIR"

#: File suffixes recognised as templates, mapped to parser formats.
TEMPLATE_SUFFIXES = {".yaml": "yaml", ".yml": "yaml", ".json": "json"}

#: The record label both the template path and the programmatic path use —
#: shared so the serialized records can be compared byte-for-byte.
RECORD_EXPERIMENT = "scenario-template"


def builtin_template_dir() -> Path:
    """Locate the shipped ``templates/`` directory.

    ``REPRO_TEMPLATE_DIR`` overrides; otherwise walk up from this file to
    the repository root (the first ancestor holding a ``templates/``
    directory).
    """
    override = os.environ.get(TEMPLATE_DIR_ENV)
    if override:
        path = Path(override)
        if not path.is_dir():
            raise TemplateError("", f"{TEMPLATE_DIR_ENV}={override!r} is not a directory")
        return path
    for ancestor in Path(__file__).resolve().parents:
        candidate = ancestor / "templates"
        if candidate.is_dir():
            return candidate
    raise TemplateError(
        "",
        f"no templates/ directory found above {__file__}; set {TEMPLATE_DIR_ENV}",
    )


def discover_templates(directory: Path | None = None) -> list[Path]:
    """Every template file in the directory, sorted by name."""
    root = directory if directory is not None else builtin_template_dir()
    return sorted(
        (path for path in root.iterdir() if path.suffix in TEMPLATE_SUFFIXES),
        key=lambda path: path.name,
    )


def load_template(path: Path | str) -> ScenarioTemplate:
    """Parse one template file (format chosen by suffix)."""
    file_path = Path(path)
    try:
        format = TEMPLATE_SUFFIXES[file_path.suffix]
    except KeyError:
        raise TemplateError(
            "",
            f"{file_path.name}: unknown template suffix {file_path.suffix!r}; "
            f"expected one of {sorted(TEMPLATE_SUFFIXES)}",
        ) from None
    try:
        text = file_path.read_text(encoding="utf-8")
    except OSError as error:
        raise TemplateError("", f"cannot read template {file_path}: {error}") from error
    try:
        return template_from_text(text, format=format)
    except TemplateError as error:
        raise TemplateError(error.path, f"[{file_path.name}] {error.args[0]}") from error


def find_template(name: str, directory: Path | None = None) -> ScenarioTemplate:
    """Load the shipped template whose ``name`` field matches (not the file
    name — one template per file, but the document name is the identity)."""
    for path in discover_templates(directory):
        template = load_template(path)
        if template.name == name:
            return template
    root = directory if directory is not None else builtin_template_dir()
    raise TemplateError("", f"no template named {name!r} under {root}")


def _clear_caches() -> None:
    clear_run_cache()
    clear_setup_cache()
    clear_campaign_cache()


def _record(config: ScenarioRunConfig, metrics: dict[str, object]) -> ExperimentRecord:
    """One comparable record: the params a golden comparison keys on."""
    return ExperimentRecord(
        experiment=RECORD_EXPERIMENT,
        task_index=0,
        params={
            "scenario": config.scenario,
            "mechanism": config.mechanism,
            "n_users": config.n_users,
            "rounds": config.rounds,
            "malicious_fraction": config.malicious_fraction,
            "preset": config.preset,
            "interactions_per_peer": config.interactions_per_peer,
            "sharing_level": config.sharing_level,
            "detect_threshold": config.detect_threshold,
            "recovery_fraction": config.recovery_fraction,
        },
        seed=config.seed,
        status="ok",
        metrics=metrics,
    )


def scenario_record_json(result: ScenarioRunResult) -> str:
    """Serialize one scenario run as its canonical experiment record.

    Shared by the direct, checkpointed and resumed execution paths — the
    byte-identity contract for checkpoint/resume is checked on exactly this
    serialization.
    """
    outcome = robustness.ScenarioOutcome(
        scenario=result.config.scenario,
        mechanism=result.config.mechanism,
        window=result.campaign.window,
        robustness=result.robustness,
    )
    metrics = robustness.summarize(robustness.RobustnessResult(outcomes=[outcome]))
    return records_to_json([_record(result.config, metrics)])


def template_record_json(
    compiled: CompiledScenario,
    *,
    checkpoint_every: int | None = None,
    checkpoint_path: str | None = None,
) -> str:
    """Run a compiled template and serialize its record deterministically.

    ``checkpoint_every``/``checkpoint_path`` pass through to
    :func:`~repro.scenarios.runner.run_scenario` for crash-resumable runs.
    """
    result = run_scenario(
        compiled.config,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
    )
    return scenario_record_json(result)


def _programmatic_record_json(config: ScenarioRunConfig) -> str:
    """The same record produced by the pre-existing Python path: the
    robustness experiment's ``run()``/``summarize()`` chain."""
    result = robustness.run(
        scenario=config.scenario,
        mechanism=config.mechanism,
        n_users=config.n_users,
        rounds=config.rounds,
        seed=config.seed,
        malicious_fraction=config.malicious_fraction,
        preset=config.preset,
        detect_threshold=config.detect_threshold,
        recovery_fraction=config.recovery_fraction,
    )
    return records_to_json([_record(config, robustness.summarize(result))])


def _is_catalog_defaults(compiled: CompiledScenario) -> bool:
    """Whether the compiled config is reachable through ``robustness.run``
    (no knob overrides, default interaction shape) — the precondition for
    the catalog-equivalence comparison."""
    config = compiled.config
    return (
        compiled.template.catalog is not None
        and not config.knobs
        # Configured values compared against their documented defaults, not
        # computed floats — exactness is the point here.
        and config.interactions_per_peer == 1.0  # repro-lint: ignore[R5] configured default
        and config.sharing_level == 1.0  # repro-lint: ignore[R5] configured default
    )


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one template's golden-record check."""

    template: str
    tier: str | None
    scenario: str
    mechanism: str
    mode: str  # "catalog-equivalence" or "self-consistency"
    ok: bool
    detail: str

    def to_dict(self) -> dict[str, object]:
        return {
            "template": self.template,
            "tier": self.tier,
            "scenario": self.scenario,
            "mechanism": self.mechanism,
            "mode": self.mode,
            "ok": self.ok,
            "detail": self.detail,
        }


def verify_template(
    template: ScenarioTemplate,
    tier: str | None = None,
    *,
    mechanism: str | None = None,
) -> VerificationResult:
    """Golden-record equivalence check for one template at one tier.

    Catalog-reference templates with default knobs are compared
    byte-for-byte against the programmatic robustness experiment; every
    other template (declarative campaigns, knob overrides) is re-run after
    a full cache flush and must reproduce its own record byte-for-byte.
    """
    compiled = compile_template(template, tier, mechanism=mechanism)
    template_json = template_record_json(compiled)
    if _is_catalog_defaults(compiled):
        mode = "catalog-equivalence"
        reference_json = _programmatic_record_json(compiled.config)
    else:
        mode = "self-consistency"
        _clear_caches()
        reference_json = template_record_json(compiled)
    ok = template_json == reference_json
    detail = (
        "records byte-identical"
        if ok
        else f"record mismatch ({len(template_json)} vs {len(reference_json)} bytes)"
    )
    return VerificationResult(
        template=template.name,
        tier=tier,
        scenario=compiled.config.scenario,
        mechanism=compiled.config.mechanism,
        mode=mode,
        ok=ok,
        detail=detail,
    )
