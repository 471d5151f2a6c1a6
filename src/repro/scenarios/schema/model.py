"""The scenario-template document model and its strict validator.

A template is plain data (YAML or JSON) with this shape::

    schema_version: 2
    name: collusion-ring
    description: dishonest ring inflates accomplices
    network:            # preset OR explicit spec fields
      n_users: 40
      topology: barabasi_albert
      malicious_fraction: 0.25
    run:                # simulation knobs
      mechanism: eigentrust
      rounds: 30
      seed: 0
    metrics:            # post-hoc metric knobs
      detect_threshold: 0.1
      recovery_fraction: 0.8
    scenario:           # EITHER a catalog reference ...
      catalog: collusion-ring
      knobs: {ring_fraction: 0.6}
    campaign:           # ... OR a fully declarative campaign
      window: {start: 0.25, end: 0.75}
      groups:
        ring: {population: dishonest, fraction: 0.5}
      events:
        - {round: 0, action: select, group: ring}
        - {round: 0.25, action: switch, group: ring, behavior: collusive}
      churn:
        leave_probability: 0.02
        phases:
          - {start: 0.25, end: 0.75, leave_probability: 0.3}
    tiers:              # small/medium/large size overrides
      small: {n_users: 24, rounds: 12}
      medium: {}
      large: {n_users: 80, rounds: 60}

Round positions (event ``round``, window/phase bounds) may be non-negative
integers (absolute rounds) or floats in ``[0, 1]`` (fractions of the round
budget, resolved at compile time) — that is what lets one template scale
across size tiers.

Validation is strict: unknown fields, wrong types and out-of-range values
raise :class:`~repro.errors.TemplateError` carrying the precise document
path (``tiers.large.rounds``, ``campaign.events[2].behavior`` …).  The
``schema_version`` field gates parsing; :func:`migrate_document` is the hook
that upgrades documents written against older supported versions before the
validator sees them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from repro.errors import TemplateError
from repro.scenarios.campaign import POPULATIONS
from repro.socialnet.generators import TOPOLOGIES

#: Schema versions this parser understands.  Bump CURRENT when the document
#: shape changes; keep old versions listed here (with a migration in
#: :func:`migrate_document`) until templates in the wild have moved on.
SUPPORTED_SCHEMA_VERSIONS: tuple[int, ...] = (1, 2)
CURRENT_SCHEMA_VERSION = 2

#: The size tiers a template may define.
TIER_NAMES: tuple[str, ...] = ("small", "medium", "large")

#: Event actions the campaign section understands.
EVENT_ACTIONS: tuple[str, ...] = ("select", "switch", "set-online", "whitewash")


# -- document model --------------------------------------------------------------


@dataclass(frozen=True)
class NetworkSection:
    """Where the population comes from: a preset or explicit spec fields."""

    preset: str | None = None
    n_users: int = 40
    topology: str = "barabasi_albert"
    malicious_fraction: float = 0.25


@dataclass(frozen=True)
class RunSection:
    """Simulation-level knobs (everything upstream of the metrics layer)."""

    mechanism: str = "eigentrust"
    seed: int = 0
    rounds: int = 30
    interactions_per_peer: float = 1.0
    sharing_level: float = 1.0


@dataclass(frozen=True)
class MetricsSection:
    """Post-hoc robustness-metric knobs."""

    detect_threshold: float = 0.1
    recovery_fraction: float = 0.8


@dataclass(frozen=True)
class CatalogRef:
    """Reference to a named catalog scenario plus knob overrides."""

    name: str
    knobs: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class GroupSpec:
    """Declarative peer-group selection (mirrors ``PeerSelector``)."""

    population: str = "dishonest"
    prefix: str | None = None
    fraction: float | None = None
    count: int | None = None
    minimum: int = 1


@dataclass(frozen=True)
class EventSpec:
    """One scheduled campaign action.

    ``round`` is an absolute round (int) or a fraction of the round budget
    (float in [0, 1]).  ``behavior``/``args`` apply to ``switch`` events,
    ``online``/``pin`` to ``set-online`` events.
    """

    round: int | float
    action: str
    group: str
    behavior: str | None = None
    args: Mapping[str, object] = field(default_factory=dict)
    online: bool = True
    pin: bool = False


@dataclass(frozen=True)
class ChurnPhaseSpec:
    """Round-windowed churn override (bounds absolute or fractional)."""

    start: int | float
    end: int | float
    leave_probability: float = 0.0
    return_probability: float = 0.5


@dataclass(frozen=True)
class ChurnSpec:
    """Base churn probabilities plus optional phases."""

    leave_probability: float = 0.0
    return_probability: float = 0.5
    phases: tuple[ChurnPhaseSpec, ...] = ()


@dataclass(frozen=True)
class CampaignSection:
    """A fully declarative campaign (used when no catalog ref is given)."""

    window: tuple[int | float, int | float]
    groups: Mapping[str, GroupSpec] = field(default_factory=dict)
    events: tuple[EventSpec, ...] = ()
    churn: ChurnSpec | None = None


@dataclass(frozen=True)
class TierSpec:
    """Per-tier overrides of the base document's sizing fields."""

    n_users: int | None = None
    rounds: int | None = None
    interactions_per_peer: float | None = None
    knobs: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioTemplate:
    """One parsed, validated scenario template."""

    schema_version: int
    name: str
    description: str
    network: NetworkSection
    run: RunSection
    metrics: MetricsSection
    catalog: CatalogRef | None
    campaign: CampaignSection | None
    tiers: Mapping[str, TierSpec] = field(default_factory=dict)

    def tier_names(self) -> list[str]:
        """Declared tier names, in canonical small→large order."""
        return [name for name in TIER_NAMES if name in self.tiers]


# -- strict parsing --------------------------------------------------------------


def _fail(path: str, message: str) -> TemplateError:
    return TemplateError(path, message)


def _child(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _require_mapping(value: object, path: str) -> Mapping[str, object]:
    if not isinstance(value, Mapping):
        raise _fail(path, f"expected a mapping, got {type(value).__name__}")
    for key in value:
        if not isinstance(key, str):
            raise _fail(path, f"mapping keys must be strings, got {key!r}")
    return value


def _reject_unknown(data: Mapping[str, object], allowed: Sequence[str], path: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise _fail(
            _child(path, unknown[0]),
            f"unknown field (allowed here: {sorted(allowed)})",
        )


def _get_str(data: Mapping[str, object], key: str, path: str, default: str | None) -> str:
    value = data.get(key, default)
    if value is None:
        raise _fail(_child(path, key), "required field is missing")
    if not isinstance(value, str):
        raise _fail(_child(path, key), f"expected str, got {type(value).__name__} {value!r}")
    return value


def _get_opt_str(data: Mapping[str, object], key: str, path: str) -> str | None:
    value = data.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise _fail(_child(path, key), f"expected str, got {type(value).__name__} {value!r}")
    return value


def _get_int(data: Mapping[str, object], key: str, path: str, default: int | None) -> int:
    value = data.get(key, default)
    if value is None:
        raise _fail(_child(path, key), "required field is missing")
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(_child(path, key), f"expected int, got {type(value).__name__} {value!r}")
    return value


def _get_opt_int(data: Mapping[str, object], key: str, path: str) -> int | None:
    if key not in data or data[key] is None:
        return None
    return _get_int(data, key, path, None)


def _get_float(data: Mapping[str, object], key: str, path: str, default: float | None) -> float:
    value = data.get(key, default)
    if value is None:
        raise _fail(_child(path, key), "required field is missing")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(_child(path, key), f"expected number, got {type(value).__name__} {value!r}")
    return float(value)


def _get_opt_float(data: Mapping[str, object], key: str, path: str) -> float | None:
    if key not in data or data[key] is None:
        return None
    return _get_float(data, key, path, None)


def _get_bool(data: Mapping[str, object], key: str, path: str, default: bool) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise _fail(_child(path, key), f"expected bool, got {type(value).__name__} {value!r}")
    return value


def _get_fraction(data: Mapping[str, object], key: str, path: str, default: float) -> float:
    value = _get_float(data, key, path, default)
    if not 0.0 <= value <= 1.0:
        raise _fail(_child(path, key), f"expected a value in [0, 1], got {value!r}")
    return value


def _get_round(data: Mapping[str, object], key: str, path: str) -> int | float:
    """A round position: int >= 0 (absolute) or float in [0, 1] (fraction)."""
    if key not in data:
        raise _fail(_child(path, key), "required field is missing")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(_child(path, key), f"expected number, got {type(value).__name__} {value!r}")
    if isinstance(value, int):
        if value < 0:
            raise _fail(_child(path, key), f"absolute rounds must be >= 0, got {value}")
        return value
    if not 0.0 <= value <= 1.0:
        raise _fail(
            _child(path, key),
            f"fractional round positions must be in [0, 1], got {value!r}",
        )
    return float(value)


def _get_knobs(data: Mapping[str, object], key: str, path: str) -> dict[str, object]:
    raw = data.get(key, {})
    mapping = _require_mapping(raw, _child(path, key))
    knobs: dict[str, object] = {}
    for name, value in mapping.items():
        if isinstance(value, (dict, list, tuple, set)):
            raise _fail(
                _child(_child(path, key), name),
                f"knob values must be scalars, got {type(value).__name__}",
            )
        knobs[name] = value
    return knobs


def _parse_network(data: Mapping[str, object], path: str) -> NetworkSection:
    _reject_unknown(data, ("preset", "n_users", "topology", "malicious_fraction"), path)
    preset = _get_opt_str(data, "preset", path)
    if preset is not None:
        extras = sorted(set(data) - {"preset"})
        if extras:
            raise _fail(
                _child(path, extras[0]),
                "a preset network takes no explicit spec fields",
            )
        return NetworkSection(preset=preset)
    topology = _get_str(data, "topology", path, "barabasi_albert")
    if topology not in TOPOLOGIES:
        raise _fail(
            _child(path, "topology"),
            f"unknown topology {topology!r}; expected one of {TOPOLOGIES}",
        )
    n_users = _get_int(data, "n_users", path, 40)
    if n_users < 2:
        raise _fail(_child(path, "n_users"), f"n_users must be at least 2, got {n_users}")
    return NetworkSection(
        preset=None,
        n_users=n_users,
        topology=topology,
        malicious_fraction=_get_fraction(data, "malicious_fraction", path, 0.25),
    )


def _parse_run(data: Mapping[str, object], path: str) -> RunSection:
    allowed = (
        "mechanism",
        "seed",
        "rounds",
        "interactions_per_peer",
        "sharing_level",
    )
    _reject_unknown(data, allowed, path)
    rounds = _get_int(data, "rounds", path, 30)
    if rounds < 1:
        raise _fail(_child(path, "rounds"), f"rounds must be at least 1, got {rounds}")
    interactions = _get_float(data, "interactions_per_peer", path, 1.0)
    if interactions < 0:
        raise _fail(
            _child(path, "interactions_per_peer"),
            f"interactions_per_peer must be non-negative, got {interactions}",
        )
    return RunSection(
        mechanism=_get_str(data, "mechanism", path, "eigentrust"),
        seed=_get_int(data, "seed", path, 0),
        rounds=rounds,
        interactions_per_peer=interactions,
        sharing_level=_get_fraction(data, "sharing_level", path, 1.0),
    )


def _parse_metrics(data: Mapping[str, object], path: str) -> MetricsSection:
    _reject_unknown(data, ("detect_threshold", "recovery_fraction"), path)
    return MetricsSection(
        detect_threshold=_get_float(data, "detect_threshold", path, 0.1),
        recovery_fraction=_get_fraction(data, "recovery_fraction", path, 0.8),
    )


def _parse_catalog_ref(data: Mapping[str, object], path: str) -> CatalogRef:
    _reject_unknown(data, ("catalog", "knobs"), path)
    return CatalogRef(
        name=_get_str(data, "catalog", path, None),
        knobs=_get_knobs(data, "knobs", path),
    )


def _parse_group(data: Mapping[str, object], path: str) -> GroupSpec:
    _reject_unknown(data, ("population", "prefix", "fraction", "count", "minimum"), path)
    population = _get_str(data, "population", path, "dishonest")
    if population not in POPULATIONS:
        raise _fail(
            _child(path, "population"),
            f"unknown population {population!r}; expected one of {POPULATIONS}",
        )
    fraction = _get_opt_float(data, "fraction", path)
    if fraction is not None and not 0.0 <= fraction <= 1.0:
        raise _fail(_child(path, "fraction"), f"expected a value in [0, 1], got {fraction!r}")
    count = _get_opt_int(data, "count", path)
    if count is not None and count < 0:
        raise _fail(_child(path, "count"), f"count must be non-negative, got {count}")
    if fraction is not None and count is not None:
        raise _fail(path, "give fraction or count, not both")
    minimum = _get_int(data, "minimum", path, 1)
    if minimum < 0:
        raise _fail(_child(path, "minimum"), f"minimum must be non-negative, got {minimum}")
    return GroupSpec(
        population=population,
        prefix=_get_opt_str(data, "prefix", path),
        fraction=fraction,
        count=count,
        minimum=minimum,
    )


def _parse_event(data: Mapping[str, object], path: str) -> EventSpec:
    _reject_unknown(
        data, ("round", "action", "group", "behavior", "args", "online", "pin"), path
    )
    action = _get_str(data, "action", path, None)
    if action not in EVENT_ACTIONS:
        raise _fail(
            _child(path, "action"),
            f"unknown action {action!r}; expected one of {EVENT_ACTIONS}",
        )
    behavior = _get_opt_str(data, "behavior", path)
    if action == "switch" and behavior is None:
        raise _fail(_child(path, "behavior"), "switch events need a behavior name")
    if action != "switch" and (behavior is not None or "args" in data):
        raise _fail(path, f"behavior/args only apply to switch events, not {action!r}")
    if action != "set-online" and ("online" in data or "pin" in data):
        raise _fail(path, f"online/pin only apply to set-online events, not {action!r}")
    return EventSpec(
        round=_get_round(data, "round", path),
        action=action,
        group=_get_str(data, "group", path, None),
        behavior=behavior,
        args=_get_knobs(data, "args", path),
        online=_get_bool(data, "online", path, True),
        pin=_get_bool(data, "pin", path, False),
    )


def _parse_churn_phase(data: Mapping[str, object], path: str) -> ChurnPhaseSpec:
    _reject_unknown(data, ("start", "end", "leave_probability", "return_probability"), path)
    return ChurnPhaseSpec(
        start=_get_round(data, "start", path),
        end=_get_round(data, "end", path),
        leave_probability=_get_fraction(data, "leave_probability", path, 0.0),
        return_probability=_get_fraction(data, "return_probability", path, 0.5),
    )


def _parse_churn(data: Mapping[str, object], path: str) -> ChurnSpec:
    _reject_unknown(data, ("leave_probability", "return_probability", "phases"), path)
    raw_phases = data.get("phases", [])
    if not isinstance(raw_phases, Sequence) or isinstance(raw_phases, (str, bytes)):
        raise _fail(_child(path, "phases"), "expected a list of churn phases")
    phases = tuple(
        _parse_churn_phase(
            _require_mapping(entry, f"{_child(path, 'phases')}[{index}]"),
            f"{_child(path, 'phases')}[{index}]",
        )
        for index, entry in enumerate(raw_phases)
    )
    return ChurnSpec(
        leave_probability=_get_fraction(data, "leave_probability", path, 0.0),
        return_probability=_get_fraction(data, "return_probability", path, 0.5),
        phases=phases,
    )


def _parse_campaign(data: Mapping[str, object], path: str) -> CampaignSection:
    _reject_unknown(data, ("window", "groups", "events", "churn"), path)
    window_data = _require_mapping(data.get("window", {}), _child(path, "window"))
    _reject_unknown(window_data, ("start", "end"), _child(path, "window"))
    window = (
        _get_round(window_data, "start", _child(path, "window")),
        _get_round(window_data, "end", _child(path, "window")),
    )
    groups_data = _require_mapping(data.get("groups", {}), _child(path, "groups"))
    groups = {
        name: _parse_group(
            _require_mapping(entry, _child(_child(path, "groups"), name)),
            _child(_child(path, "groups"), name),
        )
        for name, entry in groups_data.items()
    }
    raw_events = data.get("events", [])
    if not isinstance(raw_events, Sequence) or isinstance(raw_events, (str, bytes)):
        raise _fail(_child(path, "events"), "expected a list of events")
    events = tuple(
        _parse_event(
            _require_mapping(entry, f"{_child(path, 'events')}[{index}]"),
            f"{_child(path, 'events')}[{index}]",
        )
        for index, entry in enumerate(raw_events)
    )
    for index, event in enumerate(events):
        if event.group not in groups:
            raise _fail(
                f"{_child(path, 'events')}[{index}].group",
                f"undeclared group {event.group!r}; declared: {sorted(groups)}",
            )
    selected = {event.group for event in events if event.action == "select"}
    for index, event in enumerate(events):
        if event.action != "select" and event.group not in selected:
            raise _fail(
                f"{_child(path, 'events')}[{index}].group",
                f"group {event.group!r} is never resolved by a select event",
            )
    churn_data = data.get("churn")
    churn = (
        _parse_churn(_require_mapping(churn_data, _child(path, "churn")), _child(path, "churn"))
        if churn_data is not None
        else None
    )
    return CampaignSection(window=window, groups=groups, events=events, churn=churn)


def _parse_tier(data: Mapping[str, object], path: str) -> TierSpec:
    _reject_unknown(data, ("n_users", "rounds", "interactions_per_peer", "knobs"), path)
    n_users = _get_opt_int(data, "n_users", path)
    if n_users is not None and n_users < 2:
        raise _fail(_child(path, "n_users"), f"n_users must be at least 2, got {n_users}")
    rounds = _get_opt_int(data, "rounds", path)
    if rounds is not None and rounds < 1:
        raise _fail(_child(path, "rounds"), f"rounds must be at least 1, got {rounds}")
    interactions = _get_opt_float(data, "interactions_per_peer", path)
    if interactions is not None and interactions < 0:
        raise _fail(
            _child(path, "interactions_per_peer"),
            f"interactions_per_peer must be non-negative, got {interactions}",
        )
    return TierSpec(
        n_users=n_users,
        rounds=rounds,
        interactions_per_peer=interactions,
        knobs=_get_knobs(data, "knobs", path),
    )


def migrate_document(data: Mapping[str, object]) -> Mapping[str, object]:
    """Upgrade a raw document to the current schema version.

    The migration hook for forward compatibility: when ``schema_version``
    bumps, add an upgrade step here so old template files keep parsing.
    v1 → v2 drops ``run.backend`` whatever its value (there is one compute
    path, so the field carries no information).  Unsupported versions fail
    with the usual precise error path.
    """
    mapping = _require_mapping(data, "")
    version = _get_int(mapping, "schema_version", "", None)
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise _fail(
            "schema_version",
            f"unsupported schema version {version}; supported: {list(SUPPORTED_SCHEMA_VERSIONS)}",
        )
    run = mapping.get("run")
    if version == 1 and isinstance(run, Mapping) and "backend" in run:
        run = {key: value for key, value in run.items() if key != "backend"}
        mapping = {**mapping, "run": run}
    return mapping


def parse_template(data: Mapping[str, object]) -> ScenarioTemplate:
    """Validate a raw document into a :class:`ScenarioTemplate` (strict)."""
    mapping = migrate_document(data)
    allowed = (
        "schema_version",
        "name",
        "description",
        "network",
        "run",
        "metrics",
        "scenario",
        "campaign",
        "tiers",
    )
    _reject_unknown(mapping, allowed, "")
    name = _get_str(mapping, "name", "", None)
    if not name or "/" in name:
        raise _fail("name", f"template names must be non-empty and slash-free, got {name!r}")
    scenario_data = mapping.get("scenario")
    campaign_data = mapping.get("campaign")
    if (scenario_data is None) == (campaign_data is None):
        raise _fail("", "exactly one of 'scenario' (catalog ref) or 'campaign' is required")
    catalog = (
        _parse_catalog_ref(_require_mapping(scenario_data, "scenario"), "scenario")
        if scenario_data is not None
        else None
    )
    campaign = (
        _parse_campaign(_require_mapping(campaign_data, "campaign"), "campaign")
        if campaign_data is not None
        else None
    )
    tiers_data = _require_mapping(mapping.get("tiers", {}), "tiers")
    _reject_unknown(tiers_data, TIER_NAMES, "tiers")
    tiers = {
        tier: _parse_tier(
            _require_mapping(tiers_data[tier], _child("tiers", tier)), _child("tiers", tier)
        )
        for tier in TIER_NAMES
        if tier in tiers_data
    }
    return ScenarioTemplate(
        schema_version=CURRENT_SCHEMA_VERSION,
        name=name,
        description=_get_str(mapping, "description", "", ""),
        network=_parse_network(_require_mapping(mapping.get("network", {}), "network"), "network"),
        run=_parse_run(_require_mapping(mapping.get("run", {}), "run"), "run"),
        metrics=_parse_metrics(_require_mapping(mapping.get("metrics", {}), "metrics"), "metrics"),
        catalog=catalog,
        campaign=campaign,
        tiers=tiers,
    )


# -- text loading ----------------------------------------------------------------


def _load_yaml(text: str) -> object:
    import yaml

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as error:
        raise TemplateError("", f"malformed YAML: {error}") from error


def template_from_text(text: str, *, format: str = "yaml") -> ScenarioTemplate:
    """Parse template text (``format`` is ``"yaml"`` or ``"json"``)."""
    if format == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise TemplateError("", f"malformed JSON: {error}") from error
    elif format == "yaml":
        data = _load_yaml(text)
    else:
        raise TemplateError("", f"unknown template format {format!r}; use 'yaml' or 'json'")
    if not isinstance(data, Mapping):
        raise TemplateError("", f"template document must be a mapping, got {type(data).__name__}")
    return parse_template(data)
