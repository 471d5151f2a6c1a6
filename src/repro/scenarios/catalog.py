"""The named attack-scenario catalog.

Each entry is a :class:`ScenarioSpec`: a name, a builder producing the
:class:`~repro.scenarios.campaign.AttackCampaign` for a given round budget,
and (for scenarios that change the population, like sybil influx) a
graph-setup step.  The knobs and their defaults are those steps'
keyword-only parameters, stated once in their signatures.  The catalog is
the declarative contract between the simulation substrate and the
robustness experiment: every mechanism is evaluated against every entry,
and sweeps/benchmarks reference entries by name instead of re-assembling
parameter tuples.

:data:`CATALOG` holds exactly the built-in entries below, in every process.
A declarative template's campaign is not added to it: the run config
carries the template's campaign section, and :func:`compile_campaign`
materializes it per run.

Scenarios
---------
``baseline``
    No attack — the control row recovery metrics are read against.
``collusion-ring``
    A ring of dishonest peers inflates each other and deflates everyone
    else; ``ring_fraction`` sizes the ring, ``density`` thins how many
    accomplices each member actually endorses.
``whitewash-wave``
    Dishonest peers periodically shed their identities (exit + rejoin under
    a fresh id) so the mechanism keeps losing its evidence about them.
``traitor-oscillation``
    Peers alternate grooming phases (serve well, build reputation) and
    betrayal phases (serve maliciously) on a configurable duty cycle.
``slander``
    Rating attack: attackers serve honestly but bad-mouth everyone outside
    their clique and (optionally) ballot-stuff each other.
``sybil-burst``
    A dormant cohort of fabricated identities floods in mid-run as a
    colluding bloc, then vanishes when the attack window closes.
``collusion-under-churn``
    The collusion ring layered on a churn spike — detection under
    population instability.
``marketplace``
    Buyer/seller dynamics: a fraud ring of dishonest merchants grooms a
    good reputation before ballot-stuffing each other, while a slice of
    honest users free-rides (consumes without serving).
``flash-crowd``
    Load spike: a dormant crowd floods in at the window start while the
    churn model surges return rates — a popularity event, not an attack.
``regional-partition``
    A random region of the network drops offline for the whole window
    (link failure / geographic partition) and then returns.
``long-horizon-drift``
    Slow behavioural drift: the dishonest cohort oscillates with a
    betrayal duty cycle that lengthens stage by stage until it defects
    permanently — designed for very long (10k-round) horizons.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, TemplateError
from repro.scenarios.campaign import (
    AttackCampaign,
    BehaviorFactory,
    CampaignEvent,
    PeerSelector,
    SelectGroup,
    SetOnline,
    SwitchBehavior,
    Whitewash,
    combine,
)
from repro.simulation.adversary import (
    BehaviorModel,
    CollusiveBehavior,
    GroomingBehavior,
    HonestBehavior,
    MaliciousBehavior,
    SelfishBehavior,
    SlanderBehavior,
    WhitewasherBehavior,
)
from repro.simulation.churn import ChurnPhase, PhasedChurnModel
from repro.simulation.peer import Peer
from repro.socialnet.graph import SocialGraph
from repro.socialnet.user import User, standard_profile

if TYPE_CHECKING:  # pragma: no cover - typing only; the schema layers on top
    from repro.scenarios.schema.model import CampaignSection

#: Base-id prefix identifying injected sybil identities.
SYBIL_PREFIX = "sybil-"


def attack_window(
    rounds: int, lead_fraction: float = 0.25, attack_fraction: float = 0.5
) -> tuple[int, int]:
    """The ``[start, end)`` attack interval for a round budget.

    The lead keeps a pre-attack baseline to anchor recovery against; the
    remainder after the window is where recovery is measured.
    """
    if rounds < 1:
        raise ConfigurationError("attack_window needs at least one round")
    start = max(1, int(round(rounds * lead_fraction)))
    length = max(1, int(round(rounds * attack_fraction)))
    end = min(rounds, start + length)
    return start, end


# -- behaviour factories ---------------------------------------------------------


def _malicious_factory(peer: Peer, group: Sequence[Peer], rng: random.Random) -> BehaviorModel:
    return MaliciousBehavior()


def _grooming_factory(peer: Peer, group: Sequence[Peer], rng: random.Random) -> BehaviorModel:
    return GroomingBehavior()


def _whitewasher_factory(peer: Peer, group: Sequence[Peer], rng: random.Random) -> BehaviorModel:
    return WhitewasherBehavior()


def _honest_factory(peer: Peer, group: Sequence[Peer], rng: random.Random) -> BehaviorModel:
    return HonestBehavior()


def _selfish_factory(peer: Peer, group: Sequence[Peer], rng: random.Random) -> BehaviorModel:
    return SelfishBehavior()


def _collusive_factory(density: float) -> BehaviorFactory:
    """Ring factory: each member endorses a ``density`` share of the ring."""

    def factory(peer: Peer, group: Sequence[Peer], rng: random.Random) -> BehaviorModel:
        others = sorted(p.peer_id for p in group if p.base_id != peer.base_id)
        if density < 1.0 and others:
            keep = max(1, int(round(density * len(others))))
            others = sorted(rng.sample(others, min(keep, len(others))))
        return CollusiveBehavior(ring=set(others))

    return factory


def _slander_factory(ballot_stuffing: bool, slander_probability: float) -> BehaviorFactory:
    def factory(peer: Peer, group: Sequence[Peer], rng: random.Random) -> BehaviorModel:
        accomplices = (
            {p.peer_id for p in group if p.base_id != peer.base_id}
            if ballot_stuffing
            else set()
        )
        return SlanderBehavior(accomplices=accomplices, slander_probability=slander_probability)

    return factory


#: Behaviour names the declarative scenario schema may reference, mapped to
#: a factory-of-factories: ``builder(**args) -> BehaviorFactory``.  Simple
#: behaviours take no arguments; parameterized ones expose exactly the knobs
#: their underlying factory closes over.
_BEHAVIOR_BUILDERS: dict[str, Callable[..., BehaviorFactory]] = {
    "honest": lambda: _honest_factory,
    "malicious": lambda: _malicious_factory,
    "selfish": lambda: _selfish_factory,
    "grooming": lambda: _grooming_factory,
    "whitewasher": lambda: _whitewasher_factory,
    "collusive": lambda density=1.0: _collusive_factory(density),
    "slander": lambda ballot_stuffing=True, slander_probability=1.0: _slander_factory(
        ballot_stuffing, slander_probability
    ),
}


def behavior_names() -> list[str]:
    """Behaviour names addressable from declarative scenario templates."""
    return sorted(_BEHAVIOR_BUILDERS)


def behavior_factory(name: str, **args: object) -> BehaviorFactory:
    """The named behaviour factory, parameterized by ``args``.

    The declarative scenario schema resolves template ``switch`` events
    through this single entry point so template files can reference any
    behaviour the catalog's own builders use.
    """
    try:
        builder = _BEHAVIOR_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown behavior {name!r}; available: {behavior_names()}"
        ) from None
    try:
        return builder(**args)
    except TypeError:
        raise ConfigurationError(
            f"behavior {name!r} does not accept arguments {sorted(args)}"
        ) from None


# -- campaign builders -----------------------------------------------------------


def baseline(*, rounds: int) -> AttackCampaign:
    """No attack: the control scenario (window collapses to the run's end)."""
    return AttackCampaign(name="baseline", events=[], window=(rounds, rounds))


def collusion_ring(
    *,
    rounds: int,
    ring_fraction: float = 0.6,
    density: float = 1.0,
    lead_fraction: float = 0.25,
    attack_fraction: float = 0.5,
) -> AttackCampaign:
    start, end = attack_window(rounds, lead_fraction, attack_fraction)
    selector = PeerSelector(population="dishonest", fraction=ring_fraction, minimum=2)
    events: list[CampaignEvent] = [
        # Sleeper phase: the future ring grooms a good reputation first, so
        # the attack window flips coordinated inflation on from a position
        # of trust (the distinguishing feature of a real collusion ring).
        SelectGroup(0, "ring", selector),
        SwitchBehavior(0, "ring", _grooming_factory),
        SwitchBehavior(start, "ring", _collusive_factory(density)),
        SwitchBehavior(end, "ring", _malicious_factory),
    ]
    return AttackCampaign(name="collusion-ring", events=events, window=(start, end))


def whitewash_wave(
    *,
    rounds: int,
    fraction: float = 0.8,
    wave_period: int = 3,
    lead_fraction: float = 0.25,
    attack_fraction: float = 0.5,
) -> AttackCampaign:
    if wave_period < 1:
        raise ConfigurationError("wave_period must be at least 1")
    start, end = attack_window(rounds, lead_fraction, attack_fraction)
    events: list[CampaignEvent] = [
        SelectGroup(start, "washers", PeerSelector(population="dishonest", fraction=fraction)),
        SwitchBehavior(start, "washers", _whitewasher_factory),
    ]
    for wave_round in range(start, end, wave_period):
        events.append(Whitewash(wave_round, "washers"))
    return AttackCampaign(name="whitewash-wave", events=events, window=(start, end))


def traitor_oscillation(
    *,
    rounds: int,
    fraction: float = 0.6,
    build_rounds: int = 4,
    betray_rounds: int = 3,
    lead_fraction: float = 0.25,
    attack_fraction: float = 0.5,
) -> AttackCampaign:
    if build_rounds < 1 or betray_rounds < 1:
        raise ConfigurationError("build_rounds and betray_rounds must be at least 1")
    start, end = attack_window(rounds, lead_fraction, attack_fraction)
    events: list[CampaignEvent] = [
        SelectGroup(0, "traitors", PeerSelector(population="dishonest", fraction=fraction)),
        # Grooming from round 0: the lead *is* the build-up phase.
        SwitchBehavior(0, "traitors", _grooming_factory),
    ]
    betraying_from = start
    while betraying_from < end:
        events.append(SwitchBehavior(betraying_from, "traitors", _malicious_factory))
        grooming_from = betraying_from + betray_rounds
        if grooming_from < end:
            events.append(SwitchBehavior(grooming_from, "traitors", _grooming_factory))
        betraying_from = grooming_from + build_rounds
    if end < rounds:
        # After the window the traitors stay defected, so recovery measures
        # how fast the mechanism re-marks them down.
        events.append(SwitchBehavior(end, "traitors", _malicious_factory))
    return AttackCampaign(name="traitor-oscillation", events=events, window=(start, end))


def slander(
    *,
    rounds: int,
    fraction: float = 0.7,
    ballot_stuffing: bool = True,
    slander_probability: float = 1.0,
    lead_fraction: float = 0.25,
    attack_fraction: float = 0.5,
) -> AttackCampaign:
    start, end = attack_window(rounds, lead_fraction, attack_fraction)
    events: list[CampaignEvent] = [
        # Slanderers also groom first: a rating attack mounted by peers the
        # mechanism already trusts is the damaging variant.
        SelectGroup(0, "slanderers", PeerSelector(population="dishonest", fraction=fraction)),
        SwitchBehavior(0, "slanderers", _grooming_factory),
        SwitchBehavior(start, "slanderers", _slander_factory(ballot_stuffing, slander_probability)),
        SwitchBehavior(end, "slanderers", _malicious_factory),
    ]
    return AttackCampaign(name="slander", events=events, window=(start, end))


def sybil_burst(
    *,
    rounds: int,
    lead_fraction: float = 0.3,
    attack_fraction: float = 0.45,
) -> AttackCampaign:
    start, end = attack_window(rounds, lead_fraction, attack_fraction)
    selector = PeerSelector(population="all", prefix=SYBIL_PREFIX)
    events: list[CampaignEvent] = [
        SelectGroup(0, "sybils", selector),
        SetOnline(0, "sybils", online=False, pin=True),
        SetOnline(start, "sybils", online=True),
        SwitchBehavior(start, "sybils", _collusive_factory(1.0)),
        SetOnline(end, "sybils", online=False, pin=True),
    ]
    return AttackCampaign(name="sybil-burst", events=events, window=(start, end))


def collusion_under_churn(
    *,
    rounds: int,
    ring_fraction: float = 0.6,
    density: float = 1.0,
    churn_leave_probability: float = 0.25,
    churn_return_probability: float = 0.6,
    lead_fraction: float = 0.25,
    attack_fraction: float = 0.5,
) -> AttackCampaign:
    ring = collusion_ring(
        rounds=rounds,
        ring_fraction=ring_fraction,
        density=density,
        lead_fraction=lead_fraction,
        attack_fraction=attack_fraction,
    )
    start, end = ring.window
    churn_spike = AttackCampaign(
        name="churn-spike",
        events=[],
        window=(start, end),
        churn=PhasedChurnModel(
            leave_probability=0.02,
            return_probability=0.5,
            phases=[
                ChurnPhase(
                    start,
                    end,
                    leave_probability=churn_leave_probability,
                    return_probability=churn_return_probability,
                )
            ],
        ),
    )
    return combine("collusion-under-churn", ring, churn_spike)


def marketplace(
    *,
    rounds: int,
    fraud_fraction: float = 0.5,
    freeride_fraction: float = 0.15,
    density: float = 1.0,
    lead_fraction: float = 0.25,
    attack_fraction: float = 0.5,
) -> AttackCampaign:
    """Buyer/seller dynamics: a grooming fraud ring plus honest free-riders.

    Dishonest merchants build a good track record first, then ballot-stuff
    each other during the window (fake five-star reviews) and defect outright
    afterwards.  Meanwhile a slice of the honest population free-rides from
    round 0 — consuming service while rarely providing it — which is not an
    attack but shapes the marketplace the mechanism must price.
    """
    start, end = attack_window(rounds, lead_fraction, attack_fraction)
    events: list[CampaignEvent] = [
        SelectGroup(0, "fraud-ring", PeerSelector(population="dishonest", fraction=fraud_fraction, minimum=2)),
        SwitchBehavior(0, "fraud-ring", _grooming_factory),
        SelectGroup(0, "free-riders", PeerSelector(population="honest", fraction=freeride_fraction)),
        SwitchBehavior(0, "free-riders", _selfish_factory),
        SwitchBehavior(start, "fraud-ring", _collusive_factory(density)),
        SwitchBehavior(end, "fraud-ring", _malicious_factory),
    ]
    return AttackCampaign(name="marketplace", events=events, window=(start, end))


def flash_crowd(
    *,
    rounds: int,
    crowd_fraction: float = 0.4,
    surge_return_probability: float = 0.95,
    surge_leave_probability: float = 0.02,
    base_leave_probability: float = 0.05,
    base_return_probability: float = 0.5,
    lead_fraction: float = 0.3,
    attack_fraction: float = 0.4,
) -> AttackCampaign:
    """Load spike: a dormant crowd floods in while churn surges.

    No adversarial behaviour changes — the stressor is pure population
    dynamics.  A ``crowd_fraction`` slice of all peers is held offline until
    the window opens, then released at once while the churn model switches
    to surge rates (high return, low leave); after the window the base churn
    rates drain the crowd back out.
    """
    start, end = attack_window(rounds, lead_fraction, attack_fraction)
    events: list[CampaignEvent] = [
        SelectGroup(0, "crowd", PeerSelector(population="all", fraction=crowd_fraction)),
        SetOnline(0, "crowd", online=False, pin=True),
        SetOnline(start, "crowd", online=True),
    ]
    churn = PhasedChurnModel(
        leave_probability=base_leave_probability,
        return_probability=base_return_probability,
        phases=[
            ChurnPhase(
                start,
                end,
                leave_probability=surge_leave_probability,
                return_probability=surge_return_probability,
            )
        ],
    )
    return AttackCampaign(name="flash-crowd", events=events, window=(start, end), churn=churn)


def regional_partition(
    *,
    rounds: int,
    region_fraction: float = 0.3,
    lead_fraction: float = 0.25,
    attack_fraction: float = 0.4,
) -> AttackCampaign:
    """A random region drops offline for the window, then returns.

    Models a link failure or geographic partition: the region's peers are
    pinned offline for ``[start, end)``, so the mechanism must cope with the
    evidence gap and re-integrate the region afterwards.
    """
    start, end = attack_window(rounds, lead_fraction, attack_fraction)
    events: list[CampaignEvent] = [
        SelectGroup(0, "region", PeerSelector(population="all", fraction=region_fraction)),
        SetOnline(start, "region", online=False, pin=True),
        SetOnline(end, "region", online=True),
    ]
    return AttackCampaign(name="regional-partition", events=events, window=(start, end))


def long_horizon_drift(
    *,
    rounds: int,
    fraction: float = 0.8,
    n_stages: int = 5,
    lead_fraction: float = 0.1,
    attack_fraction: float = 0.8,
) -> AttackCampaign:
    """Slow behavioural drift toward permanent defection.

    The window is cut into ``n_stages`` equal stages; in stage *k* the
    drifting cohort betrays for ``(k+1)/n_stages`` of the stage and grooms
    for the rest, so the betrayal duty cycle lengthens until — after the
    window — the cohort defects for good.  Designed for very long horizons
    (the large template tier runs it for 10k rounds), where mechanisms with
    unbounded memory are slowest to track the drift.
    """
    if n_stages < 1:
        raise ConfigurationError("n_stages must be at least 1")
    start, end = attack_window(rounds, lead_fraction, attack_fraction)
    events: list[CampaignEvent] = [
        SelectGroup(0, "drifters", PeerSelector(population="dishonest", fraction=fraction)),
        SwitchBehavior(0, "drifters", _grooming_factory),
    ]
    span = end - start
    for stage in range(n_stages):
        stage_start = start + (stage * span) // n_stages
        stage_end = start + ((stage + 1) * span) // n_stages
        if stage_end <= stage_start:
            continue
        betray_rounds = max(1, (stage_end - stage_start) * (stage + 1) // n_stages)
        events.append(SwitchBehavior(stage_start, "drifters", _malicious_factory))
        groom_from = stage_start + betray_rounds
        if groom_from < stage_end:
            events.append(SwitchBehavior(groom_from, "drifters", _grooming_factory))
    events.append(SwitchBehavior(end, "drifters", _malicious_factory))
    return AttackCampaign(name="long-horizon-drift", events=events, window=(start, end))


# -- template campaigns ----------------------------------------------------------


def resolve_round(value: int | float, rounds: int) -> int:
    """Resolve a template round position: ints pass through, fractions scale."""
    if isinstance(value, int):
        return value
    return int(round(value * rounds))


def _event_round(value: int | float, rounds: int, path: str) -> int:
    resolved = resolve_round(value, rounds)
    if isinstance(value, float):
        return min(resolved, rounds - 1)
    if resolved >= rounds:
        raise TemplateError(
            path, f"event round {resolved} never fires within {rounds} rounds"
        )
    return resolved


def compile_campaign(name: str, section: CampaignSection, rounds: int) -> AttackCampaign:
    """Materialize a declarative template campaign section for a round budget.

    Fractional round positions (floats in ``[0, 1]``) resolve against the
    round budget via round-half-even on ``value * rounds``; event rounds
    additionally clamp to the final round so ``1.0`` means "last round".
    Nothing here draws randomness, so the campaign is a pure function of
    the section and the budget.
    """
    events: list[CampaignEvent] = []
    for index, spec in enumerate(section.events):
        path = f"campaign.events[{index}]"
        round_index = _event_round(spec.round, rounds, f"{path}.round")
        if spec.action == "select":
            group = section.groups[spec.group]
            selector = PeerSelector(
                population=group.population,
                prefix=group.prefix,
                fraction=group.fraction,
                count=group.count,
                minimum=group.minimum,
            )
            events.append(SelectGroup(round_index, spec.group, selector))
        elif spec.action == "switch":
            if spec.behavior is None:  # unreachable after validation
                raise TemplateError(f"{path}.behavior", "switch events need a behavior name")
            try:
                factory = behavior_factory(spec.behavior, **dict(spec.args))
            except ConfigurationError as error:
                raise TemplateError(f"{path}.behavior", str(error)) from error
            events.append(SwitchBehavior(round_index, spec.group, factory))
        elif spec.action == "set-online":
            events.append(SetOnline(round_index, spec.group, spec.online, spec.pin))
        else:
            events.append(Whitewash(round_index, spec.group))

    window = (
        resolve_round(section.window[0], rounds),
        resolve_round(section.window[1], rounds),
    )
    if not 0 <= window[0] <= window[1] <= rounds:
        raise TemplateError(
            "campaign.window",
            f"window resolves to [{window[0]}, {window[1]}) outside 0..{rounds}",
        )

    churn: PhasedChurnModel | None = None
    if section.churn is not None:
        phases: list[ChurnPhase] = []
        for index, phase in enumerate(section.churn.phases):
            start = resolve_round(phase.start, rounds)
            end = resolve_round(phase.end, rounds)
            if end <= start:
                raise TemplateError(
                    f"campaign.churn.phases[{index}]",
                    f"phase collapses to [{start}, {end}) at rounds={rounds}",
                )
            phases.append(
                ChurnPhase(start, end, phase.leave_probability, phase.return_probability)
            )
        churn = PhasedChurnModel(
            leave_probability=section.churn.leave_probability,
            return_probability=section.churn.return_probability,
            phases=phases,
        )

    return AttackCampaign(name=name, events=events, window=window, churn=churn)


# -- graph setup (population-changing scenarios) ---------------------------------


def inject_sybils(
    graph: SocialGraph,
    rng: random.Random,
    *,
    n_sybils: int = 8,
    attach_degree: int = 3,
) -> list[User]:
    """Add a dormant sybil cohort to the graph before the run starts.

    Sybils are fabricated dishonest identities wired into a clique (so they
    can ballot-stuff each other) plus ``attach_degree`` edges each onto the
    existing population (their victim surface).  The campaign keeps them
    offline until the burst round.
    """
    if n_sybils < 1:
        raise ConfigurationError("n_sybils must be at least 1")
    if attach_degree < 1:
        raise ConfigurationError("attach_degree must be at least 1")
    existing_ids = sorted(graph.user_ids())
    sybils: list[User] = []
    for index in range(n_sybils):
        user_id = f"{SYBIL_PREFIX}{index:03d}"
        user = User(
            user_id=user_id,
            profile=standard_profile(user_id),
            honesty=0.05,
            competence=0.2,
            activity=0.9,
            privacy_concern=0.0,
        )
        graph.add_user(user)
        sybils.append(user)
    for index, user in enumerate(sybils):
        for other in sybils[index + 1 :]:
            graph.add_relationship(user.user_id, other.user_id)
        targets = rng.sample(existing_ids, min(attach_degree, len(existing_ids)))
        for target in targets:
            if not graph.are_connected(user.user_id, target):
                graph.add_relationship(user.user_id, target)
    return sybils


# -- the catalog -----------------------------------------------------------------


def _knob_defaults(step: Callable[..., object] | None) -> dict[str, object]:
    """A scenario step's knobs: its keyword-only parameters with defaults."""
    if step is None:
        return {}
    return {
        name: parameter.default
        for name, parameter in inspect.signature(step).parameters.items()
        if parameter.kind is parameter.KEYWORD_ONLY and parameter.default is not parameter.empty
    }


@dataclass(frozen=True)
class ScenarioSpec:
    """One catalog entry: name, campaign builder, optional graph setup.

    The steps' signatures declare the knobs: each keyword-only parameter
    with a default is a knob, and its default is the knob's default.
    """

    name: str
    description: str
    build: Callable[..., AttackCampaign]
    setup_graph: Callable[..., object] | None = None

    @property
    def knobs(self) -> dict[str, object]:
        """Every knob and its default: ``setup_graph``'s first, then ``build``'s."""
        return {**_knob_defaults(self.setup_graph), **_knob_defaults(self.build)}

    def merged_knobs(self, overrides: Mapping[str, object]) -> dict[str, object]:
        knobs = self.knobs
        unknown = sorted(set(overrides) - set(knobs))
        if unknown:
            raise ConfigurationError(
                f"scenario {self.name!r} has no knobs {unknown}; "
                f"available: {sorted(knobs)}"
            )
        knobs.update(overrides)
        return knobs

    def _own_knobs(
        self, step: Callable[..., object], overrides: Mapping[str, object]
    ) -> dict[str, object]:
        """The merged values of the knobs ``step`` declares; unknown knobs raise."""
        merged = self.merged_knobs(overrides)
        return {name: merged[name] for name in _knob_defaults(step)}

    def campaign(self, *, rounds: int, **overrides: object) -> AttackCampaign:
        """Build the campaign for a round budget.

        ``overrides`` replace knob defaults; unknown knobs raise.  The
        builder receives only its own knobs: graph knobs (e.g. sybil
        counts) are accepted here and consumed by :meth:`prepare_graph`.
        """
        return self.build(rounds=rounds, **self._own_knobs(self.build, overrides))

    def prepare_graph(self, graph: SocialGraph, rng: random.Random, **overrides: object) -> None:
        """Apply the scenario's population changes (if any) to a fresh graph."""
        if self.setup_graph is not None:
            self.setup_graph(graph, rng, **self._own_knobs(self.setup_graph, overrides))


CATALOG: dict[str, ScenarioSpec] = {
    "baseline": ScenarioSpec(
        name="baseline",
        description="no attack; the control row",
        build=baseline,
    ),
    "collusion-ring": ScenarioSpec(
        name="collusion-ring",
        description="dishonest ring inflates accomplices, deflates everyone else",
        build=collusion_ring,
    ),
    "whitewash-wave": ScenarioSpec(
        name="whitewash-wave",
        description="periodic identity resets erase the mechanism's evidence",
        build=whitewash_wave,
    ),
    "traitor-oscillation": ScenarioSpec(
        name="traitor-oscillation",
        description="groom/betray duty cycle of on-off traitors",
        build=traitor_oscillation,
    ),
    "slander": ScenarioSpec(
        name="slander",
        description="honest service, poisoned ratings (bad-mouth + ballot-stuff)",
        build=slander,
    ),
    "sybil-burst": ScenarioSpec(
        name="sybil-burst",
        description="dormant colluding sybil cohort floods in mid-run",
        build=sybil_burst,
        setup_graph=inject_sybils,
    ),
    "collusion-under-churn": ScenarioSpec(
        name="collusion-under-churn",
        description="collusion ring layered on a churn spike",
        build=collusion_under_churn,
    ),
    "marketplace": ScenarioSpec(
        name="marketplace",
        description="grooming fraud ring of sellers plus free-riding buyers",
        build=marketplace,
    ),
    "flash-crowd": ScenarioSpec(
        name="flash-crowd",
        description="dormant crowd floods in under surging churn (load spike)",
        build=flash_crowd,
    ),
    "regional-partition": ScenarioSpec(
        name="regional-partition",
        description="a random region drops offline for the window, then returns",
        build=regional_partition,
    ),
    "long-horizon-drift": ScenarioSpec(
        name="long-horizon-drift",
        description="betrayal duty cycle lengthening toward permanent defection",
        build=long_horizon_drift,
    ),
}


def scenario_names() -> list[str]:
    """Catalog entry names in declaration order."""
    return list(CATALOG)


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return CATALOG[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {sorted(CATALOG)}"
        ) from None
