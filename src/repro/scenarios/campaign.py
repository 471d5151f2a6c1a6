"""Declarative attack campaigns: scheduled behaviour switches and churn.

The paper frames reputation mechanisms by the adversarial context they must
survive — selfish peers, malicious peers, traitors, whitewashers, collusion
and churn.  This module turns that context into *data*: an
:class:`AttackCampaign` is an ordered list of :class:`CampaignEvent`s, each
pinned to a round, that a :class:`CampaignDriver` applies through the
engine's :class:`~repro.simulation.engine.RoundHook` extension point.

Events act on named *groups*: a :class:`SelectGroup` event resolves a
declarative :class:`PeerSelector` into a concrete peer list once (drawing
only from the dedicated ``"campaign"`` random stream, so the rest of the
simulation stays stream-exact), and later events — behaviour switches,
forced churn, forced whitewashing — reference the group by name.  Sticky
groups are what make multi-phase attacks (build up, betray, recover,
repeat) act on the *same* peers every phase.

Campaigns compose: :func:`combine` merges event schedules so, e.g., a
collusion ring can run concurrently with a churn spike.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from repro.errors import CheckpointError, ConfigurationError
from repro.simulation.adversary import BehaviorModel, WhitewasherBehavior
from repro.simulation.churn import ChurnModel
from repro.simulation.engine import InteractionSimulator
from repro.simulation.peer import Peer

#: Factory building the new behaviour for one peer of a switched group.
#: Receives the peer, the whole group (for ring wiring) and the campaign rng.
BehaviorFactory = Callable[[Peer, Sequence[Peer], random.Random], BehaviorModel]

#: The populations a selector can draw from.
POPULATIONS = ("all", "honest", "dishonest", "online", "offline")


@dataclass(frozen=True)
class PeerSelector:
    """Declarative, deterministic selection of a set of peers.

    ``population`` restricts the candidate pool; ``prefix`` further filters
    by base-identifier prefix (how injected sybils are targeted).  Exactly
    one of ``fraction``/``count`` sizes the selection (omit both to take the
    whole pool).  Candidates are sorted by base id before sampling and the
    sample is re-sorted afterwards, so the selected group is a deterministic
    function of the population and the campaign rng state.
    """

    population: str = "dishonest"
    prefix: str | None = None
    fraction: float | None = None
    count: int | None = None
    minimum: int = 1

    def __post_init__(self) -> None:
        if self.population not in POPULATIONS:
            raise ConfigurationError(
                f"unknown population {self.population!r}; expected one of {POPULATIONS}"
            )
        if self.fraction is not None and self.count is not None:
            raise ConfigurationError("give fraction or count, not both")
        if self.fraction is not None and not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError("selector fraction must be in [0, 1]")
        if self.count is not None and self.count < 0:
            raise ConfigurationError("selector count must be non-negative")

    def _pool(self, peers: Sequence[Peer]) -> list[Peer]:
        pool = list(peers)
        if self.population == "honest":
            pool = [peer for peer in pool if peer.user.is_honest]
        elif self.population == "dishonest":
            pool = [peer for peer in pool if not peer.user.is_honest]
        elif self.population == "online":
            pool = [peer for peer in pool if peer.online]
        elif self.population == "offline":
            pool = [peer for peer in pool if not peer.online]
        if self.prefix is not None:
            pool = [peer for peer in pool if peer.base_id.startswith(self.prefix)]
        return sorted(pool, key=lambda peer: peer.base_id)

    def select(self, peers: Sequence[Peer], rng: random.Random) -> list[Peer]:
        """Resolve the selector against the current population."""
        pool = self._pool(peers)
        if self.fraction is None and self.count is None:
            return pool
        if self.count is not None:
            size = self.count
        else:
            size = int(round(self.fraction * len(pool)))
        size = max(self.minimum, size)
        size = min(size, len(pool))
        if size >= len(pool):
            return pool
        return sorted(rng.sample(pool, size), key=lambda peer: peer.base_id)


class CampaignEvent(abc.ABC):
    """One scheduled campaign action."""

    round_index: int
    group: str

    @abc.abstractmethod
    def apply(self, driver: CampaignDriver, simulator: InteractionSimulator) -> None:
        """Execute the event against the live simulation."""


@dataclass(frozen=True)
class SelectGroup(CampaignEvent):
    """Resolve a selector into the named sticky group."""

    round_index: int
    group: str
    selector: PeerSelector

    def apply(self, driver: CampaignDriver, simulator: InteractionSimulator) -> None:
        rng = simulator.streams.stream("campaign")
        driver.groups[self.group] = self.selector.select(simulator.directory.peers(), rng)


@dataclass(frozen=True)
class SwitchBehavior(CampaignEvent):
    """Replace the behaviour of every peer in a group."""

    round_index: int
    group: str
    factory: BehaviorFactory

    def apply(self, driver: CampaignDriver, simulator: InteractionSimulator) -> None:
        rng = simulator.streams.stream("campaign")
        members = driver.members(self.group)
        for peer in members:
            peer.behavior = self.factory(peer, members, rng)


@dataclass(frozen=True)
class SetOnline(CampaignEvent):
    """Force a group on- or offline, optionally pinning it there.

    A pinned-offline group is re-forced offline at every subsequent round
    start, overriding the natural churn model's rejoin draws — how a sybil
    cohort stays dormant until its burst round.  The event always restates
    the pin: ``online=False, pin=False`` forces the group offline *now* but
    releases any earlier pin, handing it back to natural churn.
    """

    round_index: int
    group: str
    online: bool
    pin: bool = False

    def apply(self, driver: CampaignDriver, simulator: InteractionSimulator) -> None:
        for peer in driver.members(self.group):
            peer.online = self.online
            if not self.online and self.pin:
                driver.pinned_offline.add(peer.base_id)
            else:
                driver.pinned_offline.discard(peer.base_id)


@dataclass(frozen=True)
class Whitewash(CampaignEvent):
    """Force every peer of a group to shed its identity and rejoin fresh.

    The reputation system loses the link to the old identity (scores reset
    to the mechanism default) while the simulator keeps attributing history
    to the ground-truth user, exactly like engine-driven whitewashing.
    """

    round_index: int
    group: str

    def apply(self, driver: CampaignDriver, simulator: InteractionSimulator) -> None:
        for peer in driver.members(self.group):
            old_id = peer.peer_id
            peer.new_identity()
            simulator.directory.rebind_identity(peer, old_id)
            if isinstance(peer.behavior, WhitewasherBehavior):
                peer.behavior.note_whitewash()


@dataclass
class AttackCampaign:
    """A named, composable schedule of campaign events.

    ``window`` is the half-open ``[start, end)`` round interval during which
    the attack is considered *active* — the robustness metrics anchor
    time-to-detect on its start and time-to-recover on its end.  ``churn``
    optionally replaces the simulation's churn model (campaigns that need a
    churn spike install a
    :class:`~repro.simulation.churn.PhasedChurnModel`).
    """

    name: str
    events: list[CampaignEvent] = field(default_factory=list)
    window: tuple[int, int] = (0, 0)
    churn: ChurnModel | None = None

    def __post_init__(self) -> None:
        start, end = self.window
        if start < 0 or end < start:
            raise ConfigurationError(
                f"campaign window needs 0 <= start <= end (got [{start}, {end}))"
            )
        for event in self.events:
            if event.round_index < 0:
                raise ConfigurationError(
                    f"campaign event scheduled at negative round {event.round_index}"
                )
        self.events = sorted(self.events, key=lambda event: event.round_index)

    def events_at(self, round_index: int) -> list[CampaignEvent]:
        return [event for event in self.events if event.round_index == round_index]

    @property
    def attack_start(self) -> int:
        return self.window[0]

    @property
    def attack_end(self) -> int:
        return self.window[1]


def combine(name: str, *campaigns: AttackCampaign) -> AttackCampaign:
    """Merge campaigns into one: union of events, envelope of windows.

    Group names are namespaced per source campaign to keep their sticky
    selections independent.  At most one source campaign may carry a custom
    churn model (two would conflict).
    """
    if not campaigns:
        raise ConfigurationError("combine needs at least one campaign")
    events: list[CampaignEvent] = []
    churn: ChurnModel | None = None
    for campaign in campaigns:
        for event in campaign.events:
            events.append(_namespaced(event, campaign.name))
        if campaign.churn is not None:
            if churn is not None:
                raise ConfigurationError("cannot combine two campaigns that both override churn")
            churn = campaign.churn
    starts = [c.attack_start for c in campaigns]
    ends = [c.attack_end for c in campaigns]
    return AttackCampaign(name=name, events=events, window=(min(starts), max(ends)), churn=churn)


def _namespaced(event: CampaignEvent, namespace: str) -> CampaignEvent:
    qualified = f"{namespace}/{event.group}"
    if isinstance(event, SelectGroup):
        return SelectGroup(event.round_index, qualified, event.selector)
    if isinstance(event, SwitchBehavior):
        return SwitchBehavior(event.round_index, qualified, event.factory)
    if isinstance(event, SetOnline):
        return SetOnline(event.round_index, qualified, event.online, event.pin)
    if isinstance(event, Whitewash):
        return Whitewash(event.round_index, qualified)
    raise ConfigurationError(f"cannot namespace unknown event type {type(event).__name__}")


class CampaignDriver:
    """Applies an :class:`AttackCampaign` through the engine's round hooks."""

    def __init__(self, campaign: AttackCampaign) -> None:
        self.campaign = campaign
        self.groups: dict[str, list[Peer]] = {}
        self.pinned_offline: set[str] = set()

    def members(self, group: str) -> list[Peer]:
        try:
            return self.groups[group]
        except KeyError:
            raise ConfigurationError(
                f"campaign group {group!r} referenced before SelectGroup resolved it"
            ) from None

    # -- RoundHook interface ------------------------------------------------

    def on_round_start(self, simulator: InteractionSimulator, round_index: int) -> None:
        for event in self.campaign.events_at(round_index):
            event.apply(self, simulator)
        if self.pinned_offline:
            for peer in simulator.directory.peers():
                if peer.base_id in self.pinned_offline:
                    peer.online = False

    def on_round_end(
        self, simulator: InteractionSimulator, round_index: int, scores: dict[str, float]
    ) -> None:
        """Campaigns act at round starts; nothing to do at round end."""

    # -- checkpoint protocol ------------------------------------------------

    def checkpoint_state(self) -> dict[str, object]:
        """Picklable cursor state: sticky group selections + offline pins.

        Peers are referenced by stable base id — the campaign itself (with
        its closures) is configuration and gets rebuilt on resume, so only
        the runtime decisions travel through the checkpoint.
        """
        return {
            "groups": {
                name: [peer.base_id for peer in members]
                for name, members in self.groups.items()
            },
            "pinned_offline": sorted(self.pinned_offline),
        }

    def restore_checkpoint_state(
        self, state: dict[str, object], simulator: InteractionSimulator
    ) -> None:
        """Re-resolve checkpointed group selections against the restored
        directory (same peers, same base ids)."""
        by_base_id = {peer.base_id: peer for peer in simulator.directory.peers()}
        groups = state.get("groups", {})
        pinned = state.get("pinned_offline", [])
        if not isinstance(groups, dict) or not isinstance(pinned, list):
            raise CheckpointError("malformed campaign-driver checkpoint state")
        try:
            self.groups = {
                str(name): [by_base_id[base_id] for base_id in base_ids]
                for name, base_ids in groups.items()
            }
        except KeyError as missing:
            raise CheckpointError(
                f"campaign checkpoint references unknown peer {missing.args[0]!r}"
            ) from missing
        self.pinned_offline = {str(base_id) for base_id in pinned}
