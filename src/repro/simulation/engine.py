"""The simulation engine.

Two layers:

* :class:`EventDrivenSimulator` — a generic discrete-event loop over the
  :class:`~repro.simulation.events.EventQueue`;
* :class:`InteractionSimulator` — the round-based peer-to-peer interaction
  simulation used throughout the experiments, built on top of the event loop.

Each round, every online peer may initiate a transaction with a provider
chosen either at random among its candidates or through the reputation
system's response policy; the provider serves well or badly according to its
behaviour model; the consumer produces (possibly dishonest) feedback and
discloses it to the reputation system with a probability driven by the
system-wide *information-sharing level* and the peer's own privacy concern.
Disclosed feedback is what the reputation mechanism sees and what the privacy
ledger accounts for — this is the concrete coupling knob between the paper's
reputation and privacy facets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import Protocol

from repro import _profiling
from repro._util import require_unit_interval
from repro.core.backend import interaction_counts
from repro.errors import ConfigurationError, SimulationError
from repro.simulation.adversary import (
    BehaviorModel,
    CollusiveBehavior,
    WhitewasherBehavior,
    behavior_for_user,
)
from repro.simulation.churn import ChurnModel
from repro.simulation.events import Event, EventQueue
from repro.simulation.metrics import MetricsCollector
from repro.simulation.peer import Peer, PeerDirectory
from repro.simulation.rng import RandomStreams
from repro.simulation.transaction import Feedback, Transaction, TransactionOutcome
from repro.socialnet.graph import SocialGraph


class ReputationProtocol(Protocol):
    """What the simulator needs from a reputation mechanism."""

    def record_feedback(self, feedback: Feedback) -> None:
        """Ingest one disclosed feedback report."""

    def score(self, peer_id: str) -> float:
        """Current reputation score of a peer in ``[0, 1]``."""


class RoundHook(Protocol):
    """Observer/actuator invoked at every round boundary.

    Hooks are the engine's extension point for *time-varying* behaviour —
    attack campaigns that switch behaviours, force churn or whitewash peers
    on a schedule, and trace collectors that snapshot the published scores.

    ``on_round_start`` runs after the natural churn step but before the
    round's reputation snapshot and transactions, so a hook can override
    churn decisions and rewire behaviours for the round about to run.
    ``on_round_end`` runs after the round's metrics closed, with the scores
    the mechanism published at the end of the round.

    Hooks must not consume the engine's named random streams ("behavior",
    "churn", "selection", "activity", "transactions", "feedback"); a hook
    that needs randomness draws from its own named stream (e.g.
    ``simulator.streams.stream("campaign")``) so that runs with and without
    hooks stay stream-exact.
    """

    def on_round_start(self, simulator: InteractionSimulator, round_index: int) -> None:
        """Called before the round's transactions (after natural churn)."""

    def on_round_end(
        self, simulator: InteractionSimulator, round_index: int, scores: dict[str, float]
    ) -> None:
        """Called after the round completed, with the published scores."""


#: Callback invoked for every feedback actually disclosed to the system.
DisclosureObserver = Callable[[Feedback, Peer, Peer], None]


class EventDrivenSimulator:
    """A minimal discrete-event loop with a virtual clock."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def schedule_at(
        self, time: float, action: Callable[[], None], *, priority: int = 0, label: str = ""
    ) -> None:
        if time < self._now:
            raise ConfigurationError("cannot schedule an event in the past")
        self._queue.push(Event(time=time, priority=priority, action=action, label=label))

    def schedule_in(
        self, delay: float, action: Callable[[], None], *, priority: int = 0, label: str = ""
    ) -> None:
        self.schedule_at(self._now + delay, action, priority=priority, label=label)

    def run(self, until: float | None = None) -> int:
        """Process events until the queue drains or the clock passes ``until``.

        Returns the number of events processed.
        """
        processed = 0
        while self._queue:
            next_time = self._queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
                break
            event = self._queue.pop()
            self._now = event.time
            event.action()
            processed += 1
        if until is not None and until > self._now:
            self._now = until
        return processed

    def restore_clock(self, now: float) -> None:
        """Reset the virtual clock to a checkpointed instant.

        Only legal while the queue is drained — checkpoints are taken at
        round boundaries, so a restored loop never has in-flight events.
        """
        if self._queue:
            raise SimulationError("cannot restore the clock while events are pending")
        self._now = float(now)


@dataclass
class SimulationConfig:
    """Parameters of one interaction-simulation run.

    ``sharing_level`` is the paper's "quantity of shared information" knob
    (σ): the base probability that a generated feedback is disclosed to the
    reputation system.  ``anonymous_feedback`` switches to the
    privacy-preserving reporting mode where the rater identity is withheld.
    """

    rounds: int = 50
    sharing_level: float = 1.0
    anonymous_feedback: bool = False
    neighbor_only: bool = True
    use_reputation_selection: bool = True
    selection_exploration: float = 0.1
    interactions_per_peer: float = 1.0
    traitor_fraction: float = 0.0
    whitewasher_fraction: float = 0.0
    selfish_fraction: float = 0.0
    collusion_fraction: float = 0.0
    churn: ChurnModel = field(default_factory=ChurnModel)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ConfigurationError("rounds must be non-negative")
        require_unit_interval(self.sharing_level, "sharing_level")
        require_unit_interval(self.selection_exploration, "selection_exploration")
        require_unit_interval(self.traitor_fraction, "traitor_fraction")
        require_unit_interval(self.whitewasher_fraction, "whitewasher_fraction")
        require_unit_interval(self.selfish_fraction, "selfish_fraction")
        require_unit_interval(self.collusion_fraction, "collusion_fraction")
        if self.interactions_per_peer < 0:
            raise ConfigurationError("interactions_per_peer must be non-negative")


@dataclass
class SimulationResult:
    """Everything a run produced, for downstream facet evaluation."""

    config: SimulationConfig
    directory: PeerDirectory
    graph: SocialGraph
    transactions: list[Transaction]
    feedbacks: list[Feedback]
    disclosed_feedbacks: list[Feedback]
    metrics: MetricsCollector
    ground_truth_honesty: dict[str, float]

    @property
    def disclosure_rate(self) -> float:
        if not self.feedbacks:
            return 0.0
        return len(self.disclosed_feedbacks) / len(self.feedbacks)


@dataclass(frozen=True)
class DirectoryPlan:
    """A deterministic blueprint of the peer directory.

    Building a :class:`PeerDirectory` draws behaviour assignments from the
    engine's ``"behavior"`` stream; those draws depend only on the graph,
    the seed and the adversary-mix fractions, so scenario runs that share a
    setup (every mechanism column of a robustness row) repeat them
    needlessly.  A plan captures the *decisions* — per user, a zero-argument
    factory for its behaviour — without any mutable state: materializing it
    creates fresh :class:`Peer` and behaviour objects every time, so
    restored directories are exactly what a cold build would produce.

    Skipping the draws is stream-exact: ``"behavior"`` is its own named
    stream, consumed only during directory construction, so every other
    stream's sequence is untouched whether a plan is supplied or not.
    """

    entries: tuple[tuple[str, Callable[[], BehaviorModel]], ...]

    def materialize(self, graph: SocialGraph) -> list[Peer]:
        """Fresh peers (fresh behaviour instances) for the planned graph."""
        user_of = graph.user
        return [
            Peer(user=user_of(user_id), behavior=factory())
            for user_id, factory in self.entries
        ]


def _collusive_factory(ring: frozenset) -> Callable[[], BehaviorModel]:
    return lambda: CollusiveBehavior(ring=set(ring))


def build_directory_plan(
    graph: SocialGraph,
    rng: random.Random,
    *,
    traitor_fraction: float = 0.0,
    whitewasher_fraction: float = 0.0,
    selfish_fraction: float = 0.0,
    collusion_fraction: float = 0.0,
) -> DirectoryPlan:
    """Draw the directory's behaviour decisions into a reusable plan.

    Consumes the rng exactly as the historical directory build did — one
    :func:`behavior_for_user` call per user in graph order, then one
    ``sample`` for the collusion ring — so building a plan and materializing
    it yields the same directory as the old inline construction.
    """
    decisions: list[list[object]] = []
    for user in graph.users():
        behavior = behavior_for_user(
            user,
            rng=rng,
            traitor_fraction=traitor_fraction,
            whitewasher_fraction=whitewasher_fraction,
            selfish_fraction=selfish_fraction,
        )
        # Every assignable behaviour is default-constructible, so the class
        # itself is the factory; the throwaway instance only fixes the draw.
        decisions.append([user.user_id, type(behavior), user.is_honest])
    if collusion_fraction > 0.0:
        dishonest = [decision for decision in decisions if not decision[2]]
        if len(dishonest) >= 2:
            ring_size = max(2, int(round(collusion_fraction * len(dishonest))))
            ring_members = rng.sample(dishonest, min(ring_size, len(dishonest)))
            ring_ids = {member[0] for member in ring_members}
            for member in ring_members:
                member[1] = _collusive_factory(frozenset(ring_ids - {member[0]}))
    return DirectoryPlan(
        entries=tuple((user_id, factory) for user_id, factory, _ in decisions)
    )


class InteractionSimulator:
    """Round-based peer-to-peer interaction simulation over a social graph."""

    def __init__(
        self,
        graph: SocialGraph,
        config: SimulationConfig | None = None,
        *,
        reputation: ReputationProtocol | None = None,
        disclosure_observer: DisclosureObserver | None = None,
        hooks: Sequence[RoundHook] = (),
        directory_plan: DirectoryPlan | None = None,
    ) -> None:
        if len(graph) < 2:
            raise ConfigurationError("the simulation needs at least two peers")
        self.graph = graph
        self.config = config or SimulationConfig()
        self.reputation = reputation
        self._disclosure_observer = disclosure_observer
        self._hooks: tuple = tuple(hooks)
        self._streams = RandomStreams(self.config.seed)
        #: Hot-loop stream handles; hoisted so per-transaction code skips the
        #: per-call name lookup.  Streams are independent per name, so eager
        #: creation never changes any sequence.
        self._rng_selection = self._streams.stream("selection")
        self._rng_transactions = self._streams.stream("transactions")
        self._rng_feedback = self._streams.stream("feedback")
        self._directory_plan = directory_plan
        self.directory = self._build_directory()
        self.metrics = MetricsCollector()
        self._transactions: list[Transaction] = []
        self._feedbacks: list[Feedback] = []
        self._disclosed: list[Feedback] = []
        self._transaction_counter = 0
        self._engine = EventDrivenSimulator()
        #: First round the next :meth:`run_until` segment will execute.
        self._next_round = 0
        # Stateful churn models (PhasedChurnModel) rewind here so a config
        # or campaign reused across simulators starts every run at round 0.
        self.config.churn.reset()
        #: Reputation snapshot taken once per round; selection and
        #: whitewashing decisions read from it instead of querying the
        #: mechanism per transaction (peers act on the scores published at
        #: the start of the round, and recomputation happens once per round).
        self._round_scores: dict[str, float] = {}
        #: Disclosure probabilities are static within a round (behaviour
        #: switches happen at round boundaries), so they are computed once
        #: per consumer per round; cleared by :meth:`_begin_round_caches`.
        #: Candidates and score vectors are hoisted per consumer directly in
        #: the round loop — each consumer is visited exactly once per round.
        self._disclosure_cache: dict[str, float] = {}
        #: Whole-run neighbour→Peer resolution (see :meth:`_neighbor_peers`).
        self._neighbor_peers_cache: dict[str, list[Peer]] = {}

    @property
    def streams(self) -> RandomStreams:
        """The run's named random streams (hooks draw from their own stream)."""
        return self._streams

    # -- setup -------------------------------------------------------------

    def _build_directory(self) -> PeerDirectory:
        plan = self._directory_plan
        if plan is None:
            plan = build_directory_plan(
                self.graph,
                self._streams.stream("behavior"),
                traitor_fraction=self.config.traitor_fraction,
                whitewasher_fraction=self.config.whitewasher_fraction,
                selfish_fraction=self.config.selfish_fraction,
                collusion_fraction=self.config.collusion_fraction,
            )
        return PeerDirectory(plan.materialize(self.graph))

    # -- provider selection --------------------------------------------------

    def _neighbor_peers(self, consumer: Peer) -> list[Peer]:
        """The consumer's neighbours as :class:`Peer` objects, cached for the
        whole run: the graph is immutable during a simulation and the
        directory never replaces peer objects (whitewashing rebinds
        identities on the same object), so the id→peer resolution per
        neighbour per round was pure overhead."""
        cached = self._neighbor_peers_cache.get(consumer.base_id)
        if cached is None:
            get = self.directory.get
            cached = [get(nid) for nid in self.graph.neighbors(consumer.base_id)]
            self._neighbor_peers_cache[consumer.base_id] = cached
        return cached

    def _candidates(self, consumer: Peer) -> list[Peer]:
        if self.config.neighbor_only:
            # Self-edges cannot exist in the graph, so no self-filter needed.
            return [peer for peer in self._neighbor_peers(consumer) if peer.online]
        return [
            peer
            for peer in self.directory.peers()
            if peer.online and peer.base_id != consumer.base_id
        ]

    def _begin_round_caches(self) -> None:
        self._disclosure_cache.clear()

    def _candidate_scores(self, consumer: Peer, candidates: list[Peer]) -> list[float] | None:
        """Round-start scores of a consumer's candidates, in candidate order.

        ``None`` when selection does not use reputation.  Kept as a plain
        list: candidate sets are small (a peer's neighbourhood), where the
        pure-Python argmax scan beats the fixed dispatch cost of any array
        kernel.
        """
        if self.reputation is None or not self.config.use_reputation_selection:
            return None
        default = getattr(self.reputation, "default_score", 0.5)
        lookup = self._round_scores.get
        return [lookup(peer.peer_id, default) for peer in candidates]

    def _select_from(self, candidates: list[Peer], scores: list[float] | None) -> Peer:
        """Pick a provider among the candidates given their score vector.

        Consumes the "selection" stream exactly as the historical
        per-transaction code did: one exploration uniform (only when
        reputation-guided selection is active), then either a ``choice`` or
        one tie-break uniform per candidate.  The scan below is the tuple
        comparison ``(score, tiebreak) > best`` unrolled; draws happen in
        candidate order, exactly like the historical batched vector.
        """
        rng = self._rng_selection
        if scores is None or rng.random() < self.config.selection_exploration:
            return rng.choice(candidates)
        draw = rng.random
        best_index = 0
        best_score = scores[0]
        best_tiebreak = draw()
        for position in range(1, len(candidates)):
            tiebreak = draw()
            score = scores[position]
            if score > best_score or (score == best_score and tiebreak > best_tiebreak):
                best_score = score
                best_tiebreak = tiebreak
                best_index = position
        return candidates[best_index]

    def _select_provider(self, consumer: Peer, candidates: list[Peer]) -> Peer:
        return self._select_from(candidates, self._candidate_scores(consumer, candidates))

    # -- one round -----------------------------------------------------------

    def _execute_transaction(self, consumer: Peer, provider: Peer, round_index: int) -> None:
        rng = self._rng_transactions
        self._transaction_counter += 1

        if not provider.behavior.provides_service(provider.user, rng):
            quality = 0.0
        else:
            quality = provider.behavior.serve_quality(provider.user, rng)
        outcome = TransactionOutcome.SUCCESS if quality >= 0.5 else TransactionOutcome.FAILURE
        transaction = Transaction(
            transaction_id=self._transaction_counter,
            time=round_index,
            consumer=consumer.peer_id,
            provider=provider.peer_id,
            outcome=outcome,
            quality=quality,
        )
        provider.served_count += 1
        consumer.record_received(transaction.succeeded)
        self._transactions.append(transaction)
        self.metrics.record_transaction(transaction, provider.user.is_honest)

        self._generate_feedback(consumer, provider, transaction, round_index)

    def _generate_feedback(
        self, consumer: Peer, provider: Peer, transaction: Transaction, round_index: int
    ) -> None:
        rng = self._rng_feedback
        rating, truthful = consumer.behavior.rate_transaction(consumer.user, transaction, rng)
        rater = None if self.config.anonymous_feedback else consumer.peer_id
        feedback = Feedback(
            transaction_id=transaction.transaction_id,
            time=round_index,
            subject=provider.peer_id,
            rating=rating,
            rater=rater,
            truthful=truthful,
        )
        self._feedbacks.append(feedback)

        disclose_probability = self._disclosure_cache.get(consumer.base_id)
        if disclose_probability is None:
            disclose_probability = consumer.behavior.disclosure_probability(
                consumer.user, self.config.sharing_level
            )
            self._disclosure_cache[consumer.base_id] = disclose_probability
        disclosed = rng.random() < disclose_probability
        self.metrics.record_feedback(feedback, disclosed)
        if not disclosed:
            return
        self._disclosed.append(feedback)
        if self.reputation is not None:
            self.reputation.record_feedback(feedback)
        if self._disclosure_observer is not None:
            self._disclosure_observer(feedback, consumer, provider)

    def _apply_whitewashing(self) -> None:
        if self.reputation is None:
            return
        default = getattr(self.reputation, "default_score", 0.5)
        for peer in self.directory.peers():
            behavior = peer.behavior
            if not isinstance(behavior, WhitewasherBehavior):
                continue
            current_score = self._round_scores.get(peer.peer_id, default)
            if behavior.should_whitewash(current_score):
                old_id = peer.peer_id
                peer.new_identity()
                behavior.note_whitewash()
                self.directory.rebind_identity(peer, old_id)

    def _interaction_counts(self, online: list[Peer], draws: list[float]) -> list[int]:
        """Per-consumer interaction counts from the batched activity draws."""
        if not online:
            return []
        activities = [peer.user.activity for peer in online]
        return interaction_counts(activities, self.config.interactions_per_peer, draws).tolist()

    def _refresh_round_scores(self) -> None:
        """Snapshot the mechanism's published scores for the running round.

        ``refresh()`` returns a fresh dict every call, so the snapshot is
        taken by reference — no extra copy per round.  Wall time spent here
        is attributed to the ``refresh`` profiling phase when profiling is
        active.
        """
        reputation = self.reputation
        if reputation is None:
            return
        timer = _profiling.active()
        started = _profiling.clock() if timer is not None else 0.0
        if hasattr(reputation, "refresh"):
            self._round_scores = reputation.refresh()
        elif hasattr(reputation, "scores"):
            self._round_scores = dict(reputation.scores())
        if timer is not None:
            timer.add("refresh", _profiling.clock() - started)

    def _run_round(self, round_index: int) -> None:
        churn_rng = self._streams.stream("churn")
        self.config.churn.step(self.directory, churn_rng)

        # Hooks run after natural churn so scheduled campaigns can override
        # it (pin a peer offline, force a rejoin) for the round about to run.
        for hook in self._hooks:
            hook.on_round_start(self, round_index)

        online = self.directory.online_peers()
        self.metrics.start_round(round_index, online_peers=len(online))

        self._refresh_round_scores()

        self._begin_round_caches()

        # The whole round's activity draws come out of the stream as one
        # vector (same draws, same order as the historical per-peer calls).
        draws = self._streams.uniforms("activity", len(online))
        counts = self._interaction_counts(online, draws)

        for consumer, n_interactions in zip(online, counts, strict=True):
            if not n_interactions:
                continue
            candidates = self._candidates(consumer)
            if not candidates:
                continue
            scores = self._candidate_scores(consumer, candidates)
            for _ in range(n_interactions):
                provider = self._select_from(candidates, scores)
                self._execute_transaction(consumer, provider, round_index)

        if self.reputation is not None and hasattr(self.reputation, "refresh"):
            self._refresh_round_scores()
        self._apply_whitewashing()
        self.metrics.end_round()
        # Hooks receive the snapshot by reference (it is reassigned, never
        # mutated, between rounds); they must treat it as read-only.
        round_scores = self._round_scores
        for hook in self._hooks:
            hook.on_round_end(self, round_index, round_scores)

    # -- public API ------------------------------------------------------------

    @property
    def completed_rounds(self) -> int:
        """Rounds executed so far (the next segment starts here)."""
        return self._next_round

    def run_until(self, round_limit: int) -> int:
        """Execute rounds up to ``round_limit`` (clamped to the configured
        total) and return the number of rounds completed so far.

        Segmenting a run over several ``run_until`` calls schedules and
        drains exactly the events a single :meth:`run` would, on the same
        virtual clock — so the trajectory, and any checkpoint taken between
        segments, is byte-identical to an uninterrupted run.
        """
        limit = min(round_limit, self.config.rounds)
        for round_index in range(self._next_round, limit):
            self._engine.schedule_at(
                float(round_index),
                lambda idx=round_index: self._run_round(idx),
                label=f"round-{round_index}",
            )
        if limit > self._next_round:
            self._next_round = limit
        self._engine.run()
        return self._next_round

    def result(self) -> SimulationResult:
        """The collected result of the rounds executed so far."""
        ground_truth = {peer.base_id: peer.user.honesty for peer in self.directory.peers()}
        return SimulationResult(
            config=self.config,
            directory=self.directory,
            graph=self.graph,
            transactions=list(self._transactions),
            feedbacks=list(self._feedbacks),
            disclosed_feedbacks=list(self._disclosed),
            metrics=self.metrics,
            ground_truth_honesty=ground_truth,
        )

    def run(self) -> SimulationResult:
        """Run every configured round and return the collected result."""
        self.run_until(self.config.rounds)
        return self.result()
