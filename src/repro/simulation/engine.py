"""The simulation engine: :class:`InteractionSimulator`, the round-based
peer-to-peer interaction simulation used throughout the experiments.

Rounds run in a plain loop.  Each round, every online peer may initiate a
transaction with a provider chosen either at random among its candidates or
through the reputation system's response policy; the provider serves well or
badly according to its behaviour model; the consumer produces (possibly
dishonest) feedback and discloses it to the reputation system with a
probability driven by the system-wide *information-sharing level* and the
peer's own privacy concern.
Disclosed feedback is what the reputation mechanism sees and what the privacy
ledger accounts for — this is the concrete coupling knob between the paper's
reputation and privacy facets.

The run keeps its transactions as columns (:class:`TransactionLog`), one row
per transaction.  The mechanism receives each round's disclosed rows as one
:class:`~repro.simulation.transaction.FeedbackBatch` before the round-end
refresh; a :class:`~repro.simulation.transaction.Feedback` object is built
only for the disclosure observer, and :class:`SimulationResult` builds its
object lists on first read.

A paused simulator pickles itself: its ``__dict__`` is the checkpoint
payload, minus the configuration the resuming caller supplies again
(:meth:`InteractionSimulator.reattach`) and caches that refill with the same
values.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from functools import cached_property
from itertools import compress
from typing import Protocol

from repro import _profiling
from repro._util import require_unit_interval
from repro.core.backend import interaction_counts
from repro.errors import CheckpointError, ConfigurationError
from repro.simulation.adversary import (
    CollusiveBehavior,
    WhitewasherBehavior,
    behavior_for_user,
)
from repro.simulation.churn import ChurnModel
from repro.simulation.metrics import MetricsCollector
from repro.simulation.peer import Peer, PeerDirectory
from repro.simulation.rng import RandomStreams
from repro.simulation.transaction import (
    Feedback,
    FeedbackBatch,
    Transaction,
    TransactionOutcome,
)
from repro.socialnet.graph import SocialGraph


class ReputationProtocol(Protocol):
    """What the simulator needs from a reputation mechanism.

    Each round's disclosed reports reach ``record_batch`` as one batch
    before the round ends.  With a disclosure observer, each report goes
    over alone before the observer receives it, so an observer that reads
    the mechanism sees every report disclosed so far.
    Selection reads the scores published at the start of the round: those
    of ``refresh()`` when the mechanism has one (every
    :class:`~repro.reputation.base.ReputationSystem` does), else of
    ``scores()``.
    """

    def record_batch(self, batch: FeedbackBatch) -> None:
        """Ingest disclosed feedback reports, in row order."""

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

    Hooks are configuration, so a pickled simulator leaves them out.  A hook
    with a cursor to keep across a checkpoint implements
    ``checkpoint_state() -> state`` and
    ``restore_checkpoint_state(state, simulator)``; the resuming caller
    rebuilds the hook and :meth:`InteractionSimulator.reattach` hands the
    cursor back.
    """

    def on_round_start(self, simulator: InteractionSimulator, round_index: int) -> None:
        """Called before the round's transactions (after natural churn)."""

    def on_round_end(
        self, simulator: InteractionSimulator, round_index: int, scores: dict[str, float]
    ) -> None:
        """Called after the round completed, with the published scores."""


#: Callback invoked for every feedback actually disclosed to the system.
DisclosureObserver = Callable[[Feedback, Peer, Peer], None]


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


class TransactionLog:
    """A run's transactions as columns, one row per transaction.

    Row ``i`` holds the transaction with id ``i + 1``: its round, the
    consumer's and the provider's identities when it ran, the delivered
    quality (a success from 0.5 up), the consumer's rating, whether that
    rating was truthful and whether the consumer disclosed it.  Numbers and
    flags are ``array`` columns; identities are lists of id strings.
    """

    def __init__(self) -> None:
        self.rounds = array("l")
        self.consumers: list[str] = []
        self.providers: list[str] = []
        self.qualities = array("d")
        self.ratings = array("d")
        self.truthful = array("b")
        self.disclosed = array("b")

    def __len__(self) -> int:
        return len(self.rounds)

    def copy(self) -> TransactionLog:
        clone = TransactionLog()
        clone.__dict__.update({name: column[:] for name, column in vars(self).items()})
        return clone

    def transaction(self, row: int) -> Transaction:
        quality = self.qualities[row]
        return Transaction(
            transaction_id=row + 1,
            time=self.rounds[row],
            consumer=self.consumers[row],
            provider=self.providers[row],
            outcome=TransactionOutcome.SUCCESS if quality >= 0.5 else TransactionOutcome.FAILURE,
            quality=quality,
        )

    def feedback(self, row: int, *, anonymous: bool) -> Feedback:
        return Feedback(
            transaction_id=row + 1,
            time=self.rounds[row],
            subject=self.providers[row],
            rating=self.ratings[row],
            rater=None if anonymous else self.consumers[row],
            truthful=bool(self.truthful[row]),
        )

    def batch(self, start: int, end: int, *, anonymous: bool) -> FeedbackBatch:
        """The disclosed reports of rows ``start`` to ``end``, as
        :meth:`feedback` gives them, in one batch."""
        disclosed = self.disclosed[start:end]

        def held(column: Sequence[object]) -> list:
            return list(compress(column[start:end], disclosed))

        subjects = held(self.providers)
        return FeedbackBatch(
            transaction_ids=list(compress(range(start + 1, end + 1), disclosed)),
            times=held(self.rounds),
            subjects=subjects,
            ratings=held(self.ratings),
            raters=[None] * len(subjects) if anonymous else held(self.consumers),
            truthful=held(self.truthful),
        )


@dataclass
class SimulationResult:
    """Everything a run produced, for downstream facet evaluation.

    ``log`` is a copy of the run's columns, taken by
    :meth:`InteractionSimulator.result`.  ``transactions``, ``feedbacks`` and
    ``disclosed_feedbacks`` are built from it on first read, in transaction
    order, so a caller that never reads them never pays for the objects.
    """

    config: SimulationConfig
    directory: PeerDirectory
    graph: SocialGraph
    log: TransactionLog
    metrics: MetricsCollector
    ground_truth_honesty: dict[str, float]

    @cached_property
    def transactions(self) -> list[Transaction]:
        return [self.log.transaction(row) for row in range(len(self.log))]

    @cached_property
    def feedbacks(self) -> list[Feedback]:
        anonymous = self.config.anonymous_feedback
        return [self.log.feedback(row, anonymous=anonymous) for row in range(len(self.log))]

    @cached_property
    def disclosed_feedbacks(self) -> list[Feedback]:
        anonymous = self.config.anonymous_feedback
        return [
            self.log.feedback(row, anonymous=anonymous)
            for row, disclosed in enumerate(self.log.disclosed)
            if disclosed
        ]

    @property
    def disclosure_rate(self) -> float:
        disclosed = self.log.disclosed
        if not disclosed:
            return 0.0
        return disclosed.count(1) / len(disclosed)


#: Attributes a pickled simulator leaves out: configuration the resuming
#: caller passes again (:meth:`InteractionSimulator.reattach`), caches
#: that refill with the same values and the hand-over mark, which is the
#: log's length between rounds.
_NOT_PICKLED = frozenset(
    {"_hooks", "_disclosure_observer", "_neighbor_peers_cache", "_handed_over"}
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
    ) -> None:
        if len(graph) < 2:
            raise ConfigurationError("the simulation needs at least two peers")
        self.graph = graph
        self.config = config or SimulationConfig()
        self.reputation = reputation
        self._disclosure_observer = disclosure_observer
        self._hooks: tuple[RoundHook, ...] = tuple(hooks)
        #: The hooks' checkpointed cursors, held by an unpickled simulator
        #: until :meth:`reattach` hands them back; ``None`` otherwise.
        self._hook_states: list[object] | None = None
        self._streams = RandomStreams(self.config.seed)
        #: Hot-loop stream handles; hoisted so per-transaction code skips the
        #: per-call name lookup.  Streams are independent per name, so eager
        #: creation never changes any sequence.
        self._rng_selection = self._streams.stream("selection")
        self._rng_transactions = self._streams.stream("transactions")
        self._rng_feedback = self._streams.stream("feedback")
        self.directory = self._build_directory()
        self.metrics = MetricsCollector()
        self._log = TransactionLog()
        #: Log rows whose disclosed reports the mechanism has received; the
        #: rows past it are held for the next :meth:`_hand_over`.
        self._handed_over = 0
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
        #: Whole-run neighbour→Peer resolution (see :meth:`_neighbor_peers`).
        self._neighbor_peers_cache: dict[str, list[Peer]] = {}

    @property
    def streams(self) -> RandomStreams:
        """The run's named random streams (hooks draw from their own stream)."""
        return self._streams

    # -- checkpointing -------------------------------------------------------

    def __getstate__(self) -> dict[str, object]:
        """Everything but :data:`_NOT_PICKLED`, plus each hook's cursor.

        The pickle memo keeps the hoisted stream handles the very objects
        inside ``_streams``, so a restored run continues every stream
        mid-sequence.
        """
        state = {name: value for name, value in self.__dict__.items() if name not in _NOT_PICKLED}
        state["_hook_states"] = [
            getattr(hook, "checkpoint_state", lambda: None)() for hook in self._hooks
        ]
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        if "_log" not in state:
            # Checkpoints written while the log was three object lists
            # carry _transactions instead; refuse them here, not mid-run.
            raise CheckpointError("checkpoint predates the columnar transaction log")
        # The churn cursor lives inside config.churn and was pickled in
        # place, so unlike __init__ this must not reset it.
        self.__dict__.update(state)
        self._hooks = ()
        self._disclosure_observer = None
        self._neighbor_peers_cache = {}
        self._handed_over = len(self._log)

    def reattach(
        self,
        hooks: Sequence[RoundHook] = (),
        *,
        disclosure_observer: DisclosureObserver | None = None,
    ) -> None:
        """Hand an unpickled simulator its configuration back, ready to run.

        ``hooks`` must mirror the checkpointed run's hooks positionally: each
        is rehydrated from its checkpointed cursor via its
        ``restore_checkpoint_state``.  The caller rebuilds the hook objects
        themselves (they are configuration, not state).
        """
        hook_states = self._hook_states
        if hook_states is None:
            raise CheckpointError("only an unpickled simulator can be reattached")
        if len(hooks) != len(hook_states):
            raise CheckpointError(
                f"checkpoint carries state for {len(hook_states)} hooks, "
                f"but {len(hooks)} were supplied"
            )
        self._hooks = tuple(hooks)
        self._disclosure_observer = disclosure_observer
        for hook, hook_state in zip(hooks, hook_states, strict=True):
            if hook_state is None:
                continue
            restore = getattr(hook, "restore_checkpoint_state", None)
            if restore is None:
                raise CheckpointError(
                    f"checkpoint carries state for hook {type(hook).__name__}, "
                    "which does not implement restore_checkpoint_state"
                )
            restore(hook_state, self)
        self._hook_states = None

    # -- setup -------------------------------------------------------------

    def _build_directory(self) -> PeerDirectory:
        """Fresh peers with behaviours drawn from the ``"behavior"`` stream:
        one :func:`behavior_for_user` draw per user in graph order, then one
        ``sample`` of the dishonest peers for the collusion ring."""
        config = self.config
        rng = self._streams.stream("behavior")
        peers = [
            Peer(
                user=user,
                behavior=behavior_for_user(
                    user,
                    rng=rng,
                    traitor_fraction=config.traitor_fraction,
                    whitewasher_fraction=config.whitewasher_fraction,
                    selfish_fraction=config.selfish_fraction,
                ),
            )
            for user in self.graph.users()
        ]
        if config.collusion_fraction > 0.0:
            dishonest = [peer for peer in peers if not peer.user.is_honest]
            if len(dishonest) >= 2:
                ring_size = max(2, int(round(config.collusion_fraction * len(dishonest))))
                ring = rng.sample(dishonest, min(ring_size, len(dishonest)))
                ring_ids = {peer.base_id for peer in ring}
                for peer in ring:
                    peer.behavior = CollusiveBehavior(ring=ring_ids - {peer.base_id})
        return PeerDirectory(peers)

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

    # -- one round -----------------------------------------------------------

    def _transaction_step(self, round_index: int) -> Callable[[Peer, Peer], None]:
        """The round's per-transaction step: serve, rate, disclose, and append
        one row to the log.

        Values that hold for the whole round are read here, once.  Each
        step draws the provider's ``provides_service`` and ``serve_quality``
        from the "transactions" stream, then the consumer's
        ``rate_transaction`` and one disclosure uniform from the "feedback"
        stream.  A disclosed report stays a row of the log until
        :meth:`_hand_over`; it becomes a :class:`Feedback` only for the
        disclosure observer, which may read the mechanism, so with an
        observer each disclosed report goes to the mechanism before the
        observer call that receives it.
        """
        log = self._log
        append_round = log.rounds.append
        append_consumer = log.consumers.append
        append_provider = log.providers.append
        append_quality = log.qualities.append
        append_rating = log.ratings.append
        append_truthful = log.truthful.append
        append_disclosed = log.disclosed.append
        record_transaction = self.metrics.record_transaction
        record_feedback = self.metrics.record_feedback
        service_rng = self._rng_transactions
        feedback_rng = self._rng_feedback
        disclosure_draw = feedback_rng.random
        sharing_level = self.config.sharing_level
        anonymous = self.config.anonymous_feedback
        observer = self._disclosure_observer
        ingest = None if self.reputation is None else self.reputation.record_batch

        def step(consumer: Peer, provider: Peer) -> None:
            service = provider.behavior
            provider_user = provider.user
            if service.provides_service(provider_user, service_rng):
                quality = service.serve_quality(provider_user, service_rng)
            else:
                quality = 0.0
            succeeded = quality >= 0.5
            provider.served_count += 1
            consumer.record_received(succeeded)
            record_transaction(succeeded, provider_user.is_honest)

            rater = consumer.behavior
            consumer_user = consumer.user
            provider_id = provider.peer_id
            rating, truthful = rater.rate_transaction(
                consumer_user, provider_id, succeeded, feedback_rng
            )
            disclose_probability = rater.disclosure_probability(consumer_user, sharing_level)
            disclosed = disclosure_draw() < disclose_probability
            record_feedback(truthful, disclosed)

            append_round(round_index)
            append_consumer(consumer.peer_id)
            append_provider(provider_id)
            append_quality(quality)
            append_rating(rating)
            append_truthful(truthful)
            append_disclosed(disclosed)
            if disclosed and observer is not None:
                # Every earlier disclosed row went over at its own observer
                # call, so this report is the only one held: it goes over
                # alone, built from the observer's Feedback, not gathered.
                held = len(log.rounds)
                feedback = log.feedback(held - 1, anonymous=anonymous)
                self._handed_over = held
                if ingest is not None:
                    ingest(
                        FeedbackBatch(
                            [feedback.transaction_id],
                            [feedback.time],
                            [feedback.subject],
                            [feedback.rating],
                            [feedback.rater],
                            [feedback.truthful],
                        )
                    )
                observer(feedback, consumer, provider)

        return step

    def _hand_over(self) -> None:
        """Hand the disclosed reports of the log rows held since the last
        hand-over to the mechanism, as one batch in row order."""
        start = self._handed_over
        end = self._handed_over = len(self._log)
        if self.reputation is not None and 1 in self._log.disclosed[start:end]:
            self.reputation.record_batch(
                self._log.batch(start, end, anonymous=self.config.anonymous_feedback)
            )

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

        # The whole round's activity draws come out of the stream as one
        # vector (same draws, same order as the historical per-peer calls).
        draws = self._streams.uniforms("activity", len(online))
        counts = self._interaction_counts(online, draws)

        step = self._transaction_step(round_index)
        for consumer, n_interactions in zip(online, counts, strict=True):
            if not n_interactions:
                continue
            candidates = self._candidates(consumer)
            if not candidates:
                continue
            scores = self._candidate_scores(consumer, candidates)
            for _ in range(n_interactions):
                step(consumer, self._select_from(candidates, scores))

        self._hand_over()
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

        Segmenting a run over several ``run_until`` calls runs exactly the
        rounds a single :meth:`run` would, so the trajectory, and any
        checkpoint taken between segments, is byte-identical to an
        uninterrupted run.
        """
        if self._hook_states is not None:
            raise CheckpointError("an unpickled simulator must be reattached before it runs")
        for round_index in range(self._next_round, min(round_limit, self.config.rounds)):
            self._run_round(round_index)
            self._next_round = round_index + 1
        return self._next_round

    def result(self) -> SimulationResult:
        """The collected result of the rounds executed so far.

        It holds a copy of the log, so rounds run later leave it unchanged.
        """
        ground_truth = {peer.base_id: peer.user.honesty for peer in self.directory.peers()}
        return SimulationResult(
            config=self.config,
            directory=self.directory,
            graph=self.graph,
            log=self._log.copy(),
            metrics=self.metrics,
            ground_truth_honesty=ground_truth,
        )

    def run(self) -> SimulationResult:
        """Run every configured round and return the collected result."""
        self.run_until(self.config.rounds)
        return self.result()
