"""The end-to-end scenario: every substrate wired together.

A scenario builds a synthetic social network, deploys a reputation mechanism
and a PriServ-style privacy layer, runs the interaction simulation, feeds the
satisfaction tracker from the interaction outcomes, accounts for every
disclosed feedback in the privacy ledger, and finally evaluates the
three-facet trust model on the measured state.  It is the measurement
instrument behind Figures 1 and 2 when the analytic model is replaced by real
simulation, and the workhorse of the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import _profiling
from repro._util import clamp
from repro.core.config import SystemSettings
from repro.core.facets import (
    FacetScores,
    privacy_facet,
    reputation_facet,
    satisfaction_facet,
)
from repro.core.metric import Aggregator
from repro.core.trust_model import TrustModel, TrustReport
from repro.errors import ConfigurationError
from repro.privacy.disclosure import DisclosureLedger, DisclosureRecord
from repro.privacy.metrics import (
    exposure_level,
    policy_respect_rate,
    privacy_satisfaction,
)
from repro.privacy.policy import permissive_policy, restrictive_policy
from repro.privacy.priserv import PriServService
from repro.privacy.purposes import Operation, Purpose
from repro.reputation.accuracy import mean_absolute_error, pairwise_ranking_accuracy
from repro.reputation.base import ReputationSystem
from repro.scenarios.runner import reputation_for_graph
from repro.satisfaction.adequacy import interaction_adequacy
from repro.satisfaction.aggregate import local_satisfaction
from repro.satisfaction.tracker import SatisfactionTracker
from repro.simulation.churn import ChurnModel
from repro.simulation.engine import (
    InteractionSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.simulation.peer import Peer
from repro.simulation.transaction import Feedback
from repro.socialnet.generators import SocialNetworkSpec, cached_social_network
from repro.socialnet.graph import SocialGraph


@dataclass
class ScenarioConfig:
    """Everything needed to run one end-to-end scenario."""

    n_users: int = 60
    rounds: int = 30
    seed: int = 0
    topology: str = "barabasi_albert"
    malicious_fraction: float = 0.2
    traitor_fraction: float = 0.0
    whitewasher_fraction: float = 0.0
    selfish_fraction: float = 0.0
    collusion_fraction: float = 0.0
    churn_leave_probability: float = 0.0
    settings: SystemSettings = field(default_factory=SystemSettings)
    aggregator: Aggregator = Aggregator.GEOMETRIC
    interactions_per_peer: float = 1.0
    #: Sensitivity attributed to one disclosed feedback report (behavioural
    #: data about both the rater and the subject).
    feedback_sensitivity: float = 0.15
    #: Reference exposure used to normalize ledger exposure into [0, 1].
    reference_exposure: float = 20.0

    def __post_init__(self) -> None:
        if self.n_users < 2:
            raise ConfigurationError("n_users must be at least 2")
        if self.rounds < 1:
            raise ConfigurationError("rounds must be at least 1")


@dataclass
class ScenarioResult:
    """Everything a scenario run produced."""

    config: ScenarioConfig
    graph: SocialGraph
    simulation: SimulationResult
    reputation_system: ReputationSystem | None
    reputation_scores: dict[str, float]
    ledger: DisclosureLedger
    priserv: PriServService
    tracker: SatisfactionTracker
    facets: FacetScores
    per_user_facets: dict[str, FacetScores]
    trust: TrustReport
    reputation_accuracy: float
    reputation_error: float

    @property
    def malicious_interaction_rate(self) -> float:
        return self.simulation.metrics.tail_malicious_rate()

    @property
    def global_satisfaction(self) -> float:
        return self.facets.satisfaction


class Scenario:
    """Build, run and evaluate one end-to-end scenario."""

    def __init__(self, config: ScenarioConfig | None = None) -> None:
        self.config = config or ScenarioConfig()

    # -- construction helpers -------------------------------------------------

    def _build_graph(self) -> SocialGraph:
        # Shared read-only instance: scenario pipelines never mutate the
        # graph, so contrast pairs and sweep tasks with the same population
        # spec reuse one generated network.
        spec = SocialNetworkSpec(
            n_users=self.config.n_users,
            topology=self.config.topology,
            malicious_fraction=self.config.malicious_fraction,
            seed=self.config.seed,
        )
        return cached_social_network(spec)

    def _build_reputation(self, graph: SocialGraph) -> ReputationSystem | None:
        return reputation_for_graph(
            graph,
            self.config.settings.reputation_mechanism,
            seed=self.config.seed,
            anonymous=self.config.settings.anonymous_feedback,
        )

    def _build_priserv(
        self, graph: SocialGraph, reputation: ReputationSystem | None
    ) -> PriServService:
        def trust_oracle(peer_id: str) -> float:
            if reputation is None:
                return 0.5
            return reputation.score(peer_id)

        def friendship(requester: str, owner: str) -> bool:
            return requester in graph and owner in graph and graph.are_connected(requester, owner)

        service = PriServService(
            peer_ids=graph.user_ids(),
            trust_oracle=trust_oracle,
            friendship_oracle=friendship,
        )
        strictness = self.config.settings.policy_strictness
        for user in graph.users():
            # The population splits between permissive and restrictive
            # policies according to the configured strictness and each user's
            # own privacy concern.
            wants_restrictive = 0.5 * strictness + 0.5 * user.privacy_concern >= 0.5
            policy = (
                restrictive_policy(user.user_id)
                if wants_restrictive
                else permissive_policy(user.user_id)
            )
            service.register_policy(policy)
            for attribute in user.profile:
                service.publish(
                    user.user_id,
                    f"{user.user_id}/{attribute.name}",
                    attribute.value,
                    sensitivity=attribute.sensitivity.exposure_weight,
                )
        return service

    # -- run -------------------------------------------------------------------

    def run(self) -> ScenarioResult:
        config = self.config
        with _profiling.phase("setup"):
            graph = self._build_graph()
            reputation = self._build_reputation(graph)
            priserv = self._build_priserv(graph, reputation)
        ledger = priserv.ledger
        tracker = SatisfactionTracker()

        def on_disclosure(feedback: Feedback, consumer: Peer, provider: Peer) -> None:
            # Disclosing a feedback report reveals behavioural information
            # about the rater (its consumption pattern) and the subject; both
            # entries land in the ledger so exposure reflects what the
            # reputation mechanism actually learned.
            recipient = "reputation-service"
            ledger.record(
                DisclosureRecord(
                    time=feedback.time,
                    owner=consumer.base_id,
                    recipient=recipient,
                    data_id=f"feedback/{feedback.transaction_id}/rater",
                    sensitivity=config.feedback_sensitivity,
                    purpose=Purpose.REPUTATION_COMPUTATION,
                    operation=Operation.AGGREGATE,
                    policy_compliant=True,
                )
            )
            ledger.record(
                DisclosureRecord(
                    time=feedback.time,
                    owner=provider.base_id,
                    recipient=recipient,
                    data_id=f"feedback/{feedback.transaction_id}/subject",
                    sensitivity=config.feedback_sensitivity,
                    purpose=Purpose.REPUTATION_COMPUTATION,
                    operation=Operation.AGGREGATE,
                    policy_compliant=True,
                )
            )

        sim_config = SimulationConfig(
            rounds=config.rounds,
            sharing_level=config.settings.sharing_level,
            anonymous_feedback=config.settings.anonymous_feedback,
            traitor_fraction=config.traitor_fraction,
            whitewasher_fraction=config.whitewasher_fraction,
            selfish_fraction=config.selfish_fraction,
            collusion_fraction=config.collusion_fraction,
            churn=ChurnModel(leave_probability=config.churn_leave_probability),
            interactions_per_peer=config.interactions_per_peer,
            seed=config.seed,
        )
        simulator = InteractionSimulator(
            graph,
            sim_config,
            reputation=reputation,
            disclosure_observer=on_disclosure,
        )
        with _profiling.phase("simulate"):
            simulation = simulator.run()
        with _profiling.phase("metrics"):
            priserv.tick(config.rounds)

            # Satisfaction: each consumer's adequacy per transaction blends
            # its evolving preference for the partner with the delivered
            # quality.
            preferences: dict[str, dict[str, float]] = {}
            for transaction in simulation.transactions:
                consumer = simulator.directory.get(transaction.consumer)
                provider = simulator.directory.get(transaction.provider)
                consumer_prefs = preferences.setdefault(consumer.base_id, {})
                previous = consumer_prefs.get(provider.base_id, 0.5)
                adequacy = interaction_adequacy(previous, transaction.quality)
                tracker.observe(consumer.base_id, adequacy)
                consumer_prefs[provider.base_id] = clamp(
                    0.7 * previous + 0.3 * transaction.quality
                )

            reputation_scores = reputation.scores() if reputation is not None else {}
            ground_truth = simulation.ground_truth_honesty

            facets = self._global_facets(
                simulation, reputation, reputation_scores, ledger, tracker
            )
            per_user_facets = self._per_user_facets(
                graph, simulation, reputation, reputation_scores, ledger, tracker
            )

            model = TrustModel(config.settings, aggregator=config.aggregator)
            trust = model.evaluate(
                facets,
                per_user_facets=per_user_facets,
                trustworthy_fraction=graph.honest_fraction(),
            )

        return ScenarioResult(
            config=config,
            graph=graph,
            simulation=simulation,
            reputation_system=reputation,
            reputation_scores=reputation_scores,
            ledger=ledger,
            priserv=priserv,
            tracker=tracker,
            facets=facets,
            per_user_facets=per_user_facets,
            trust=trust,
            reputation_accuracy=pairwise_ranking_accuracy(reputation_scores, ground_truth),
            reputation_error=mean_absolute_error(reputation_scores, ground_truth),
        )

    # -- facet computation -------------------------------------------------------

    def _information_requirement(self, reputation: ReputationSystem | None) -> float:
        if reputation is None:
            return 0.0
        return reputation.information_requirement

    def _global_facets(
        self,
        simulation: SimulationResult,
        reputation: ReputationSystem | None,
        reputation_scores: dict[str, float],
        ledger: DisclosureLedger,
        tracker: SatisfactionTracker,
    ) -> FacetScores:
        config = self.config
        privacy_concerns = {user.user_id: user.privacy_concern for user in simulation.graph.users()}
        privacy = privacy_facet(
            sharing_level=config.settings.sharing_level,
            information_requirement=self._information_requirement(reputation),
            anonymous_feedback=config.settings.anonymous_feedback,
            ledger=ledger,
            privacy_concerns=privacy_concerns,
        )
        reputation_score = reputation_facet(reputation_scores, simulation.ground_truth_honesty)
        satisfactions = {
            user_id: tracker.satisfaction(user_id)
            for user_id in simulation.graph.user_ids()
        }
        satisfaction = satisfaction_facet(satisfactions)
        return FacetScores(privacy=privacy, reputation=reputation_score, satisfaction=satisfaction)

    def _per_user_facets(
        self,
        graph: SocialGraph,
        simulation: SimulationResult,
        reputation: ReputationSystem | None,
        reputation_scores: dict[str, float],
        ledger: DisclosureLedger,
        tracker: SatisfactionTracker,
    ) -> dict[str, FacetScores]:
        config = self.config
        ground_truth = simulation.ground_truth_honesty
        satisfactions = {user_id: tracker.satisfaction(user_id) for user_id in graph.user_ids()}
        global_reputation = reputation_facet(reputation_scores, ground_truth)
        per_user: dict[str, FacetScores] = {}
        for user in graph.users():
            user_privacy = privacy_satisfaction(
                exposure=exposure_level(
                    ledger, user.user_id, reference_exposure=config.reference_exposure
                ),
                respect_rate=policy_respect_rate(ledger, user.user_id),
                privacy_concern=user.privacy_concern,
            )
            # A user's perception of the reputation mechanism blends its
            # global power with how well it served *her*: the fraction of
            # her consumed transactions that went well.
            peer = simulation.directory.get(user.user_id)
            personal_experience = peer.observed_success_rate if peer.consumed_count else 0.5
            user_reputation = clamp(0.5 * global_reputation + 0.5 * personal_experience)
            user_satisfaction = local_satisfaction(
                user.user_id, satisfactions, graph.neighbors(user.user_id)
            )
            per_user[user.user_id] = FacetScores(
                privacy=user_privacy,
                reputation=user_reputation,
                satisfaction=user_satisfaction,
            )
        return per_user
