"""Loop references for the simulator: its per-round interaction counts and
its object-per-transaction path."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.simulation.engine import InteractionSimulator
from repro.simulation.metrics import MetricsCollector
from repro.simulation.peer import Peer, PeerDirectory
from repro.simulation.transaction import Feedback, Transaction, TransactionOutcome


def interaction_counts(
    activities: Sequence[float], interactions_per_peer: float, draws: Sequence[float]
) -> list[int]:
    """``int(e) + (draw < e - int(e))`` with ``e = activity · interactions_per_peer``,
    one peer at a time; the loop form of
    :func:`repro.core.backend.interaction_counts`."""
    counts: list[int] = []
    for activity, draw in zip(activities, draws, strict=True):
        expected = activity * interactions_per_peer
        base = int(expected)
        counts.append(base + (1 if draw < (expected - base) else 0))
    return counts


class OracleSimulator(InteractionSimulator):
    """An :class:`InteractionSimulator` whose round draws go through the
    loop reference instead of the array kernel."""

    def _interaction_counts(self, online: list[Peer], draws: list[float]) -> list[int]:
        return interaction_counts(
            [peer.user.activity for peer in online], self.config.interactions_per_peer, draws
        )


@dataclass
class EagerResult:
    """What :class:`EagerSimulator` collected, in the lists it built."""

    transactions: list[Transaction]
    feedbacks: list[Feedback]
    disclosed_feedbacks: list[Feedback]
    metrics: MetricsCollector
    directory: PeerDirectory

    @property
    def disclosure_rate(self) -> float:
        if not self.feedbacks:
            return 0.0
        return len(self.disclosed_feedbacks) / len(self.feedbacks)


class EagerSimulator(InteractionSimulator):
    """An :class:`InteractionSimulator` that builds a :class:`Transaction` and
    a :class:`Feedback` for every transaction and keeps them in three lists:
    the object-per-transaction path the columnar log replaced, with the
    same draws from the same streams in the same order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._transactions: list[Transaction] = []
        self._feedbacks: list[Feedback] = []
        self._disclosed: list[Feedback] = []
        self._transaction_counter = 0

    def _transaction_step(self, round_index: int) -> Callable[[Peer, Peer], None]:
        def step(consumer: Peer, provider: Peer) -> None:
            self._execute_transaction(consumer, provider, round_index)

        return step

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
        self.metrics.record_transaction(transaction.succeeded, provider.user.is_honest)

        self._generate_feedback(consumer, provider, transaction, round_index)

    def _generate_feedback(
        self, consumer: Peer, provider: Peer, transaction: Transaction, round_index: int
    ) -> None:
        rng = self._rng_feedback
        rating, truthful = consumer.behavior.rate_transaction(
            consumer.user, transaction.provider, transaction.succeeded, rng
        )
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

        disclose_probability = consumer.behavior.disclosure_probability(
            consumer.user, self.config.sharing_level
        )
        disclosed = rng.random() < disclose_probability
        self.metrics.record_feedback(feedback.truthful, disclosed)
        if not disclosed:
            return
        self._disclosed.append(feedback)
        if self.reputation is not None:
            self.reputation.record_feedback(feedback)
        if self._disclosure_observer is not None:
            self._disclosure_observer(feedback, consumer, provider)

    def result(self) -> EagerResult:  # type: ignore[override]
        return EagerResult(
            transactions=list(self._transactions),
            feedbacks=list(self._feedbacks),
            disclosed_feedbacks=list(self._disclosed),
            metrics=self.metrics,
            directory=self.directory,
        )
