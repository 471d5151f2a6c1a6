"""Measurement collection for simulation runs.

The collector records per-round aggregates and exposes the derived quantities
the experiments report: transaction success rate, the rate of transactions
served by dishonest peers ("malicious transaction rate" — the standard
reputation-system effectiveness measure), feedback disclosure counts and the
honest-feedback rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import mean


@dataclass
class RoundMetrics:
    """Aggregates for a single simulation round."""

    round_index: int
    transactions: int = 0
    successes: int = 0
    failures: int = 0
    malicious_provider_transactions: int = 0
    feedback_generated: int = 0
    feedback_disclosed: int = 0
    truthful_feedback: int = 0
    online_peers: int = 0

    @property
    def success_rate(self) -> float:
        if self.transactions == 0:
            return 0.0
        return self.successes / self.transactions

    @property
    def malicious_rate(self) -> float:
        """Fraction of transactions that were served by a dishonest peer."""
        if self.transactions == 0:
            return 0.0
        return self.malicious_provider_transactions / self.transactions

    @property
    def disclosure_rate(self) -> float:
        if self.feedback_generated == 0:
            return 0.0
        return self.feedback_disclosed / self.feedback_generated

    @property
    def honest_feedback_rate(self) -> float:
        if self.feedback_generated == 0:
            return 0.0
        return self.truthful_feedback / self.feedback_generated


class MetricsCollector:
    """Accumulates one :class:`RoundMetrics` per round over a run."""

    def __init__(self) -> None:
        self.rounds: list[RoundMetrics] = []
        self._current: RoundMetrics = RoundMetrics(round_index=0)

    def start_round(self, round_index: int, online_peers: int) -> None:
        self._current = RoundMetrics(round_index=round_index, online_peers=online_peers)

    def end_round(self) -> RoundMetrics:
        self.rounds.append(self._current)
        return self._current

    def record_transaction(self, succeeded: bool, provider_honest: bool) -> None:
        current = self._current
        current.transactions += 1
        if succeeded:
            current.successes += 1
        else:
            current.failures += 1
        if not provider_honest:
            current.malicious_provider_transactions += 1

    def record_feedback(self, truthful: bool, disclosed: bool) -> None:
        current = self._current
        current.feedback_generated += 1
        if disclosed:
            current.feedback_disclosed += 1
        if truthful:
            current.truthful_feedback += 1

    # -- run-level summaries ----------------------------------------------

    @property
    def total_transactions(self) -> int:
        return sum(r.transactions for r in self.rounds)

    @property
    def overall_success_rate(self) -> float:
        total = self.total_transactions
        if total == 0:
            return 0.0
        return sum(r.successes for r in self.rounds) / total

    @property
    def overall_malicious_rate(self) -> float:
        total = self.total_transactions
        if total == 0:
            return 0.0
        return sum(r.malicious_provider_transactions for r in self.rounds) / total

    @property
    def overall_disclosure_rate(self) -> float:
        generated = sum(r.feedback_generated for r in self.rounds)
        if generated == 0:
            return 0.0
        return sum(r.feedback_disclosed for r in self.rounds) / generated

    @property
    def overall_honest_feedback_rate(self) -> float:
        generated = sum(r.feedback_generated for r in self.rounds)
        if generated == 0:
            return 0.0
        return sum(r.truthful_feedback for r in self.rounds) / generated

    def success_rate_series(self) -> list[float]:
        return [r.success_rate for r in self.rounds]

    def malicious_rate_series(self) -> list[float]:
        return [r.malicious_rate for r in self.rounds]

    def tail_success_rate(self, window: int = 10) -> float:
        """Mean success rate over the last ``window`` rounds (steady state)."""
        tail = self.rounds[-window:] if window > 0 else self.rounds
        return mean([r.success_rate for r in tail])

    def tail_malicious_rate(self, window: int = 10) -> float:
        tail = self.rounds[-window:] if window > 0 else self.rounds
        return mean([r.malicious_rate for r in tail])
