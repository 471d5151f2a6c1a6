"""A TrustMe-like reputation protocol (Singh & Liu, P2P 2003).

TrustMe's contribution is *anonymous management of trust relationships*:
reports about a peer are not stored at the peer itself but at randomly
assigned, anonymous **trust-holding agents** (THAs); every report is bound to
a transaction certificate so that fabricated reports without a matching
certificate are rejected.

The reproduction models the pieces that matter for the paper's trade-off
analysis:

* transaction certificates are issued before feedback is accepted
  (``issue_certificate`` / internal verification), so unsolicited reports are
  dropped and :attr:`rejected_reports` counts them;
* every subject's reports are replicated over ``replication`` THAs chosen
  deterministically from the peer population, and a query returns the
  majority view of the replicas (tolerating missing replicas);
* the score itself is the certified-report mean — TrustMe does not prescribe
  a sophisticated aggregation, its value lies in tamper-resistant, anonymous
  storage, which is why its information requirement is lower than
  EigenTrust's even though it still identifies raters inside certificates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro._util import mean
from repro.errors import ConfigurationError
from repro.reputation.base import ReputationSystem
from repro.simulation.transaction import Feedback


@dataclass(frozen=True)
class TransactionCertificate:
    """A pairwise certificate authorizing one feedback report."""

    transaction_id: int
    consumer: str
    provider: str
    token: str

    @staticmethod
    def issue(
        transaction_id: int, consumer: str, provider: str, secret: str
    ) -> TransactionCertificate:
        digest = hashlib.sha256(
            f"{secret}|{transaction_id}|{consumer}|{provider}".encode("utf8")
        ).hexdigest()
        return TransactionCertificate(
            transaction_id=transaction_id,
            consumer=consumer,
            provider=provider,
            token=digest,
        )

    def verify(self, secret: str) -> bool:
        expected = hashlib.sha256(
            f"{secret}|{self.transaction_id}|{self.consumer}|{self.provider}".encode("utf8")
        ).hexdigest()
        return expected == self.token


class TrustMeReputation(ReputationSystem):
    """Certificate-gated, THA-replicated reputation storage."""

    name = "trustme"
    information_requirement = 0.6

    def __init__(
        self,
        *,
        replication: int = 3,
        secret: str = "trustme-bootstrap-secret",
        require_certificates: bool = True,
        auto_certify: bool = True,
        default_score: float = 0.5,
        max_evidence_per_subject: int | None = None,
    ) -> None:
        # TrustMe's value is tamper-resistant storage, not aggregation; its
        # certified-report mean has no array kernel and runs in Python.
        super().__init__(
            default_score=default_score,
            max_evidence_per_subject=max_evidence_per_subject,
        )
        if replication < 1:
            raise ConfigurationError("replication must be at least 1")
        self.replication = int(replication)
        self.secret = secret
        self.require_certificates = require_certificates
        #: When true, a report whose transaction has no certificate yet gets
        #: one issued on the fly.  This models the pairwise certificate
        #: exchange that, in the real protocol, happens *before* the
        #: transaction; the simulator abstracts that exchange away.  Set it to
        #: ``False`` to study forged-report rejection explicitly.
        self.auto_certify = auto_certify
        self._certificates: dict[int, TransactionCertificate] = {}
        #: reports per trust-holding agent: ``{tha_id: {subject: [ratings]}}``
        self._tha_storage: dict[str, dict[str, list[float]]] = {}
        self.rejected_reports = 0

    # -- certificate handling ------------------------------------------------

    def issue_certificate(
        self, transaction_id: int, consumer: str, provider: str
    ) -> TransactionCertificate:
        """Issue (and remember) the pairwise certificate for a transaction."""
        certificate = TransactionCertificate.issue(transaction_id, consumer, provider, self.secret)
        self._certificates[transaction_id] = certificate
        return certificate

    def _certificate_valid(self, feedback: Feedback) -> bool:
        certificate = self._certificates.get(feedback.transaction_id)
        if certificate is None:
            return False
        if certificate.provider != feedback.subject:
            return False
        if feedback.rater is not None and certificate.consumer != feedback.rater:
            return False
        return certificate.verify(self.secret)

    # -- trust-holding agents --------------------------------------------------

    def trust_holding_agents(self, subject: str) -> list[str]:
        """Deterministic THA identifiers responsible for ``subject``.

        In the real protocol THAs are anonymous peers selected through the
        overlay; a hash-derived assignment preserves the property that the
        subject cannot predict or control who stores its reports.
        """
        agents = []
        for replica in range(self.replication):
            digest = hashlib.sha256(f"{subject}|{replica}".encode("utf8")).hexdigest()
            agents.append(f"tha-{digest[:12]}")
        return agents

    def record_feedback(self, feedback: Feedback) -> None:
        if self.require_certificates:
            if feedback.transaction_id not in self._certificates and self.auto_certify:
                self.issue_certificate(
                    feedback.transaction_id,
                    feedback.rater if feedback.rater is not None else "anonymous",
                    feedback.subject,
                )
            if not self._certificate_valid(feedback):
                # Reports without a matching certificate were either forged or
                # the certificate exchange was skipped; TrustMe drops them.
                self.rejected_reports += 1
                return
        super().record_feedback(feedback)
        # Under ``max_evidence_per_subject`` the store keeps each subject's
        # newest reports, and every replica keeps the same ratings.
        cap = self.store.max_per_subject
        for agent in self.trust_holding_agents(feedback.subject):
            storage = self._tha_storage.setdefault(agent, {})
            ratings = storage.setdefault(feedback.subject, [])
            ratings.append(feedback.rating)
            if cap is not None:
                del ratings[: max(len(ratings) - cap, 0)]

    def __setstate__(self, state: dict[str, object]) -> None:
        # Sessions pickled before the replicas followed the store's cap kept
        # every rating; hold them to the newest ``cap`` as the store does.
        self.__dict__.update(state)
        cap = self.store.max_per_subject
        if cap is not None:
            for storage in self._tha_storage.values():
                for ratings in storage.values():
                    del ratings[: max(len(ratings) - cap, 0)]

    # -- scoring ---------------------------------------------------------------

    def _query_replicas(self, subject: str) -> list[float]:
        """Collect the subject's ratings from every live replica (majority view)."""
        replica_views: list[list[float]] = []
        for agent in self.trust_holding_agents(subject):
            ratings = self._tha_storage.get(agent, {}).get(subject)
            if ratings:
                replica_views.append(ratings)
        if not replica_views:
            return []
        # Replicas are kept consistent by construction; take the longest view
        # to tolerate partially-populated replicas.
        return max(replica_views, key=len)

    def compute_scores(self) -> dict[str, float]:
        # Every accepted report reaches each of its subject's replicas, so
        # the replicas hold every subject the store does.
        return {
            subject: mean(self._query_replicas(subject), default=self.default_score)
            for subject in self.store.subjects()
        }

    def reset(self) -> None:
        super().reset()
        self._certificates.clear()
        self._tha_storage.clear()
        self.rejected_reports = 0
