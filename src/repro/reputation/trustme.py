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
* the score is the certified-report mean, the simple average's fold over the
  reports that passed the gate — TrustMe does not prescribe a sophisticated
  aggregation, its value lies in tamper-resistant, anonymous storage, which
  is why its information requirement is lower than EigenTrust's even though
  it still identifies raters inside certificates.

Where the reports are kept does not change a score, so the THAs themselves
are not modelled: each accepted report is held once, in the mechanism's
feedback store, like every other mechanism's.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.reputation.average import SimpleAverageReputation
from repro.simulation.transaction import FeedbackBatch


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


class TrustMeReputation(SimpleAverageReputation):
    """Certificate-gated reputation: the simple average of certified reports."""

    name = "trustme"
    information_requirement = 0.6
    #: Sessions pickled while TrustMe kept THA replica lists of every rating
    #: beside the store carry them: the store holds the same reports.
    _NOT_PICKLED = SimpleAverageReputation._NOT_PICKLED | {"_tha_storage", "replication"}

    def __init__(
        self,
        *,
        secret: str = "trustme-bootstrap-secret",
        require_certificates: bool = True,
        auto_certify: bool = True,
        default_score: float = 0.5,
        max_evidence_per_subject: int | None = None,
    ) -> None:
        super().__init__(
            default_score=default_score,
            max_evidence_per_subject=max_evidence_per_subject,
        )
        self.secret = secret
        self.require_certificates = require_certificates
        #: When true, a report whose transaction has no certificate yet gets
        #: one issued on the fly.  This models the pairwise certificate
        #: exchange that, in the real protocol, happens *before* the
        #: transaction; the simulator abstracts that exchange away.  Set it to
        #: ``False`` to study forged-report rejection explicitly.
        self.auto_certify = auto_certify
        self._certificates: dict[int, TransactionCertificate] = {}
        self.rejected_reports = 0

    # -- certificate handling ------------------------------------------------

    def issue_certificate(
        self, transaction_id: int, consumer: str, provider: str
    ) -> TransactionCertificate:
        """Issue (and remember) the pairwise certificate for a transaction."""
        certificate = TransactionCertificate.issue(transaction_id, consumer, provider, self.secret)
        self._certificates[transaction_id] = certificate
        return certificate

    def _admits(self, transaction_id: int, subject: str, rater: str | None) -> bool:
        """Whether a report passes the certificate gate (issuing its
        certificate first under ``auto_certify``)."""
        certificate = self._certificates.get(transaction_id)
        if certificate is None:
            if not self.auto_certify:
                return False
            certificate = self.issue_certificate(
                transaction_id, rater if rater is not None else "anonymous", subject
            )
        if certificate.provider != subject:
            return False
        if rater is not None and certificate.consumer != rater:
            return False
        return certificate.verify(self.secret)

    def record_batch(self, batch: FeedbackBatch) -> None:
        if self.require_certificates:
            reports = zip(batch.transaction_ids, batch.subjects, batch.raters, strict=True)
            admitted = [row for row, report in enumerate(reports) if self._admits(*report)]
            # Reports without a matching certificate were either forged or
            # the certificate exchange was skipped; TrustMe drops them.
            self.rejected_reports += len(batch) - len(admitted)
            if len(admitted) < len(batch):
                batch = batch.take(admitted)
        super().record_batch(batch)

    def reset(self) -> None:
        super().reset()
        self._certificates.clear()
        self.rejected_reports = 0
