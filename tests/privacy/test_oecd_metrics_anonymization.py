"""Unit tests for OECD compliance and privacy metrics."""

import pytest

from repro.privacy.disclosure import DisclosureLedger, DisclosureRecord
from repro.privacy.metrics import (
    exposure_level,
    policy_respect_rate,
    population_privacy_satisfaction,
    privacy_guarantee_level,
    privacy_satisfaction,
)
from repro.privacy.oecd import OECD_PRINCIPLES, OecdPrinciple, check_compliance
from repro.privacy.policy import permissive_policy
from repro.privacy.priserv import PriServService
from repro.privacy.purposes import Purpose


def make_record(sensitivity=0.5, compliant=True, purpose=Purpose.SOCIAL_INTERACTION, owner="alice"):
    return DisclosureRecord(
        time=0,
        owner=owner,
        recipient="bob",
        data_id=f"{owner}/x",
        sensitivity=sensitivity,
        purpose=purpose,
        policy_compliant=compliant,
    )


class TestPrivacyMetrics:
    def test_exposure_level_normalizes_and_saturates(self):
        ledger = DisclosureLedger()
        for _ in range(10):
            ledger.record(make_record(sensitivity=1.0))
        assert exposure_level(ledger, "alice", reference_exposure=20.0) == 0.5
        assert exposure_level(ledger, "alice", reference_exposure=5.0) == 1.0
        assert exposure_level(ledger, "nobody") == 0.0

    def test_exposure_level_rejects_bad_reference(self):
        with pytest.raises(ValueError):
            exposure_level(DisclosureLedger(), "alice", reference_exposure=0.0)

    def test_policy_respect_rate(self):
        ledger = DisclosureLedger()
        ledger.record(make_record(compliant=True))
        ledger.record(make_record(compliant=False))
        assert policy_respect_rate(ledger) == 0.5
        assert policy_respect_rate(ledger, "nobody") == 1.0

    def test_guarantee_decreases_with_sharing_and_requirement(self):
        high = privacy_guarantee_level(0.2, 0.3)
        low = privacy_guarantee_level(1.0, 0.9)
        assert high > low
        assert privacy_guarantee_level(0.0, 1.0) == 1.0

    def test_anonymity_recovers_guarantee(self):
        assert privacy_guarantee_level(1.0, 0.9, anonymous_feedback=True) > (
            privacy_guarantee_level(1.0, 0.9)
        )

    def test_privacy_satisfaction_indifferent_user(self):
        assert privacy_satisfaction(exposure=1.0, respect_rate=0.0, privacy_concern=0.0) == 1.0

    def test_privacy_satisfaction_concerned_user(self):
        bad = privacy_satisfaction(exposure=1.0, respect_rate=0.5, privacy_concern=1.0)
        good = privacy_satisfaction(exposure=0.0, respect_rate=1.0, privacy_concern=1.0)
        assert good == 1.0
        assert bad < 0.5

    def test_population_satisfaction_defaults_to_one(self):
        assert population_privacy_satisfaction(DisclosureLedger(), {}) == 1.0
        ledger = DisclosureLedger()
        ledger.record(make_record(sensitivity=1.0, compliant=False))
        value = population_privacy_satisfaction(ledger, {"alice": 0.9, "carol": 0.9})
        assert 0.0 < value < 1.0


class TestOecdCompliance:
    def build_service(self, *, breaches=0) -> PriServService:
        service = PriServService(peer_ids=["alice", "bob"], trust_oracle=lambda p: 0.9)
        service.register_policy(permissive_policy("alice"))
        service.publish("alice", "alice/city", "Nantes", sensitivity=0.2)
        service.request("bob", "alice/city")
        for _ in range(breaches):
            service.record_breach("alice", "eve", "alice/city")
        return service

    def test_report_covers_every_principle(self):
        report = check_compliance(self.build_service())
        assert set(report.scores) == set(OECD_PRINCIPLES)
        assert all(0.0 <= score <= 1.0 for score in report.scores.values())
        assert 0.0 <= report.overall <= 1.0
        assert len(report.as_rows()) == 8

    def test_breaches_degrade_security_safeguards(self):
        clean = check_compliance(self.build_service())
        breached = check_compliance(self.build_service(breaches=5))
        assert (
            breached.scores[OecdPrinciple.SECURITY_SAFEGUARDS]
            < clean.scores[OecdPrinciple.SECURITY_SAFEGUARDS]
        )
        assert breached.overall < clean.overall

    def test_weakest_principle_identified(self):
        report = check_compliance(self.build_service(breaches=10))
        assert report.weakest() in set(OECD_PRINCIPLES)

    def test_empty_service_is_compliant(self):
        service = PriServService(peer_ids=["alice"])
        assert check_compliance(service).overall == pytest.approx(1.0)
