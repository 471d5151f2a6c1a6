"""Unit tests for the transport-agnostic :class:`ReputationService` session."""

import pytest

from repro.errors import CheckpointError, ConfigurationError
from repro.reputation.base import ScoreView
from repro.serving import (
    IngestReceipt,
    PeerSummary,
    ReputationService,
    ServiceConfig,
    feedback_from_payload,
)
from repro.simulation.transaction import Feedback


def _event(subject, rating, rater=None, time=0, transaction_id=0):
    return Feedback(
        transaction_id=transaction_id,
        time=time,
        subject=subject,
        rating=rating,
        rater=rater,
    )


class TestServiceConfig:
    def test_defaults(self):
        config = ServiceConfig()
        assert config.mechanism == "beta"
        assert config.refresh_every == 64

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown mechanism"):
            ServiceConfig(mechanism="nope")

    def test_backend_accepts_only_auto_and_is_not_reported(self):
        # Callers that still pass backend="auto" keep working; there is one
        # compute path, so any other value is a configuration error.
        service = ReputationService(ServiceConfig(backend="auto"))
        assert "backend" not in service.health()
        for value in ("python", "vectorized"):
            with pytest.raises(ConfigurationError, match="unknown backend"):
                ServiceConfig(backend=value)

    def test_refresh_every_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="refresh_every"):
            ServiceConfig(refresh_every=0)

    def test_latency_window_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="latency_window"):
            ServiceConfig(latency_window=0)

    def test_service_rejects_config_plus_overrides(self):
        with pytest.raises(ConfigurationError, match="either a config object"):
            ReputationService(ServiceConfig(), refresh_every=8)

    def test_service_accepts_keyword_overrides(self):
        service = ReputationService(mechanism="average", refresh_every=2)
        assert service.config.mechanism == "average"
        assert service.config.refresh_every == 2


class TestIngestion:
    def test_receipt_counts_and_watermark(self):
        service = ReputationService(refresh_every=4)
        receipt = service.ingest(_event("alice", 1.0))
        assert isinstance(receipt, IngestReceipt)
        assert receipt.accepted == 1
        assert receipt.ingested == 1
        assert receipt.watermark == 0  # below the refresh boundary
        assert not receipt.refreshed
        assert service.pending == 1

    def test_refresh_boundary_publishes(self):
        service = ReputationService(refresh_every=4)
        receipt = service.ingest_many(
            _event("alice", 1.0, time=i, transaction_id=i) for i in range(4)
        )
        assert receipt.refreshed
        assert receipt.watermark == 4
        assert service.pending == 0
        assert service.scores().score_of("alice") > 0.5

    def test_large_batch_crosses_multiple_boundaries(self):
        service = ReputationService(refresh_every=2)
        receipt = service.ingest_many(
            _event("alice", 1.0, time=i, transaction_id=i) for i in range(5)
        )
        assert receipt.ingested == 5
        assert receipt.watermark == 4  # refreshed at 2 and 4, one pending
        assert service.pending == 1
        assert service.health()["refreshes"] == 2

    def test_dict_events_accepted(self):
        service = ReputationService(refresh_every=1)
        receipt = service.ingest({"subject": "bob", "rating": 0.9})
        assert receipt.refreshed
        assert service.scores().score_of("bob") > 0.5

    def test_manual_refresh_flushes_pending(self):
        service = ReputationService(refresh_every=100)
        service.ingest(_event("alice", 1.0))
        assert service.pending == 1
        view = service.refresh()
        assert isinstance(view, ScoreView)
        assert service.pending == 0
        assert service.watermark == 1


class TestQueries:
    @pytest.fixture()
    def service(self):
        service = ReputationService(refresh_every=1)
        service.ingest_many(
            [
                _event("alice", 1.0, time=0, transaction_id=0),
                _event("alice", 1.0, time=1, transaction_id=1),
                _event("bob", 0.2, time=2, transaction_id=2),
            ]
        )
        return service

    def test_scores_returns_score_view_copy(self, service):
        view = service.scores()
        assert isinstance(view, ScoreView)
        view["alice"] = 0.0  # a copy: must not corrupt the published scores
        assert service.scores().score_of("alice") > 0.5

    def test_ranking_and_limit(self, service):
        assert service.ranking() == ["alice", "bob"]
        assert service.ranking(limit=1) == ["alice"]
        assert service.ranking(limit=0) == []

    def test_peer_summary_known(self, service):
        summary = service.peer("alice")
        assert isinstance(summary, PeerSummary)
        assert summary.known
        assert summary.rank == 1
        assert summary.watermark == 3

    def test_peer_summary_unknown(self, service):
        summary = service.peer("mallory")
        assert not summary.known
        assert summary.rank is None
        assert summary.score == service.config.default_score

    def test_health_counters(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["ingested"] == 3
        assert health["watermark"] == 3
        assert health["pending"] == 0
        assert health["known_peers"] == 2
        assert set(health["latency"]) == {"ingest", "query", "refresh", "snapshot"}


class TestEvidenceLog:
    def test_append_only_log_and_slicing(self):
        service = ReputationService(refresh_every=10)
        events = [_event("alice", 1.0, time=i, transaction_id=i) for i in range(5)]
        service.ingest_many(events)
        assert service.evidence_count == 5
        assert service.evidence() == events
        assert service.evidence(start=2, limit=2) == events[2:4]
        assert service.evidence(limit=0) == []


class TestSnapshotRestore:
    def test_round_trip_preserves_counters_and_scores(self, tmp_path):
        service = ReputationService(mechanism="beta", refresh_every=2)
        service.ingest_many(
            _event("alice", 1.0, time=i, transaction_id=i) for i in range(3)
        )
        path = tmp_path / "svc.ckpt"
        vitals = service.snapshot(str(path))
        assert vitals["ingested"] == 3
        assert vitals["watermark"] == 2

        restored = ReputationService.restore(str(path))
        assert restored.config == service.config
        assert restored.watermark == service.watermark
        assert restored.pending == service.pending
        assert restored.evidence() == service.evidence()
        assert restored.scores() == service.scores()

    def test_restore_rejects_wrong_kind(self, tmp_path):
        from repro.simulation.checkpoint import write_checkpoint

        path = tmp_path / "other.ckpt"
        write_checkpoint(str(path), "sweep", {"not": "a service"}, round_index=0)
        with pytest.raises(CheckpointError):
            ReputationService.restore(str(path))


class TestFeedbackFromPayload:
    def test_defaults_fill_sequence(self):
        feedback = feedback_from_payload({"subject": "a", "rating": 0.5}, sequence=7)
        assert feedback.time == 7
        assert feedback.transaction_id == 7
        assert feedback.rater is None

    def test_explicit_fields_pass_through(self):
        feedback = feedback_from_payload(
            {"subject": "a", "rating": 1, "rater": "b", "time": 3, "transaction_id": 9},
            sequence=0,
        )
        assert feedback.rater == "b"
        assert feedback.time == 3
        assert feedback.transaction_id == 9
        assert feedback.rating == 1.0

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"rating": 0.5}, "subject"),
            ({"subject": "", "rating": 0.5}, "subject"),
            ({"subject": "a"}, "rating"),
            ({"subject": "a", "rating": True}, "rating"),
            ({"subject": "a", "rating": "high"}, "rating"),
            ({"subject": "a", "rating": 0.5, "rater": 3}, "rater"),
            ({"subject": "a", "rating": 0.5, "time": "now"}, "time"),
            ({"subject": "a", "rating": 0.5, "transaction_id": 1.5}, "transaction_id"),
            ({"subject": "a", "rating": 0.5, "typo_field": 1}, "unknown feedback fields"),
        ],
    )
    def test_invalid_payloads_rejected(self, payload, match):
        with pytest.raises(ConfigurationError, match=match):
            feedback_from_payload(payload, sequence=0)
