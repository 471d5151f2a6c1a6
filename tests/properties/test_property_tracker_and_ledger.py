"""Property-based tests for the satisfaction tracker and disclosure ledger."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy.disclosure import DisclosureLedger, DisclosureRecord
from repro.privacy.metrics import exposure_level, policy_respect_rate
from repro.privacy.purposes import Purpose
from repro.satisfaction.aggregate import global_satisfaction
from repro.satisfaction.tracker import SatisfactionTracker

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@given(observations=st.lists(unit, min_size=1, max_size=50), alpha=st.floats(0.01, 1.0))
def test_tracker_satisfaction_stays_within_observed_range(observations, alpha):
    tracker = SatisfactionTracker(alpha=alpha)
    for value in observations:
        tracker.observe("user", value)
    satisfaction = tracker.satisfaction("user")
    assert min(observations) - 1e-9 <= satisfaction <= max(observations) + 1e-9


@given(observations=st.lists(unit, min_size=1, max_size=50))
def test_tracker_windowed_mean_matches_manual_mean(observations):
    tracker = SatisfactionTracker(window=1000)
    for value in observations:
        tracker.observe("user", value)
    expected = sum(observations) / len(observations)
    assert abs(tracker.windowed_satisfaction("user") - expected) < 1e-9


@given(observations=st.lists(st.tuples(unit, st.booleans()), min_size=1, max_size=50))
def test_allocation_satisfaction_only_reflects_imposed_observations(observations):
    tracker = SatisfactionTracker(alpha=0.5)
    imposed_values = [value for value, imposed in observations if imposed]
    for value, imposed in observations:
        tracker.observe("user", value, imposed=imposed)
    allocation = tracker.allocation_satisfaction("user")
    if imposed_values:
        assert min(imposed_values) - 1e-9 <= allocation <= max(imposed_values) + 1e-9
    else:
        assert allocation == tracker.satisfaction("user")


@given(values=st.dictionaries(st.text(min_size=1, max_size=5), unit, min_size=1, max_size=20))
def test_global_satisfaction_bounded_by_extremes(values):
    value = global_satisfaction(values)
    assert min(values.values()) - 1e-9 <= value <= max(values.values()) + 1e-9


@st.composite
def disclosure_records(draw):
    return DisclosureRecord(
        time=draw(st.integers(min_value=0, max_value=100)),
        owner=draw(st.sampled_from(["alice", "bob", "carol"])),
        recipient=draw(st.sampled_from(["x", "y"])),
        data_id="d",
        sensitivity=draw(unit),
        purpose=draw(st.sampled_from(list(Purpose))),
        policy_compliant=draw(st.booleans()),
        retention_time=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=50))),
    )


@given(records=st.lists(disclosure_records(), max_size=40))
@settings(max_examples=60)
def test_ledger_invariants(records):
    ledger = DisclosureLedger()
    for record in records:
        ledger.record(record)
    assert 0.0 <= ledger.compliance_rate() <= 1.0
    for owner in ("alice", "bob", "carol"):
        assert ledger.exposure(owner) >= 0.0
        assert 0.0 <= exposure_level(ledger, owner) <= 1.0
        assert 0.0 <= policy_respect_rate(ledger, owner) <= 1.0
    # Partitioning by owner loses nothing.
    assert sum(len(ledger.by_owner(owner)) for owner in ("alice", "bob", "carol")) == len(
        ledger
    )
    # Active and expired records partition the ledger at any time.
    for now in (0, 50, 200):
        assert len(ledger.active_records(now)) + len(ledger.expired_records(now)) == len(ledger)


@given(records=st.lists(disclosure_records(), max_size=40), now=st.integers(0, 200))
@settings(max_examples=60)
def test_exposure_with_retention_never_exceeds_total_exposure(records, now):
    ledger = DisclosureLedger()
    for record in records:
        ledger.record(record)
    for owner in ("alice", "bob", "carol"):
        assert ledger.exposure(owner, now=now) <= ledger.exposure(owner) + 1e-9
