"""Property tests: incremental refresh equals cold-start refresh, byte for byte.

The acceleration contract of the incremental layer: for any feedback
history — interleaved refreshes, anonymous reports, eviction, clears — a
mechanism that folds evidence incrementally publishes *exactly* the scores
a cold rescan publishes.  The end-to-end variant replays whole attack
scenarios (including whitewashing and churn, which retire peer identities
mid-run) with the acceleration flags on and off and requires
byte-identical robustness records.
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _profiling
from repro.core import accel, backend
from repro.experiments import robustness
from repro.reputation.average import SimpleAverageReputation
from repro.reputation.beta import BetaReputation
from repro.reputation.eigentrust import EigenTrust
from repro.reputation.powertrust import PowerTrust
from repro.scenarios.runner import shared_simulations
from repro.simulation.transaction import Feedback
from repro.socialnet.generators import clear_network_cache

SUBJECTS = ["s0", "s1", "s2", "s3", "s4"]
RATERS = ["s0", "s1", "r0", "r1", "r2"]

FACTORIES = [
    lambda cap: SimpleAverageReputation(max_evidence_per_subject=cap),
    lambda cap: BetaReputation(forgetting=1.0, max_evidence_per_subject=cap),
    lambda cap: BetaReputation(forgetting=0.9, max_evidence_per_subject=cap),
    lambda cap: EigenTrust(pretrusted=["s0", "s1"], max_evidence_per_subject=cap),
    lambda cap: PowerTrust(n_power_nodes=2, max_evidence_per_subject=cap),
]


@st.composite
def feedback_schedules(draw):
    """A feedback sequence split into batches, refreshed between batches."""
    size = draw(st.integers(min_value=1, max_value=50))
    reports = []
    for index in range(size):
        reports.append(
            Feedback(
                transaction_id=index,
                time=float(draw(st.integers(min_value=0, max_value=25))),
                subject=draw(st.sampled_from(SUBJECTS)),
                rating=draw(st.sampled_from([0.0, 1.0])),
                rater=draw(st.one_of(st.none(), st.sampled_from(RATERS))),
            )
        )
    n_cuts = draw(st.integers(min_value=0, max_value=4))
    cuts = sorted(draw(st.sampled_from(range(size + 1))) for _ in range(n_cuts))
    batches = []
    previous = 0
    for cut in [*cuts, size]:
        batches.append(reports[previous:cut])
        previous = cut
    return batches


@given(
    batches=feedback_schedules(),
    mechanism_index=st.integers(0, len(FACTORIES) - 1),
    cap=st.sampled_from([None, 3]),
)
@settings(max_examples=60, deadline=None)
def test_incremental_refresh_matches_cold_refresh(batches, mechanism_index, cap):
    """After every batch, incremental and cold publish identical scores."""
    factory = FACTORIES[mechanism_index]
    with accel.override(incremental_refresh=True, disable_all=False):
        incremental = factory(cap)
    with accel.override(incremental_refresh=False):
        cold = factory(cap)
    for batch in batches:
        for feedback in batch:
            with accel.override(incremental_refresh=True, disable_all=False):
                incremental.record_feedback(feedback)
            with accel.override(incremental_refresh=False):
                cold.record_feedback(feedback)
        with accel.override(incremental_refresh=True, disable_all=False):
            published_incremental = incremental.refresh()
        with accel.override(incremental_refresh=False):
            published_cold = cold.refresh()
        assert list(published_incremental.items()) == list(published_cold.items())


#: The local-trust mechanisms, whose refresh takes the pair ledger's sparse
#: branch once the population reaches ``DENSE_TRUST_THRESHOLD``.
LEDGER_FACTORIES = FACTORIES[3:]


@given(
    batches=feedback_schedules(),
    mechanism_index=st.integers(0, len(LEDGER_FACTORIES) - 1),
    cap=st.sampled_from([None, 3]),
)
@settings(max_examples=60, deadline=None)
def test_pair_ledger_matches_cold_rescan_on_sparse_path(batches, mechanism_index, cap):
    """The ledger-built CSR publishes what the cold rescan publishes.

    The schedules reach 2-8 peers; lowering the threshold to 2 sends every
    multi-peer build of both twins through the sparse branch.
    """
    factory = LEDGER_FACTORIES[mechanism_index]
    with mock.patch.object(backend, "DENSE_TRUST_THRESHOLD", 2):
        with accel.override(incremental_refresh=True, disable_all=False):
            incremental = factory(cap)
        with accel.override(incremental_refresh=False):
            cold = factory(cap)
        for batch in batches:
            with accel.override(incremental_refresh=True, disable_all=False):
                for feedback in batch:
                    incremental.record_feedback(feedback)
                published_incremental = incremental.refresh()
            with accel.override(incremental_refresh=False):
                for feedback in batch:
                    cold.record_feedback(feedback)
                published_cold = cold.refresh()
            assert list(published_incremental.items()) == list(published_cold.items())


@given(batches=feedback_schedules(), mechanism_index=st.integers(0, len(FACTORIES) - 1))
@settings(max_examples=25, deadline=None)
def test_refresh_survives_clear_and_reset(batches, mechanism_index):
    """A cleared store cold-starts the incremental state, not stale sums.

    The reference replays the post-reset evidence on the *same refresh
    schedule*: PowerTrust's power-node selection intentionally warm-starts
    from the previous refresh, so refresh cadence is part of a mechanism's
    semantics — what must match is a reset system versus a fresh one.
    """
    factory = FACTORIES[mechanism_index]
    with accel.override(incremental_refresh=True, disable_all=False):
        system = factory(None)
        reference = factory(None)
        for batch_index, batch in enumerate(batches):
            for feedback in batch:
                system.record_feedback(feedback)
            system.refresh()
            if batch_index == 0:
                system.reset()
                system.refresh()
        # Replay only the post-reset evidence into a fresh system, with the
        # same per-batch refresh cadence the reset system experienced.
        for batch in batches[1:]:
            for feedback in batch:
                reference.record_feedback(feedback)
            reference.refresh()
        assert list(system.refresh().items()) == list(reference.refresh().items())


def _matrix_records(**kwargs):
    clear_network_cache()
    result = robustness.run(**kwargs)
    return json.dumps(robustness.summarize(result), sort_keys=True)


@pytest.mark.parametrize("scenario", ["whitewash-wave", "collusion-under-churn", "sybil-burst"])
def test_scenario_records_identical_across_acceleration_flags(scenario):
    """Whole-pipeline byte-identity on the identity-churning scenarios.

    Whitewashing and churn retire peer identities mid-run — the hard case
    for incremental state (participant layouts change, matrices rebuild).
    """
    kwargs = dict(
        scenarios=(scenario,),
        mechanisms=("average", "beta", "eigentrust", "powertrust"),
        n_users=18,
        rounds=10,
        seed=11,
    )
    accelerated = _matrix_records(**kwargs)
    with accel.override(disable_all=True):
        cold = _matrix_records(**kwargs)
    assert accelerated == cold


def test_scenario_records_identical_with_run_cache():
    """Shared simulations re-evaluate traces without changing a byte, and
    threshold-only variations reuse the simulation: inside one
    :func:`shared_simulations` block only the first pass simulates."""
    kwargs = dict(
        scenarios=("collusion-ring",),
        mechanisms=("eigentrust",),
        n_users=16,
        rounds=8,
        seed=5,
    )
    fresh = _matrix_records(**kwargs)
    fresh_varied = _matrix_records(detect_threshold=0.2, **kwargs)
    with _profiling.profiled() as timer, shared_simulations():
        shared_first = _matrix_records(**kwargs)
        assert timer.counts["simulate"] == 1
        shared_second = _matrix_records(**kwargs)
        shared_varied = _matrix_records(detect_threshold=0.2, **kwargs)
        assert timer.counts["simulate"] == 1
    assert fresh == shared_first == shared_second
    assert shared_varied == fresh_varied
    assert shared_varied != shared_first
