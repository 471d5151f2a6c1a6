"""Property tests: incremental refresh equals a rescan, byte for byte.

For any feedback history — interleaved refreshes, anonymous reports,
eviction, clears — a mechanism that folds evidence incrementally publishes
*exactly* the scores its rescan twin (``tests/oracles/rescan.py``)
publishes after rescanning the whole store.  The end-to-end variant replays
whole attack scenarios (including whitewashing and churn, which retire peer
identities mid-run) on the live path and on the reference path — rescan
twins swapped in through the mechanism registry, a freshly generated
network per run, nothing shared — and requires byte-identical robustness
records.
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _profiling
from repro.core import backend
from repro.experiments import robustness
from repro.reputation.average import SimpleAverageReputation
from repro.reputation.beta import BetaReputation
from repro.reputation.eigentrust import EigenTrust
from repro.reputation.powertrust import PowerTrust
from repro.reputation.registry import REPUTATION_FACTORIES
from repro.scenarios import runner
from repro.scenarios.runner import shared_simulations
from repro.simulation.transaction import Feedback
from repro.socialnet.generators import clear_network_cache, generate_social_network
from tests.oracles import rescan

SUBJECTS = ["s0", "s1", "s2", "s3", "s4"]
RATERS = ["s0", "s1", "r0", "r1", "r2"]

#: (live mechanism, its rescan twin, constructor keywords).
PAIRS = [
    (SimpleAverageReputation, rescan.RescanAverage, {}),
    (BetaReputation, rescan.RescanBeta, {"forgetting": 1.0}),
    (BetaReputation, rescan.RescanBeta, {"forgetting": 0.9}),
    (EigenTrust, rescan.RescanEigenTrust, {"pretrusted": ["s0", "s1"]}),
    (PowerTrust, rescan.RescanPowerTrust, {"n_power_nodes": 2}),
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
    pair_index=st.integers(0, len(PAIRS) - 1),
    cap=st.sampled_from([None, 3]),
)
@settings(max_examples=60, deadline=None)
def test_incremental_refresh_matches_cold_refresh(batches, pair_index, cap):
    """After every batch, the fold and the rescan publish identical scores;
    a cap of 3 evicts, which restarts every fold."""
    live_cls, rescan_cls, kwargs = PAIRS[pair_index]
    incremental = live_cls(max_evidence_per_subject=cap, **kwargs)
    cold = rescan_cls(max_evidence_per_subject=cap, **kwargs)
    for batch in batches:
        for feedback in batch:
            incremental.record_feedback(feedback)
            cold.record_feedback(feedback)
        assert list(incremental.refresh().items()) == list(cold.refresh().items())


#: The local-trust mechanisms, whose refresh takes the pair ledger's sparse
#: branch once the population reaches ``DENSE_TRUST_THRESHOLD``.
LEDGER_PAIRS = PAIRS[3:]


@given(
    batches=feedback_schedules(),
    pair_index=st.integers(0, len(LEDGER_PAIRS) - 1),
    cap=st.sampled_from([None, 3]),
)
@settings(max_examples=60, deadline=None)
def test_pair_ledger_matches_cold_rescan_on_sparse_path(batches, pair_index, cap):
    """The ledger-built CSR publishes what the rescan publishes.

    The schedules reach 2-8 peers; lowering the threshold to 2 sends every
    multi-peer build of both twins through the sparse branch.
    """
    live_cls, rescan_cls, kwargs = LEDGER_PAIRS[pair_index]
    with mock.patch.object(backend, "DENSE_TRUST_THRESHOLD", 2):
        incremental = live_cls(max_evidence_per_subject=cap, **kwargs)
        cold = rescan_cls(max_evidence_per_subject=cap, **kwargs)
        for batch in batches:
            for feedback in batch:
                incremental.record_feedback(feedback)
                cold.record_feedback(feedback)
            assert list(incremental.refresh().items()) == list(cold.refresh().items())


@given(batches=feedback_schedules(), pair_index=st.integers(0, len(PAIRS) - 1))
@settings(max_examples=25, deadline=None)
def test_refresh_survives_clear_and_reset(batches, pair_index):
    """A cleared store cold-starts the incremental state, not stale sums.

    The reference, a fresh rescan twin, replays the post-reset evidence on
    the *same refresh schedule*: PowerTrust's power-node selection
    intentionally warm-starts from the previous refresh, so refresh cadence
    is part of a mechanism's semantics — what must match is a reset system
    versus a fresh one.
    """
    live_cls, rescan_cls, kwargs = PAIRS[pair_index]
    system = live_cls(**kwargs)
    reference = rescan_cls(**kwargs)
    for batch_index, batch in enumerate(batches):
        for feedback in batch:
            system.record_feedback(feedback)
        system.refresh()
        if batch_index == 0:
            system.reset()
            system.refresh()
    # Replay only the post-reset evidence into the twin, with the same
    # per-batch refresh cadence the reset system experienced.
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
def test_scenario_records_identical_across_acceleration_flags(scenario, monkeypatch):
    """Whole-pipeline byte-identity on the identity-churning scenarios.

    Whitewashing and churn retire peer identities mid-run — the hard case
    for incremental state (participant layouts change, matrices rebuild).
    The live pipeline runs three threshold passes inside one
    :func:`shared_simulations` block on the shared network; the reference
    runs each pass outside any block, on rescan twins and a freshly
    generated network per run.
    """
    kwargs = dict(
        scenarios=(scenario,),
        mechanisms=("average", "beta", "eigentrust", "powertrust"),
        n_users=18,
        rounds=10,
        seed=11,
    )
    thresholds = (0.05, 0.1, 0.2)
    with shared_simulations():
        live = [_matrix_records(detect_threshold=value, **kwargs) for value in thresholds]
    for name, twin in rescan.RESCAN_MECHANISMS.items():
        monkeypatch.setitem(REPUTATION_FACTORIES, name, twin)
    monkeypatch.setattr(runner, "cached_social_network", generate_social_network)
    with _profiling.profiled() as timer:
        reference = [_matrix_records(detect_threshold=value, **kwargs) for value in thresholds]
    assert timer.counts["simulate"] == len(thresholds) * 4
    assert timer.work["networks_generated"] == len(thresholds) * 4
    assert "folded.beta" not in timer.work
    assert live == reference


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
