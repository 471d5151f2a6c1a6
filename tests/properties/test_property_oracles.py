"""Property tests: the vectorized kernels agree with their loop oracles.

The references under ``tests/oracles`` are the pure-Python loops the
kernels replaced.  For any feedback history, any adversary mix and any
coupling parameterization, the kernels must compute the same numbers:
raw scores within 1e-9, published (quantized) scores, coupling
trajectories, interaction counts and whole simulated runs exactly equal.
The blocked power iteration must return the bytes and the step count of
the per-step loop it replaced, and the simulator's columnar transaction log
must hold the objects its object-per-transaction twin built.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import backend
from repro.core.coupling import CouplingDynamics, CouplingState, coupling_matrix
from repro.reputation.average import SimpleAverageReputation
from repro.reputation.beta import BetaReputation
from repro.reputation.eigentrust import EigenTrust
from repro.reputation.powertrust import PowerTrust
from repro.simulation.engine import InteractionSimulator, SimulationConfig
from repro.simulation.transaction import Feedback
from repro.socialnet.generators import SocialNetworkSpec, generate_social_network
from tests.oracles import coupling as coupling_oracle
from tests.oracles import rescan
from tests.oracles import reputation as reputation_oracle
from tests.oracles import simulation as simulation_oracle

SUBJECTS = ["s0", "s1", "s2", "s3", "s4"]
RATERS = ["s0", "s1", "r0", "r1", "r2"]

#: (live mechanism, its rescan twin, its loop-oracle twin, keywords).
PAIRS = [
    (SimpleAverageReputation, rescan.RescanAverage, reputation_oracle.OracleAverage, {}),
    (BetaReputation, rescan.RescanBeta, reputation_oracle.OracleBeta, {"forgetting": 1.0}),
    (BetaReputation, rescan.RescanBeta, reputation_oracle.OracleBeta, {"forgetting": 0.9}),
    (
        EigenTrust,
        rescan.RescanEigenTrust,
        reputation_oracle.OracleEigenTrust,
        {"pretrusted": ["s0", "s1"]},
    ),
    (
        PowerTrust,
        rescan.RescanPowerTrust,
        reputation_oracle.OraclePowerTrust,
        {"n_power_nodes": 2},
    ),
]


@st.composite
def feedback_schedules(draw):
    """A feedback sequence split into batches, refreshed between batches."""
    size = draw(st.integers(min_value=1, max_value=60))
    reports = [
        Feedback(
            transaction_id=index,
            time=draw(st.integers(min_value=0, max_value=30)),
            subject=draw(st.sampled_from(SUBJECTS)),
            rating=draw(st.sampled_from([0.0, 1.0])),
            rater=draw(st.one_of(st.none(), st.sampled_from(RATERS))),
        )
        for index in range(size)
    ]
    cuts = sorted(draw(st.lists(st.integers(0, size), max_size=3)))
    return [reports[start:end] for start, end in zip([0, *cuts], [*cuts, size], strict=True)]


@given(
    batches=feedback_schedules(),
    pair_index=st.integers(0, len(PAIRS) - 1),
    rescanning=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_published_scores_match_oracle(batches, pair_index, rescanning):
    """After every batch, the live mechanism publishes exactly what its loop
    oracle publishes, and so does its rescan twin."""
    live_cls, rescan_cls, oracle_cls, kwargs = PAIRS[pair_index]
    kernel = (rescan_cls if rescanning else live_cls)(**kwargs)
    oracle = oracle_cls(**kwargs)
    for batch in batches:
        for feedback in batch:
            kernel.record_feedback(feedback)
            oracle.record_feedback(feedback)
        raw_kernel = kernel.compute_scores()
        raw_oracle = oracle.compute_scores()
        assert raw_kernel.keys() == raw_oracle.keys()
        for peer, value in raw_oracle.items():
            assert raw_kernel[peer] == pytest.approx(value, abs=1e-9)
        # compute_scores above advanced PowerTrust's sticky power nodes
        # on both sides alike; publication recomputes from there.
        kernel._dirty = oracle._dirty = True
        assert list(kernel.refresh().items()) == list(oracle.refresh().items())
        if isinstance(kernel, PowerTrust):
            assert kernel.power_nodes == oracle.power_nodes


def _dynamics(draw):
    return CouplingDynamics(
        sharing_level=draw(st.floats(0.0, 1.0)),
        mechanism_power=draw(st.floats(0.0, 1.0)),
        policy_respect=draw(st.floats(0.0, 1.0)),
        trustworthy_fraction=draw(st.floats(0.0, 1.0)),
        damping=draw(st.floats(0.05, 1.0)),
    )


coupling_dynamics = st.composite(_dynamics)()
coupling_states = st.builds(
    CouplingState,
    trust=st.floats(0.0, 1.0),
    satisfaction=st.floats(0.0, 1.0),
    disclosure=st.floats(0.0, 1.0),
    honest_contribution=st.floats(0.0, 1.0),
)


@given(dynamics=coupling_dynamics, initial=coupling_states)
@settings(max_examples=60, deadline=None)
def test_coupling_run_matches_oracle(dynamics, initial):
    kernel_path = dynamics.run(initial, steps=80)
    oracle_path = coupling_oracle.run(dynamics, initial, steps=80)
    assert [state.as_dict() for state in kernel_path] == [
        state.as_dict() for state in oracle_path
    ]


@given(dynamics=coupling_dynamics, initials=st.lists(coupling_states, max_size=6))
@settings(max_examples=40, deadline=None)
def test_coupling_equilibria_match_oracle(dynamics, initials):
    kernel = dynamics.equilibria(initials, steps=120)
    oracle = coupling_oracle.equilibria(dynamics, initials, steps=120)
    assert [state.as_dict() for state in kernel] == [state.as_dict() for state in oracle]


@given(
    dynamics=coupling_dynamics,
    perturbation=st.floats(0.0, 1.0),
    response_steps=st.integers(1, 8),
)
@settings(max_examples=40, deadline=None)
def test_coupling_matrix_matches_oracle(dynamics, perturbation, response_steps):
    assert coupling_matrix(
        dynamics, perturbation=perturbation, response_steps=response_steps
    ) == coupling_oracle.coupling_matrix(
        dynamics, perturbation=perturbation, response_steps=response_steps
    )


BLOCK = backend.POWER_ITERATION_BLOCK


@st.composite
def power_iteration_cases(draw):
    """A local-trust matrix (dense below ``DENSE_TRUST_THRESHOLD`` peers, CSR
    from there up, with dangling rows), a restart vector and weight, a cap,
    and a tolerance that the iteration meets at a drawn step, or never."""
    threshold = backend.DENSE_TRUST_THRESHOLD
    n = draw(st.one_of(st.integers(1, threshold - 1), st.integers(threshold, threshold + 32)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Peers outside the rating set, or with only negative totals, dangle.
    raters = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])))
    n_reports = draw(st.integers(0, 4 * n)) if raters.size else 0
    build = rescan.dense_local_trust_matrix if n < threshold else backend.local_trust_matrix
    matrix = build(
        n,
        rng.choice(raters, n_reports) if n_reports else [],
        rng.integers(0, n, n_reports),
        rng.choice([-1.0, 1.0, 2.0], n_reports),
    )
    restart = rng.random(n) * (rng.random(n) < draw(st.sampled_from([0.2, 1.0])))
    restart = restart / restart.sum() if restart.sum() > 0 else np.full(n, 1.0 / n)
    restart_weight = draw(st.floats(0.0, 0.9))
    max_iterations = draw(st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 50, 100]))

    # The L1 deltas of the recurrence, to within round-off.
    dense = matrix.toarray() if hasattr(matrix, "toarray") else matrix
    step = (1.0 - restart_weight) * (dense.T + np.outer(restart, dense.sum(axis=1) <= 0.0))
    trust, deltas = restart, []
    for _ in range(max_iterations):
        updated = step @ trust + restart_weight * restart
        deltas.append(float(np.abs(updated - trust).sum()))
        trust = updated
    target = draw(st.integers(1, max_iterations))
    tolerance = deltas[target - 1] * draw(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-12, 2.0]))
    return matrix, restart, restart_weight, max_iterations, tolerance


@given(case=power_iteration_cases())
@settings(max_examples=150, deadline=None)
def test_blocked_power_iteration_matches_stepwise_loop(case):
    """The kernel checks convergence once per block of steps, yet returns
    the very iterate, and count, of a loop that checks after every step."""
    matrix, restart, restart_weight, max_iterations, tolerance = case
    kwargs = dict(
        restart_weight=restart_weight, max_iterations=max_iterations, tolerance=tolerance
    )
    trust, iterations = backend.power_iteration(matrix, restart, **kwargs)
    expected, expected_iterations = rescan.stepwise_power_iteration(matrix, restart, **kwargs)
    assert iterations == expected_iterations
    assert trust.tobytes() == expected.tobytes()


@given(
    rows=st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 1.0)), max_size=40),
    per_peer=st.floats(0.0, 4.0),
)
@settings(max_examples=80, deadline=None)
def test_interaction_counts_match_oracle(rows, per_peer):
    activities = [activity for activity, _ in rows]
    draws = [draw for _, draw in rows]
    online = [SimpleNamespace(user=SimpleNamespace(activity=a)) for a in activities]
    simulator = SimpleNamespace(config=SimpleNamespace(interactions_per_peer=per_peer))
    counts = InteractionSimulator._interaction_counts(simulator, online, draws)
    assert counts == simulation_oracle.interaction_counts(activities, per_peer, draws)


@given(
    seed=st.integers(0, 2**16),
    malicious=st.floats(0.0, 0.6),
    whitewashers=st.floats(0.0, 1.0),
    collusion=st.floats(0.0, 1.0),
    pair_index=st.integers(0, len(PAIRS) - 1),
)
@settings(max_examples=12, deadline=None)
def test_simulated_trajectories_match_oracle(
    seed, malicious, whitewashers, collusion, pair_index
):
    """Same seed, same adversary mix => byte-identical runs whether the
    mechanism and the round draws go through the kernels or the oracles."""

    def run(simulator_cls, mechanism_cls):
        graph = generate_social_network(
            SocialNetworkSpec(n_users=16, malicious_fraction=malicious, seed=seed)
        )
        reputation = mechanism_cls(**PAIRS[pair_index][3])
        result = simulator_cls(
            graph,
            SimulationConfig(
                rounds=5,
                seed=seed,
                whitewasher_fraction=whitewashers,
                collusion_fraction=collusion,
            ),
            reputation=reputation,
        ).run()
        return (
            [(t.consumer, t.provider, t.outcome.value, t.quality) for t in result.transactions],
            [(f.subject, f.rater, f.rating) for f in result.disclosed_feedbacks],
            reputation.refresh(),
        )

    kernel_cls, _, oracle_cls, _ = PAIRS[pair_index]
    assert run(InteractionSimulator, kernel_cls) == run(
        simulation_oracle.OracleSimulator, oracle_cls
    )


class RoundEndScores:
    """A round hook that keeps the scores published at each round's end."""

    def __init__(self):
        self.published = []

    def on_round_start(self, simulator, round_index):
        pass

    def on_round_end(self, simulator, round_index, scores):
        self.published.append(dict(scores))


class RecordingMechanism:
    """Wraps a mechanism and keeps every report it receives, in order."""

    def __init__(self, inner):
        self.inner = inner
        self.received = []

    def record_feedback(self, feedback):
        self.received.append(feedback)
        self.inner.record_feedback(feedback)

    def record_batch(self, batch):
        self.received.extend(batch.feedback(row) for row in range(len(batch)))
        self.inner.record_batch(batch)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@given(
    seed=st.integers(0, 2**16),
    malicious=st.floats(0.0, 0.6),
    traitors=st.floats(0.0, 1.0),
    whitewashers=st.floats(0.0, 1.0),
    selfish=st.floats(0.0, 1.0),
    collusion=st.floats(0.0, 1.0),
    sharing_level=st.floats(0.0, 1.0),
    anonymous=st.booleans(),
    pair_index=st.one_of(st.none(), st.integers(0, len(PAIRS) - 1)),
    observed=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_columnar_log_matches_eager_objects(
    seed,
    malicious,
    traitors,
    whitewashers,
    selfish,
    collusion,
    sharing_level,
    anonymous,
    pair_index,
    observed,
):
    """The columnar step and the object-per-transaction twin run the same
    transactions, and the reports a mechanism or an observer receives are
    the result's disclosed feedback, in order.  The twin hands each report
    to the mechanism alone; the engine hands over each round's reports as
    one batch, but before each observer call, so an observer that reads
    the mechanism mid-round sees every report disclosed so far and the
    scores the twin's observer sees."""

    def run(simulator_cls):
        graph = generate_social_network(
            SocialNetworkSpec(n_users=16, malicious_fraction=malicious, seed=seed)
        )
        reputation = None
        if pair_index is not None:
            mechanism_cls, _, _, kwargs = PAIRS[pair_index]
            reputation = RecordingMechanism(mechanism_cls(**kwargs))
        seen = []
        reads = []
        round_ends = RoundEndScores()

        def observe(feedback, *_):
            seen.append(feedback)
            if reputation is not None:
                reads.append((len(reputation.received), reputation.score(feedback.subject)))
        result = simulator_cls(
            graph,
            SimulationConfig(
                rounds=6,
                seed=seed,
                sharing_level=sharing_level,
                anonymous_feedback=anonymous,
                traitor_fraction=traitors,
                whitewasher_fraction=whitewashers,
                selfish_fraction=selfish,
                collusion_fraction=collusion,
            ),
            reputation=reputation,
            disclosure_observer=observe if observed else None,
            hooks=[round_ends],
        ).run()
        if reputation is not None:
            assert reputation.received == result.disclosed_feedbacks
        if observed:
            assert seen == result.disclosed_feedbacks
            assert [received for received, _ in reads] == list(range(1, len(reads) + 1))
        return (
            reads,
            round_ends.published,
            result.transactions,
            result.feedbacks,
            result.disclosed_feedbacks,
            result.disclosure_rate,
            result.metrics.rounds,
            [
                (p.peer_id, p.served_count, p.consumed_count, p.good_received, p.bad_received)
                for p in result.directory.peers()
            ],
            None if reputation is None else reputation.refresh(),
        )

    assert run(InteractionSimulator) == run(simulation_oracle.EagerSimulator)
