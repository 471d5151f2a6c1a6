"""Property tests: the vectorized kernels agree with their loop oracles.

The references under ``tests/oracles`` are the pure-Python loops the
kernels replaced.  For any feedback history, any adversary mix and any
coupling parameterization, the kernels must compute the same numbers:
raw scores within 1e-9, published (quantized) scores, coupling
trajectories, interaction counts and whole simulated runs exactly equal.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import accel
from repro.core.coupling import CouplingDynamics, CouplingState, coupling_matrix
from repro.reputation.average import SimpleAverageReputation
from repro.reputation.beta import BetaReputation
from repro.reputation.eigentrust import EigenTrust
from repro.reputation.powertrust import PowerTrust
from repro.simulation.engine import InteractionSimulator, SimulationConfig
from repro.simulation.transaction import Feedback
from repro.socialnet.generators import SocialNetworkSpec, generate_social_network
from tests.oracles import coupling as coupling_oracle
from tests.oracles import reputation as reputation_oracle
from tests.oracles import simulation as simulation_oracle

SUBJECTS = ["s0", "s1", "s2", "s3", "s4"]
RATERS = ["s0", "s1", "r0", "r1", "r2"]

#: (kernel-backed mechanism, its loop-oracle twin) factory pairs.
PAIRS = [
    (SimpleAverageReputation, reputation_oracle.OracleAverage, {}),
    (BetaReputation, reputation_oracle.OracleBeta, {"forgetting": 1.0}),
    (BetaReputation, reputation_oracle.OracleBeta, {"forgetting": 0.9}),
    (EigenTrust, reputation_oracle.OracleEigenTrust, {"pretrusted": ["s0", "s1"]}),
    (PowerTrust, reputation_oracle.OraclePowerTrust, {"n_power_nodes": 2}),
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
    incremental=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_published_scores_match_oracle(batches, pair_index, incremental):
    """After every batch, the kernel-backed mechanism publishes exactly what
    its loop oracle publishes — on the incremental fold and on the cold
    kernel path alike."""
    kernel_cls, oracle_cls, kwargs = PAIRS[pair_index]
    with accel.override(incremental_refresh=incremental, disable_all=False):
        kernel = kernel_cls(**kwargs)
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
        reputation = mechanism_cls(**PAIRS[pair_index][2])
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

    kernel_cls, oracle_cls, _ = PAIRS[pair_index]
    assert run(InteractionSimulator, kernel_cls) == run(
        simulation_oracle.OracleSimulator, oracle_cls
    )
