"""Property-based tests for graph generation, workloads and shared helpers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import clamp, normalize_distribution, normalize_weights
from repro.allocation.workload import WorkloadGenerator, WorkloadSpec
from repro.socialnet.generators import (
    TOPOLOGIES,
    SocialNetworkSpec,
    generate_social_network,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@given(
    n_users=st.integers(min_value=5, max_value=60),
    topology=st.sampled_from(TOPOLOGIES),
    malicious=unit,
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_generated_networks_are_connected_with_the_requested_population(
    n_users, topology, malicious, seed
):
    spec = SocialNetworkSpec(
        n_users=n_users, topology=topology, malicious_fraction=malicious, seed=seed
    )
    graph = generate_social_network(spec)
    assert len(graph) == n_users
    assert graph.is_connected()
    dishonest = sum(1 for user in graph.users() if not user.is_honest)
    assert dishonest == int(round(malicious * n_users))


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_generation_is_deterministic_per_seed(seed):
    spec = SocialNetworkSpec(n_users=20, seed=seed)
    first = generate_social_network(spec)
    second = generate_social_network(spec)
    assert first.user_ids() == second.user_ids()
    assert first.number_of_edges() == second.number_of_edges()


@given(
    skew=unit,
    queries=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=1000),
    rounds=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=30, deadline=None)
def test_workload_ids_unique_and_topics_valid(skew, queries, seed, rounds):
    spec = WorkloadSpec(topic_skew=skew, queries_per_consumer_per_round=queries, seed=seed)
    generator = WorkloadGenerator(spec, ["c1", "c2", "c3"])
    ids = []
    for batch in generator.rounds(rounds):
        for query in batch:
            ids.append(query.query_id)
            assert query.topic in spec.topics
            assert spec.cost_range[0] <= query.cost <= spec.cost_range[1]
    assert len(ids) == len(set(ids))


@given(value=st.floats(allow_nan=False, allow_infinity=False))
def test_clamp_always_lands_in_the_interval(value):
    assert 0.0 <= clamp(value) <= 1.0


@given(weights=st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1, max_size=10))
def test_normalized_weights_sum_to_one_and_preserve_order(weights):
    normalized = normalize_weights(weights)
    assert abs(sum(normalized) - 1.0) < 1e-9
    # IEEE division by the same positive total is monotone, but two nearly
    # equal weights may round to the same normalized value — so order is
    # preserved in the non-strict sense only.
    for i in range(len(weights)):
        for j in range(len(weights)):
            if weights[i] < weights[j]:
                assert normalized[i] <= normalized[j]


@given(
    values=st.dictionaries(
        st.text(min_size=1, max_size=3),
        st.floats(min_value=0.0, max_value=100.0),
        min_size=1,
        max_size=10,
    )
)
def test_normalize_distribution_is_a_probability_vector(values):
    distribution = normalize_distribution(values)
    assert abs(sum(distribution.values()) - 1.0) < 1e-9
    assert all(value >= 0 for value in distribution.values())
