"""The port of networkx's generators and components, held to networkx itself.

Each ported generator must build networkx 3.6's graph for the same seed:
the same node order, each node's neighbours in the same order, the same
``edges()`` walk, the same components, and for the stochastic block model
the same blocks.  The generator properties need networkx 3.6.x, the
release the port copies (its block model draws one extra number per
diagonal block); with another release installed they skip, and the
``network/*`` golden digests pin the bytes on every Python version.
:class:`SocialGraph` keeps ``networkx.Graph``'s ordering semantics and
statistics under any release.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.socialnet import topology
from repro.socialnet.graph import SocialGraph
from repro.socialnet.user import User

needs_networkx_36 = pytest.mark.skipif(
    not nx.__version__.startswith("3.6."),
    reason=f"the port copies networkx 3.6.x; networkx {nx.__version__} is installed",
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=2, max_value=97)
#: Edge probabilities.  Below about 1e-16, ``1 - p`` rounds to 1 and the
#: block model's skip length divides by zero, in networkx as in the port.
probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=1e-9, max_value=1.0))


def assert_same_graph(ours, theirs):
    """Node order, neighbour order, edge walk and components all agree."""
    assert [(node, list(ties)) for node, ties in ours.items()] == [
        (node, list(ties)) for node, ties in theirs.adj.items()
    ]
    assert list(topology.edges(ours)) == list(theirs.edges())
    assert [list(part) for part in topology.connected_components(ours)] == [
        list(part) for part in nx.connected_components(theirs)
    ]


@needs_networkx_36
@given(n=sizes, p=probabilities, seed=seeds)
@settings(max_examples=150, deadline=None)
def test_gnp_random_graph_matches_networkx(n, p, seed):
    assert_same_graph(topology.gnp_random_graph(n, p, seed), nx.gnp_random_graph(n, p, seed=seed))


@needs_networkx_36
@given(n=sizes, m=st.integers(min_value=1, max_value=8), seed=seeds)
@settings(max_examples=100, deadline=None)
def test_barabasi_albert_graph_matches_networkx(n, m, seed):
    m = min(m, n - 1)
    assert_same_graph(
        topology.barabasi_albert_graph(n, m, seed), nx.barabasi_albert_graph(n, m, seed=seed)
    )


@needs_networkx_36
@given(n=sizes, half_k=st.integers(min_value=1, max_value=6), p=probabilities, seed=seeds)
@settings(max_examples=150, deadline=None)
def test_watts_strogatz_graph_matches_networkx(n, half_k, p, seed):
    k = min(2 * half_k, n)
    assert_same_graph(
        topology.watts_strogatz_graph(n, k, p, seed), nx.watts_strogatz_graph(n, k, p, seed=seed)
    )


@st.composite
def block_models(draw):
    """Block sizes and a symmetric probability matrix."""
    blocks = draw(st.lists(st.integers(min_value=0, max_value=24), min_size=1, max_size=6))
    count = len(blocks)
    p = [[0.0] * count for _ in range(count)]
    for i in range(count):
        for j in range(i, count):
            p[i][j] = p[j][i] = draw(probabilities)
    return blocks, p


@needs_networkx_36
@given(model=block_models(), seed=seeds)
@settings(max_examples=150, deadline=None)
def test_stochastic_block_model_matches_networkx(model, seed):
    blocks, p = model
    ours, membership = topology.stochastic_block_model(blocks, p, seed)
    theirs = nx.stochastic_block_model(blocks, p, seed=seed)
    assert_same_graph(ours, theirs)
    assert list(membership.items()) == [
        (node, data["block"]) for node, data in theirs.nodes(data=True)
    ]


def test_the_block_model_draws_once_more_per_diagonal_block_below_one():
    """Two empty diagonal blocks at p = 0.5 consume one draw each, so the
    third block's six pairs read the stream from its third number; at
    p = 1 they consume none."""
    draws = random.Random(3).random
    stream = [draws() for _ in range(8)]
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for p_empty, offset in ((0.5, 2), (1.0, 0)):
        p = [[p_empty, 0.0, 0.0], [0.0, p_empty, 0.0], [0.0, 0.0, 0.5]]
        graph, _ = topology.stochastic_block_model([0, 0, 4], p, seed=3)
        drawn = stream[offset : offset + len(pairs)]
        expected = [pair for pair, r in zip(pairs, drawn, strict=True) if r < 0.5]
        assert list(topology.edges(graph)) == expected


@st.composite
def social_graph_scripts(draw):
    """A sequence of user and tie additions and user removals."""
    names = [f"p{i}" for i in range(draw(st.integers(min_value=1, max_value=14)))]
    script = [("user", name) for name in names]
    operation = st.one_of(
        st.tuples(st.just("user"), st.sampled_from(names)),
        st.tuples(
            st.just("tie"),
            st.sampled_from(names),
            st.sampled_from(names),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        st.tuples(st.just("remove"), st.sampled_from(names)),
    )
    return script + draw(st.lists(operation, max_size=60))


@given(script=social_graph_scripts())
@settings(max_examples=150, deadline=None)
def test_social_graph_keeps_networkx_orders_and_statistics(script):
    graph = SocialGraph()
    reference = nx.Graph()
    for operation in script:
        kind, name = operation[0], operation[1]
        if kind == "user":
            graph.add_user(User(user_id=name))
            reference.add_node(name)
        elif kind == "remove" and name in graph:
            graph.remove_user(name)
            reference.remove_node(name)
        elif kind == "tie" and name in graph and operation[2] in graph and name != operation[2]:
            graph.add_relationship(name, operation[2], strength=operation[3])
            reference.add_edge(name, operation[2], strength=operation[3])
    ids = list(reference.nodes())
    assert graph.user_ids() == ids
    assert [graph.neighbors(uid) for uid in ids] == [list(reference.adj[uid]) for uid in ids]
    assert [graph.tie_strength(a, b) for a, b in reference.edges()] == [
        data["strength"] for _, _, data in reference.edges(data=True)
    ]
    assert [graph.degree(uid) for uid in ids] == [reference.degree(uid) for uid in ids]
    assert graph.number_of_edges() == reference.number_of_edges()
    if not ids:
        return
    assert graph.clustering_coefficient() == nx.average_clustering(reference)
    assert graph.is_connected() == nx.is_connected(reference)
    assert set(graph.largest_component()) == max(nx.connected_components(reference), key=len)
    lengths = dict(nx.all_pairs_shortest_path_length(reference))
    for a in ids:
        for b in ids:
            assert graph.social_distance(a, b) == lengths[a].get(b)

