"""Community structure helpers.

Communities could matter in two places: interaction traces denser inside
communities (which biases who learns whose reputation locally), and the
"global vision" versus "local vision" of satisfaction discussed in Section 3
as community-local versus network-global aggregation.  No experiment uses
them yet; only the tests exercise this module.
"""

from __future__ import annotations


import networkx as nx

from repro.socialnet.graph import SocialGraph


def community_partition(graph: SocialGraph, *, seed: int = 0) -> dict[str, int]:
    """Partition users into communities.

    Users generated with an explicit community label (SBM topologies) keep it;
    otherwise greedy modularity maximization on the topology is used.  The
    result maps every user id to a community index.
    """
    explicit = {
        user.user_id: user.community
        for user in graph.users()
        if user.community is not None
    }
    if len(explicit) == len(graph):
        return {uid: int(label) for uid, label in explicit.items()}

    nx_graph = graph.to_networkx()
    if nx_graph.number_of_nodes() == 0:
        return {}
    communities = nx.algorithms.community.greedy_modularity_communities(nx_graph)
    partition: dict[str, int] = {}
    for index, members in enumerate(communities):
        for member in members:
            partition[member] = index
    return partition


def modularity(graph: SocialGraph, partition: dict[str, int]) -> float:
    """Newman modularity of a partition over the social graph."""
    nx_graph = graph.to_networkx()
    if nx_graph.number_of_edges() == 0:
        return 0.0
    groups: dict[int, list[str]] = {}
    for user_id, label in partition.items():
        groups.setdefault(label, []).append(user_id)
    return float(nx.algorithms.community.modularity(nx_graph, list(groups.values())))


def intra_community_fraction(graph: SocialGraph, partition: dict[str, int]) -> float:
    """Fraction of edges whose endpoints share a community (1.0 if no edges)."""
    nx_graph = graph.to_networkx()
    edges = list(nx_graph.edges())
    if not edges:
        return 1.0
    intra = sum(1 for a, b in edges if partition.get(a) == partition.get(b))
    return intra / len(edges)
