"""Synthetic social-network generation.

The paper's experiments require "large-scale networks composed by numerous
autonomous and potentially untrusted participants" but no dataset is
available.  :func:`generate_social_network` builds laptop-scale synthetic
topologies with the usual models (Erdős–Rényi, Barabási–Albert,
Watts–Strogatz, stochastic block model) and populates them with
:class:`~repro.socialnet.user.User` objects whose behavioural parameters
(honesty, competence, activity, privacy concern) are drawn from the
specification, including an explicit malicious fraction for the adversarial
experiments.  The topologies come from :mod:`repro.socialnet.topology`, a
port of networkx's generators that yields the same graphs for the same
seed.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field

from repro import _profiling
from repro._util import require_positive, require_unit_interval
from repro.errors import ConfigurationError
from repro.socialnet import topology
from repro.socialnet.graph import SocialGraph
from repro.socialnet.user import User, standard_profile

#: Topology model identifiers accepted by :class:`SocialNetworkSpec`.
TOPOLOGIES = ("erdos_renyi", "barabasi_albert", "watts_strogatz", "sbm")


@dataclass
class SocialNetworkSpec:
    """Specification of a synthetic social network.

    Parameters
    ----------
    n_users:
        Number of participants.
    topology:
        One of ``"erdos_renyi"``, ``"barabasi_albert"``, ``"watts_strogatz"``
        or ``"sbm"`` (stochastic block model with ``n_communities`` blocks).
    mean_degree:
        Target average degree; translated into the per-model parameter.
    malicious_fraction:
        Fraction of users created with low honesty (drawn in ``[0, 0.3]``);
        the rest are honest (honesty in ``[0.7, 1.0]``).
    rewiring_probability:
        Watts–Strogatz rewiring probability.
    n_communities / inter_community_probability:
        Stochastic-block-model parameters.
    privacy_concern_range:
        Uniform range from which each user's privacy concern is drawn.
    """

    n_users: int = 100
    topology: str = "barabasi_albert"
    mean_degree: float = 6.0
    malicious_fraction: float = 0.2
    rewiring_probability: float = 0.1
    n_communities: int = 4
    inter_community_probability: float = 0.01
    privacy_concern_range: tuple = (0.2, 0.9)
    seed: int = 0
    extra: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_users < 2:
            raise ConfigurationError("n_users must be at least 2")
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}"
            )
        require_positive(self.mean_degree, "mean_degree")
        require_unit_interval(self.malicious_fraction, "malicious_fraction")
        require_unit_interval(self.rewiring_probability, "rewiring_probability")
        require_unit_interval(self.inter_community_probability, "inter_community_probability")
        if self.n_communities < 1:
            raise ConfigurationError("n_communities must be at least 1")
        low, high = self.privacy_concern_range
        require_unit_interval(low, "privacy_concern_range low")
        require_unit_interval(high, "privacy_concern_range high")
        if low > high:
            raise ConfigurationError("privacy_concern_range must be (low, high)")


def _build_topology(spec: SocialNetworkSpec) -> tuple[topology.Adjacency, dict[int, int] | None]:
    """The bare topology for the specification, and each node's block
    when the model is the stochastic block model."""
    n = spec.n_users
    if spec.topology == "erdos_renyi":
        p = min(1.0, spec.mean_degree / max(1, n - 1))
        return topology.gnp_random_graph(n, p, spec.seed), None
    if spec.topology == "barabasi_albert":
        m = max(1, min(n - 1, int(round(spec.mean_degree / 2.0))))
        return topology.barabasi_albert_graph(n, m, spec.seed), None
    if spec.topology == "watts_strogatz":
        k = max(2, int(round(spec.mean_degree)))
        if k % 2 == 1:
            k += 1
        k = min(k, n - 1 if (n - 1) % 2 == 0 else n - 2)
        k = max(2, k)
        return topology.watts_strogatz_graph(n, k, spec.rewiring_probability, spec.seed), None
    # sbm
    sizes = [n // spec.n_communities] * spec.n_communities
    sizes[0] += n - sum(sizes)
    p_in = min(1.0, spec.mean_degree / max(1, (n / spec.n_communities)))
    probs = [
        [p_in if i == j else spec.inter_community_probability for j in range(spec.n_communities)]
        for i in range(spec.n_communities)
    ]
    return topology.stochastic_block_model(sizes, probs, spec.seed)


def _ensure_connected(graph: topology.Adjacency, rng: random.Random) -> None:
    """Connect stray components by adding one random bridge edge per component.

    Experiments assume reachability (reputation propagation, social distance);
    a handful of bridge edges does not change the topology's character.
    """
    components = list(topology.connected_components(graph))
    if len(components) <= 1:
        return
    anchor = list(components[0])
    for component in components[1:]:
        a = rng.choice(anchor)
        b = rng.choice(list(component))
        topology.add_edge(graph, a, b)
        anchor.extend(component)


def populate_users(
    node_ids: list[int],
    spec: SocialNetworkSpec,
    rng: random.Random,
    communities: dict[int, int] | None = None,
) -> list[User]:
    """Create :class:`User` objects for the given node identifiers.

    The first ``malicious_fraction`` share of users (after shuffling) receives
    low honesty; everyone else is honest.  Competence and activity are drawn
    uniformly so providers are heterogeneous, which the satisfaction model
    needs to express preferences.
    """
    shuffled = list(node_ids)
    rng.shuffle(shuffled)
    n_malicious = int(round(spec.malicious_fraction * len(shuffled)))
    malicious_ids = set(shuffled[:n_malicious])
    low_pc, high_pc = spec.privacy_concern_range

    users = []
    for node in node_ids:
        user_id = f"u{node}"
        if node in malicious_ids:
            honesty = rng.uniform(0.0, 0.3)
        else:
            honesty = rng.uniform(0.7, 1.0)
        user = User(
            user_id=user_id,
            profile=standard_profile(user_id, age=rng.randint(18, 80)),
            honesty=honesty,
            competence=rng.uniform(0.3, 1.0),
            activity=rng.uniform(0.1, 1.0),
            privacy_concern=rng.uniform(low_pc, high_pc),
            community=communities.get(node) if communities else None,
        )
        users.append(user)
    return users


def generate_social_network(spec: SocialNetworkSpec) -> SocialGraph:
    """Generate a connected :class:`SocialGraph` matching the specification."""
    _profiling.add_work("networks_generated", 1)
    rng = random.Random(spec.seed)
    graph, communities = _build_topology(spec)
    _ensure_connected(graph, rng)

    users = populate_users(list(graph), spec, rng, communities)
    social = SocialGraph(users)
    for a, b in topology.edges(graph):
        social.add_relationship(f"u{a}", f"u{b}", strength=rng.uniform(0.3, 1.0))
    return social


# -- network cache ---------------------------------------------------------------

#: Most-recently-used cache of generated networks, keyed by specification.
#: Small on purpose: entries hold whole graphs, and the sharing pattern this
#: serves (every mechanism column of a robustness row, repeated sweep tasks)
#: cycles through a handful of specifications at a time.
_NETWORK_CACHE_SIZE = 8
_NETWORK_CACHE: OrderedDict[tuple, tuple[SocialGraph, int]] = OrderedDict()


def _spec_cache_key(spec: SocialNetworkSpec) -> tuple | None:
    """A hashable identity for the spec, or ``None`` when it has none
    (unhashable ``extra`` payloads fall back to fresh generation)."""
    try:
        key = (
            spec.n_users,
            spec.topology,
            spec.mean_degree,
            spec.malicious_fraction,
            spec.rewiring_probability,
            spec.n_communities,
            spec.inter_community_probability,
            tuple(spec.privacy_concern_range),
            spec.seed,
            tuple(sorted(spec.extra.items())),
        )
        hash(key)
    except TypeError:
        return None
    return key


def clear_network_cache() -> None:
    """Drop every cached network (tests and benchmarks use this)."""
    _NETWORK_CACHE.clear()


def cached_social_network(spec: SocialNetworkSpec) -> SocialGraph:
    """A shared, read-only network for the specification.

    Generation is deterministic in the spec, so callers that only *read*
    the graph (every experiment pipeline; simulations mutate peers, never
    the graph) can share one instance instead of regenerating it per
    (scenario × mechanism) cell or sweep task.  The cache records the
    graph's mutation :attr:`~repro.socialnet.graph.SocialGraph.version` at
    store time and regenerates on mismatch, so a consumer that does mutate
    a shared graph costs a rebuild rather than corrupting later runs.
    Callers that need to mutate should call :func:`generate_social_network`
    instead.
    """
    key = _spec_cache_key(spec)
    if key is None:
        return generate_social_network(spec)
    cached = _NETWORK_CACHE.get(key)
    if cached is not None:
        graph, version = cached
        if graph.version == version:
            _NETWORK_CACHE.move_to_end(key)
            return graph
        del _NETWORK_CACHE[key]
    graph = generate_social_network(spec)
    _NETWORK_CACHE[key] = (graph, graph.version)
    while len(_NETWORK_CACHE) > _NETWORK_CACHE_SIZE:
        _NETWORK_CACHE.popitem(last=False)
    return graph
