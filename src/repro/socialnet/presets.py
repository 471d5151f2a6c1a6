"""Named social-network presets.

Presets give the examples and experiments recognizable starting points —
"a Facebook-like friendship network", "a P2P file-sharing swarm", "a
professional network" — without repeating parameter blocks everywhere.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.socialnet.generators import SocialNetworkSpec

#: Named presets: recognisable social-network shapes at laptop scale.
NETWORK_PRESETS: dict[str, SocialNetworkSpec] = {
    # Dense friend graph with strong communities and privacy-aware users.
    "friendship": SocialNetworkSpec(
        n_users=120,
        topology="sbm",
        n_communities=6,
        mean_degree=10.0,
        inter_community_probability=0.02,
        malicious_fraction=0.05,
        privacy_concern_range=(0.4, 0.95),
    ),
    # Scale-free swarm with a sizeable dishonest population (the reputation
    # literature's classic setting).
    "file-sharing": SocialNetworkSpec(
        n_users=150,
        topology="barabasi_albert",
        mean_degree=6.0,
        malicious_fraction=0.3,
        privacy_concern_range=(0.1, 0.6),
    ),
    # Small-world acquaintance network, mostly honest, moderately private.
    "professional": SocialNetworkSpec(
        n_users=80,
        topology="watts_strogatz",
        mean_degree=8.0,
        rewiring_probability=0.2,
        malicious_fraction=0.1,
        privacy_concern_range=(0.3, 0.8),
    ),
    # Tiny network for demos and tests.
    "village": SocialNetworkSpec(
        n_users=25,
        topology="watts_strogatz",
        mean_degree=4.0,
        malicious_fraction=0.15,
    ),
    # Hostile environment for robustness studies: scale-free topology (hub
    # capture is what attacks exploit), a third of the population dishonest,
    # and low privacy concern so the reputation mechanism sees almost all
    # evidence — attacks are measured at full mechanism strength.
    "adversarial-lab": SocialNetworkSpec(
        n_users=60,
        topology="barabasi_albert",
        mean_degree=6.0,
        malicious_fraction=0.35,
        privacy_concern_range=(0.0, 0.3),
    ),
}


def preset_spec(name: str, *, seed: int = 0) -> SocialNetworkSpec:
    """The :class:`SocialNetworkSpec` behind a preset, reseeded."""
    try:
        base = NETWORK_PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown network preset {name!r}; available: {sorted(NETWORK_PRESETS)}"
        ) from None
    return SocialNetworkSpec(
        n_users=base.n_users,
        topology=base.topology,
        mean_degree=base.mean_degree,
        malicious_fraction=base.malicious_fraction,
        rewiring_probability=base.rewiring_probability,
        n_communities=base.n_communities,
        inter_community_probability=base.inter_community_probability,
        privacy_concern_range=base.privacy_concern_range,
        seed=seed,
    )
