"""The mechanism registry: reputation systems selected by name.

The experiment harness, the scenario runner, the live service and the CLI
all pick a mechanism by its registry name; this module is the one place
that maps those names to constructors.
"""

from repro.reputation.average import SimpleAverageReputation
from repro.reputation.base import ReputationSystem
from repro.reputation.beta import BetaReputation
from repro.reputation.eigentrust import EigenTrust
from repro.reputation.powertrust import PowerTrust
from repro.reputation.trustme import TrustMeReputation

#: Factory registry mapping mechanism names to constructors, used by the
#: experiment harness and the CLI to select a mechanism by name.
REPUTATION_FACTORIES = {
    "average": SimpleAverageReputation,
    "beta": BetaReputation,
    "eigentrust": EigenTrust,
    "powertrust": PowerTrust,
    "trustme": TrustMeReputation,
}


def make_reputation_system(name: str, **kwargs: object) -> ReputationSystem:
    """Instantiate a reputation mechanism by registry name."""
    try:
        factory = REPUTATION_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown reputation system {name!r}; expected one of "
            f"{sorted(REPUTATION_FACTORIES)}"
        ) from None
    return factory(**kwargs)
