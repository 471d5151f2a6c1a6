"""The mechanism registry: reputation systems selected by name.

The experiment harness, the scenario runner, the live service and the CLI
all pick a mechanism by its registry name; this module is the one place
that maps those names to constructors.

Each factory imports its mechanism's module when it first builds one, so
a process loads only the mechanisms it runs: a Beta, average or TrustMe
server never imports the NumPy and SciPy kernels of EigenTrust and
PowerTrust.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.reputation.base import ReputationSystem


def _average(**kwargs: Any) -> ReputationSystem:
    from repro.reputation.average import SimpleAverageReputation

    return SimpleAverageReputation(**kwargs)


def _beta(**kwargs: Any) -> ReputationSystem:
    from repro.reputation.beta import BetaReputation

    return BetaReputation(**kwargs)


def _eigentrust(**kwargs: Any) -> ReputationSystem:
    from repro.reputation.eigentrust import EigenTrust

    return EigenTrust(**kwargs)


def _powertrust(**kwargs: Any) -> ReputationSystem:
    from repro.reputation.powertrust import PowerTrust

    return PowerTrust(**kwargs)


def _trustme(**kwargs: Any) -> ReputationSystem:
    from repro.reputation.trustme import TrustMeReputation

    return TrustMeReputation(**kwargs)


#: Factory registry mapping mechanism names to constructors, used by the
#: experiment harness and the CLI to select a mechanism by name.
REPUTATION_FACTORIES: dict[str, Callable[..., ReputationSystem]] = {
    "average": _average,
    "beta": _beta,
    "eigentrust": _eigentrust,
    "powertrust": _powertrust,
    "trustme": _trustme,
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
