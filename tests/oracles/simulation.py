"""Loop reference for the simulator's per-round interaction counts."""

from __future__ import annotations

from collections.abc import Sequence

from repro.simulation.engine import InteractionSimulator
from repro.simulation.peer import Peer


def interaction_counts(
    activities: Sequence[float], interactions_per_peer: float, draws: Sequence[float]
) -> list[int]:
    """``int(e) + (draw < e - int(e))`` with ``e = activity · interactions_per_peer``,
    one peer at a time; the loop form of
    :func:`repro.core.backend.interaction_counts`."""
    counts: list[int] = []
    for activity, draw in zip(activities, draws, strict=True):
        expected = activity * interactions_per_peer
        base = int(expected)
        counts.append(base + (1 if draw < (expected - base) else 0))
    return counts


class OracleSimulator(InteractionSimulator):
    """An :class:`InteractionSimulator` whose round draws go through the
    loop reference instead of the array kernel."""

    def _interaction_counts(self, online: list[Peer], draws: list[float]) -> list[int]:
        return interaction_counts(
            [peer.user.activity for peer in online], self.config.interactions_per_peer, draws
        )
