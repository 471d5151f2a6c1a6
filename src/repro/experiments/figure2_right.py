"""Experiment E-F2R: Figure 2 (right), the mutual impact of the settings.

The paper's claim: "the less the amount of shared information is, the most
the privacy satisfaction is.  However, that implies a low reputation
satisfaction range. [...] the same global satisfaction can be reached by
using different settings."

The experiment sweeps the information-sharing level σ and reports, for each
level, the privacy facet, the reputation facet, the global satisfaction and
the resulting trust — once with the fast analytic facet model and once with
full simulation-backed scenarios.  The reproduced *shape* is: privacy
monotonically non-increasing in σ, reputation monotonically non-decreasing,
satisfaction and trust single-peaked at an interior σ, and at least one
iso-satisfaction pair of distinct settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.config import SystemSettings
from repro.core.tradeoff import SettingsExplorer, TradeoffPoint
from repro.experiments.reporting import format_table
from repro.experiments.scenario import Scenario, ScenarioConfig


@dataclass
class Figure2RightResult:
    """Analytic and simulated tradeoff curves plus derived observations."""

    analytic_points: list[TradeoffPoint]
    simulated_points: list[TradeoffPoint]
    iso_satisfaction_pairs: list[tuple]
    best_analytic: TradeoffPoint
    best_simulated: TradeoffPoint | None


def _simulate_point(
    settings: SystemSettings, *, n_users: int, rounds: int, seed: int
) -> TradeoffPoint:
    result = Scenario(
        ScenarioConfig(
            n_users=n_users,
            rounds=rounds,
            seed=seed,
            settings=settings,
        )
    ).run()
    return TradeoffPoint(
        settings=settings,
        facets=result.facets,
        trust=result.trust.global_trust,
        in_area_a=result.trust.in_area_a,
    )


def run(
    *,
    levels: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    simulate: bool = True,
    n_users: int = 40,
    rounds: int = 20,
    seed: int = 0,
) -> Figure2RightResult:
    """Run E-F2R; set ``simulate=False`` for the analytic-only fast path."""
    explorer = SettingsExplorer()
    analytic_points = explorer.sweep_sharing_levels(list(levels))

    simulated_points: list[TradeoffPoint] = []
    if simulate:
        for level in levels:
            settings = SystemSettings(sharing_level=level)
            simulated_points.append(
                _simulate_point(
                    settings,
                    n_users=n_users,
                    rounds=rounds,
                    seed=seed,
                )
            )

    dense_points = explorer.sweep_sharing_levels(resolution=41)
    pairs = explorer.iso_satisfaction_pairs(dense_points)
    return Figure2RightResult(
        analytic_points=analytic_points,
        simulated_points=simulated_points,
        iso_satisfaction_pairs=pairs,
        best_analytic=explorer.best(analytic_points),
        best_simulated=explorer.best(simulated_points) if simulated_points else None,
    )


def summarize(result: Figure2RightResult) -> dict:
    """Flatten E-F2R to record metrics (curve shape and optima)."""
    metrics: dict = {
        "n_analytic_points": len(result.analytic_points),
        "n_simulated_points": len(result.simulated_points),
        "n_iso_satisfaction_pairs": len(result.iso_satisfaction_pairs),
        "best_analytic_sharing_level": result.best_analytic.sharing_level,
        "best_analytic_trust": result.best_analytic.trust,
    }
    if result.best_simulated is not None:
        metrics["best_simulated_sharing_level"] = result.best_simulated.sharing_level
        metrics["best_simulated_trust"] = result.best_simulated.trust
    # repr keeps the key exact: rounded keys would collide for close levels.
    for point in result.analytic_points:
        prefix = f"analytic[{point.sharing_level!r}]"
        metrics[f"{prefix}.privacy"] = point.facets.privacy
        metrics[f"{prefix}.reputation"] = point.facets.reputation
        metrics[f"{prefix}.satisfaction"] = point.facets.satisfaction
        metrics[f"{prefix}.trust"] = point.trust
    return metrics


def report(result: Figure2RightResult) -> str:
    headers = ["sharing level", "privacy", "reputation", "satisfaction", "trust", "in Area A"]
    analytic_rows = [
        (
            point.sharing_level,
            point.facets.privacy,
            point.facets.reputation,
            point.facets.satisfaction,
            point.trust,
            point.in_area_a,
        )
        for point in result.analytic_points
    ]
    blocks = [
        format_table(
            headers,
            analytic_rows,
            title="E-F2R: facet response to the information-sharing level (analytic model)",
        )
    ]
    if result.simulated_points:
        simulated_rows = [
            (
                point.sharing_level,
                point.facets.privacy,
                point.facets.reputation,
                point.facets.satisfaction,
                point.trust,
                point.in_area_a,
            )
            for point in result.simulated_points
        ]
        blocks.append(
            format_table(
                headers,
                simulated_rows,
                title="E-F2R: facet response (full simulation)",
            )
        )
    blocks.append(
        f"Trust-maximizing sharing level (analytic): "
        f"{result.best_analytic.sharing_level:.2f} "
        f"(trust={result.best_analytic.trust:.3f})"
    )
    if result.best_simulated is not None:
        blocks.append(
            f"Trust-maximizing sharing level (simulated): "
            f"{result.best_simulated.sharing_level:.2f} "
            f"(trust={result.best_simulated.trust:.3f})"
        )
    blocks.append(
        f"Iso-satisfaction setting pairs found (same satisfaction, different "
        f"settings): {len(result.iso_satisfaction_pairs)}"
    )
    if result.iso_satisfaction_pairs:
        first, second = result.iso_satisfaction_pairs[0]
        blocks.append(
            "Example: sharing levels "
            f"{first.sharing_level:.2f} and {second.sharing_level:.2f} both reach "
            f"satisfaction ~{first.facets.satisfaction:.3f}"
        )
    return "\n\n".join(blocks)
