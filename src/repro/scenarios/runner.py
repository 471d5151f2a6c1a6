"""Running one scenario end to end.

:func:`run_scenario` assembles the pieces — social graph (optionally
preset-based), reputation mechanism, attack campaign, trace hook — runs the
interaction simulation and condenses the trace into
:class:`~repro.scenarios.metrics.RobustnessMetrics`.  It is the unit of work
the robustness experiment (and any sweep over it) repeats per
(scenario, mechanism) cell.  The scenario is a catalog entry, or a
declarative template's campaign section that the run config carries
(:func:`scenario_spec` resolves either), so a config — and a checkpoint of
its run — holds everything the run needs in any process.

Each run sets itself up: it takes its graph from the network cache
(:func:`~repro.socialnet.generators.cached_social_network`), or generates a
fresh one when the scenario changes the population; it builds its own
campaign, and the simulator draws its own directory.  Inside a
:func:`shared_simulations` block (sweeps open one per group of tasks that
share a simulation), runs that differ only in the :data:`EVALUATION_FIELDS`
(detection threshold, recovery fraction) re-evaluate one recorded trace
instead of re-simulating; the block's memo is dropped when it exits.
Neither changes a result: the golden digests and the tests that rerun a
pipeline with a fresh network per run, or outside any block, hold them to
that.

:func:`reputation_for_graph` is the shared mechanism builder (EigenTrust's
pre-trusted founders, anonymous-feedback wrapping) also used by the
end-to-end :class:`~repro.experiments.scenario.Scenario`.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro import _profiling
from repro.errors import CheckpointError, ConfigurationError
from repro.reputation.anonymous import AnonymousFeedbackReputation
from repro.reputation.base import ReputationSystem
from repro.reputation.registry import make_reputation_system
from repro.scenarios.campaign import AttackCampaign, CampaignDriver
from repro.scenarios.catalog import ScenarioSpec, compile_campaign, get_scenario
from repro.scenarios.metrics import RobustnessMetrics, ScenarioTrace, evaluate_trace
from repro.simulation.checkpoint import read_checkpoint, write_checkpoint
from repro.simulation.engine import (
    InteractionSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.simulation.rng import RandomStreams
from repro.socialnet.generators import (
    SocialNetworkSpec,
    cached_social_network,
    generate_social_network,
)
from repro.socialnet.graph import SocialGraph
from repro.socialnet.presets import preset_spec

if TYPE_CHECKING:  # pragma: no cover - typing only; the schema layers on top
    from repro.scenarios.schema.model import CampaignSection


def reputation_for_graph(
    graph: SocialGraph,
    mechanism: str,
    *,
    seed: int = 0,
    anonymous: bool = False,
) -> ReputationSystem | None:
    """Build the named mechanism wired for a concrete graph.

    EigenTrust assumes a small set of pre-trusted peers (the network
    founders); model them as the three best-connected honest users.  Without
    them the uniform restart hands the dishonest clique enough mass to blunt
    the mechanism.  ``mechanism="none"`` returns ``None`` (the no-reputation
    baseline).
    """
    if mechanism == "none":
        return None
    if mechanism == "eigentrust":
        founders = sorted(
            (user.user_id for user in graph.users() if user.is_honest),
            key=lambda uid: -graph.degree(uid),
        )[:3]
        system = make_reputation_system(mechanism, pretrusted=founders)
    else:
        system = make_reputation_system(mechanism)
    if anonymous:
        return AnonymousFeedbackReputation(system, seed=seed)
    return system


#: The :class:`ScenarioRunConfig` fields only the metric layer reads:
#: runs that differ in nothing else share one simulation.
EVALUATION_FIELDS = ("detect_threshold", "recovery_fraction")


@dataclass
class ScenarioRunConfig:
    """Everything one robustness scenario run needs."""

    scenario: str = "collusion-ring"
    mechanism: str = "eigentrust"
    n_users: int = 40
    rounds: int = 30
    seed: int = 0
    topology: str = "barabasi_albert"
    malicious_fraction: float = 0.25
    interactions_per_peer: float = 1.0
    sharing_level: float = 1.0
    #: Optional named social-network preset; overrides ``n_users``,
    #: ``topology`` and ``malicious_fraction`` when given.
    preset: str | None = None
    #: Scenario knob overrides (catalog defaults apply otherwise).
    knobs: dict[str, object] = field(default_factory=dict)
    detect_threshold: float = 0.1
    recovery_fraction: float = 0.8
    #: A declarative template's campaign section, which the run executes
    #: under the name ``scenario``; ``None`` runs the catalog entry of that
    #: name.  A default of ``None`` keeps checkpoints written before the
    #: field existed loadable.
    campaign: CampaignSection | None = None

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigurationError("rounds must be at least 1")
        if self.n_users < 2:
            raise ConfigurationError("n_users must be at least 2")
        scenario_spec(self)  # fail fast on unknown scenario names

    def simulation_key(self) -> tuple | None:
        """Identity of everything that shapes the *simulation*: every field
        but the :data:`EVALUATION_FIELDS`.  The :func:`shared_simulations`
        key; ``None`` when the knobs are unhashable."""
        values = {
            item.name: getattr(self, item.name)
            for item in fields(self)
            if item.name not in EVALUATION_FIELDS
        }
        values["knobs"] = tuple(sorted(self.knobs.items()))
        # The section holds dicts; its repr is equal for equal sections.
        values["campaign"] = repr(self.campaign)
        key = tuple(values.values())
        try:
            hash(key)
        except TypeError:
            return None
        return key


def scenario_spec(config: ScenarioRunConfig) -> ScenarioSpec:
    """The scenario a run executes: built from the template campaign section
    the config carries, or else the catalog entry of its name."""
    if config.campaign is None:
        return get_scenario(config.scenario)
    return ScenarioSpec(
        name=config.scenario,
        description=f"template-defined campaign {config.scenario!r}",
        build=functools.partial(compile_campaign, config.scenario, config.campaign),
    )


def _scenario_graph(config: ScenarioRunConfig) -> SocialGraph:
    """The run's graph: the shared network for the config's spec, or a fresh
    one when the scenario changes the population (sybil injection), which
    draws from its own stream so the generator's draws stay untouched."""
    if config.preset is not None:
        spec = preset_spec(config.preset, seed=config.seed)
    else:
        spec = SocialNetworkSpec(
            n_users=config.n_users,
            topology=config.topology,
            malicious_fraction=config.malicious_fraction,
            seed=config.seed,
        )
    scenario = scenario_spec(config)
    if scenario.setup_graph is None:
        return cached_social_network(spec)
    graph = generate_social_network(spec)
    setup_rng = RandomStreams(config.seed).stream("scenario-setup")
    scenario.prepare_graph(graph, setup_rng, **config.knobs)
    return graph


@dataclass
class ScenarioRunResult:
    """One executed (scenario, mechanism) cell."""

    config: ScenarioRunConfig
    campaign: AttackCampaign
    graph: SocialGraph
    simulation: SimulationResult
    trace: ScenarioTrace
    robustness: RobustnessMetrics
    final_scores: dict[str, float]


#: The memo of the innermost open :func:`shared_simulations` block
#: (``None`` outside one).
_shared: dict[tuple, ScenarioRunResult] | None = None


@contextmanager
def shared_simulations() -> Iterator[None]:
    """Share simulations between the runs made inside the block.

    A :func:`run_scenario` call whose config has the
    :meth:`~ScenarioRunConfig.simulation_key` of a run already finished in
    the block re-evaluates that run's trace instead of simulating.  The
    memo has no size limit and is dropped when the block exits, so open a
    block around runs that share simulations (a sweep opens one per group)
    rather than around a whole session.  Each block keeps its own memo, so
    the groups of a sweep run inside a block, even in workers forked
    there, never add to the enclosing one.
    """
    global _shared
    outer = _shared
    _shared = {}
    try:
        yield
    finally:
        _shared = outer


def _evaluate(config: ScenarioRunConfig, base: ScenarioRunResult) -> ScenarioRunResult:
    """Re-derive the metric layer of a finished run for (possibly new)
    detection/recovery knobs.  Everything upstream of ``evaluate_trace`` is
    shared with the finished run; the trace observations are frozen rows."""
    robustness = evaluate_trace(
        base.trace.observations,
        base.campaign.window,
        detect_threshold=config.detect_threshold,
        recovery_fraction=config.recovery_fraction,
        final_rank_correlation=base.trace.final_rank_correlation(),
    )
    return ScenarioRunResult(
        config=config,
        campaign=base.campaign,
        graph=base.graph,
        simulation=base.simulation,
        trace=base.trace,
        robustness=robustness,
        final_scores=base.final_scores,
    )


@dataclass
class ScenarioCheckpoint:
    """What a scenario-run checkpoint file carries.

    The run config travels with the pickled simulator so resume can rebuild
    the unpicklable configuration layer (campaign closures, trace hooks)
    from it and reattach it, which hands the hooks their cursors.
    """

    config: ScenarioRunConfig
    simulator: InteractionSimulator


def _save_scenario_checkpoint(
    path: str, config: ScenarioRunConfig, simulator: InteractionSimulator
) -> None:
    write_checkpoint(
        path,
        "scenario",
        ScenarioCheckpoint(config=config, simulator=simulator),
        round_index=simulator.completed_rounds,
    )


def _run_segments(
    simulator: InteractionSimulator,
    config: ScenarioRunConfig,
    checkpoint_every: int | None,
    checkpoint_path: str | None,
) -> None:
    """Run the remaining rounds, checkpointing at segment boundaries.

    Segmentation changes nothing about the trajectory (see
    :meth:`InteractionSimulator.run_until`); each completed segment
    atomically replaces the checkpoint file, so a crash at any instant
    loses at most ``checkpoint_every`` rounds of work.
    """
    if checkpoint_every is None:
        simulator.run_until(config.rounds)
        return
    assert checkpoint_path is not None  # enforced by _check_checkpoint_args
    while simulator.completed_rounds < config.rounds:
        target = min(config.rounds, simulator.completed_rounds + checkpoint_every)
        simulator.run_until(target)
        _save_scenario_checkpoint(checkpoint_path, config, simulator)


def _check_checkpoint_args(checkpoint_every: int | None, checkpoint_path: str | None) -> None:
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ConfigurationError("checkpoint_every must be at least 1")
    if checkpoint_every is not None and checkpoint_path is None:
        raise ConfigurationError("checkpoint_every needs a checkpoint_path to write to")


def _collect_result(
    config: ScenarioRunConfig,
    campaign: AttackCampaign,
    simulator: InteractionSimulator,
    trace: ScenarioTrace,
) -> ScenarioRunResult:
    """Condense a finished simulator into the run result (metrics layer)."""
    simulation = simulator.result()
    robustness = evaluate_trace(
        trace.observations,
        campaign.window,
        detect_threshold=config.detect_threshold,
        recovery_fraction=config.recovery_fraction,
        final_rank_correlation=trace.final_rank_correlation(),
    )
    reputation = simulator.reputation
    final_scores = (
        reputation.scores() if isinstance(reputation, ReputationSystem) else {}
    )
    return ScenarioRunResult(
        config=config,
        campaign=campaign,
        graph=simulator.graph,
        simulation=simulation,
        trace=trace,
        robustness=robustness,
        final_scores=final_scores,
    )


def run_scenario(
    config: ScenarioRunConfig | None = None,
    *,
    checkpoint_every: int | None = None,
    checkpoint_path: str | None = None,
    **overrides: object,
) -> ScenarioRunResult:
    """Run one scenario against one mechanism.

    Keyword overrides build a :class:`ScenarioRunConfig` when none is given.
    The whole pipeline draws only from seed-derived named streams, and the
    robustness numbers come from the mechanism's quantized published scores,
    so results are byte-stable across worker processes.

    With ``checkpoint_every=N`` the run snapshots its full state to
    ``checkpoint_path`` every N rounds (atomic replace, newest wins);
    :func:`resume_scenario` picks such a file up after a crash and finishes
    the run byte-identically.  Checkpointed runs share no simulation: a
    shared one would be skipped and therefore write no checkpoints.
    """
    if config is None:
        config = ScenarioRunConfig(**overrides)
    elif overrides:
        raise ConfigurationError("pass either a config object or keyword overrides")
    _check_checkpoint_args(checkpoint_every, checkpoint_path)

    memo = _shared if checkpoint_every is None else None
    key = None if memo is None else config.simulation_key()
    if memo is not None and key in memo:
        with _profiling.phase("metrics"):
            return _evaluate(config, memo[key])

    with _profiling.phase("setup"):
        graph = _scenario_graph(config)
        campaign = scenario_spec(config).campaign(rounds=config.rounds, **config.knobs)
        reputation = reputation_for_graph(graph, config.mechanism, seed=config.seed)
        driver = CampaignDriver(campaign)
        trace = ScenarioTrace()

        sim_config = SimulationConfig(
            rounds=config.rounds,
            sharing_level=config.sharing_level,
            interactions_per_peer=config.interactions_per_peer,
            seed=config.seed,
        )
        if campaign.churn is not None:
            sim_config.churn = campaign.churn
        simulator = InteractionSimulator(
            graph,
            sim_config,
            reputation=reputation,
            hooks=(driver, trace),
        )
    with _profiling.phase("simulate"):
        _run_segments(simulator, config, checkpoint_every, checkpoint_path)
    with _profiling.phase("metrics"):
        result = _collect_result(config, campaign, simulator, trace)
    if memo is not None and key is not None:
        memo[key] = result
    return result


def resume_scenario(
    path: str,
    *,
    checkpoint_every: int | None = None,
    checkpoint_path: str | None = None,
) -> ScenarioRunResult:
    """Finish a checkpointed scenario run and return its full result.

    Reads a checkpoint written by ``run_scenario(..., checkpoint_every=N)``,
    rebuilds the configuration layer (campaign, hooks) from the run config,
    rehydrates every piece of runtime state and runs the remaining rounds.
    The returned result — and any record derived from it — is byte-identical
    to the uninterrupted run's.

    ``checkpoint_every`` keeps checkpointing during the resumed portion
    (to ``checkpoint_path``, defaulting to the source file), so a resumed
    run that crashes again stays resumable.
    """
    _, payload = read_checkpoint(path, expected_kind="scenario")
    if not isinstance(payload, ScenarioCheckpoint):
        raise CheckpointError(f"{path}: payload is not a scenario checkpoint")
    config = payload.config
    if checkpoint_every is not None and checkpoint_path is None:
        checkpoint_path = path
    _check_checkpoint_args(checkpoint_every, checkpoint_path)

    with _profiling.phase("setup"):
        campaign = scenario_spec(config).campaign(rounds=config.rounds, **config.knobs)
        driver = CampaignDriver(campaign)
        trace = ScenarioTrace()
        simulator = payload.simulator
        simulator.reattach((driver, trace))
    with _profiling.phase("simulate"):
        _run_segments(simulator, config, checkpoint_every, checkpoint_path)
    with _profiling.phase("metrics"):
        return _collect_result(config, campaign, simulator, trace)
