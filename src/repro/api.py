"""The blessed public surface of :mod:`repro`.

Everything a *client* of this library needs — examples, benchmarks,
notebooks, downstream services — is re-exported here, and repro-lint rule
R9 holds the in-repo client trees (``examples/``, ``benchmarks/``) to
exactly this module.  It is the one module that re-exports: package
namespaces export nothing, so every name below is imported from the module
that defines it.  Internals stay importable (white-box tests use them
deliberately), but only names listed in :data:`__all__` carry a
compatibility promise.  docs/API.md documents the surface name by name and
assigns each group a stability tier (stable / provisional / internal).

The facade is grouped by role:

Serving (the live layer)
    :class:`ReputationService` and its HTTP adapters, plus the load-harness
    helpers benchmarks replay traffic with.
Batch pipeline
    ``run_scenario`` / ``run_sweep`` / the experiment registry — everything
    that regenerates the paper's figures and records.
Model substrate
    Social networks, the interaction simulator, reputation mechanisms,
    privacy machinery and the composite trust metric.
Controls
    Deterministic fault injection (:mod:`repro.faults`) and the profiling
    timer, re-exported as a namespaced module and a callable.
"""

from __future__ import annotations

import repro.faults as faults
from repro._profiling import profiled
from repro.core.config import SystemSettings
from repro.core.coupling import CouplingDynamics, CouplingState, coupling_matrix
from repro.core.facets import FacetScores
from repro.core.metric import Aggregator, CompositeTrustMetric
from repro.core.optimizer import FacetConstraints, TrustOptimizer
from repro.core.tradeoff import SettingsExplorer
from repro.core.trust_model import TrustModel, TrustReport
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    IntegrityError,
    OverloadError,
    ReadOnlyError,
    ReproError,
    RequestFailedError,
)
from repro.experiments import (
    ablations,
    claims,
    figure1,
    figure2_left,
    figure2_right,
    privacy_eval,
    reputation_eval,
    robustness,
    satisfaction_eval,
)
from repro.experiments.reporting import format_sweep_summary, format_table
from repro.experiments.results import records_to_csv, records_to_json
from repro.experiments.runner import (
    EXPERIMENTS,
    RunResult,
    get_experiment,
    run_experiment,
    run_experiment_structured,
)
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.experiments.sweep import (
    ParamRange,
    SweepExecutor,
    SweepResult,
    SweepSpec,
    expand_tasks,
    run_sweep,
)
from repro.privacy.negotiation import NegotiationEngine, Proposal
from repro.privacy.oecd import OecdPrinciple, check_compliance
from repro.privacy.policy import (
    Audience,
    Obligation,
    PolicyRule,
    PrivacyPolicy,
    restrictive_policy,
)
from repro.privacy.priserv import PriServService
from repro.privacy.purposes import Operation, Purpose
from repro.reputation.accuracy import pairwise_ranking_accuracy
from repro.reputation.average import SimpleAverageReputation
from repro.reputation.base import ReputationSystem, ScoreView
from repro.reputation.beta import BetaReputation
from repro.reputation.eigentrust import EigenTrust
from repro.reputation.powertrust import PowerTrust
from repro.reputation.registry import make_reputation_system
from repro.scenarios.catalog import CATALOG
from repro.scenarios.runner import (
    ScenarioRunConfig,
    ScenarioRunResult,
    run_scenario,
    shared_simulations,
)
from repro.scenarios.schema.library import load_template
from repro.scenarios.schema.model import ScenarioTemplate
from repro.serving.client import CircuitBreaker, ClientRetryPolicy, ResilientClient
from repro.serving.http import create_http_server
from repro.serving.loadgen import (
    ReplayStats,
    build_trace,
    ingest_events,
    replay,
    request_json,
    scores_body,
)
from repro.serving.service import (
    IngestReceipt,
    PeerSummary,
    ReputationService,
    ServiceConfig,
    feedback_from_payload,
)
from repro.serving.wal import TornTailWarning, WriteAheadLog, verify_wal
from repro.simulation.churn import ChurnModel
from repro.simulation.engine import InteractionSimulator, SimulationConfig, SimulationResult
from repro.simulation.transaction import Feedback, FeedbackBatch
from repro.socialnet.generators import (
    SocialNetworkSpec,
    clear_network_cache,
    generate_social_network,
)
from repro.socialnet.presets import preset_spec
from repro.version import __version__

__all__ = [
    # -- serving (the live layer) ------------------------------------------
    "IngestReceipt",
    "PeerSummary",
    "ReputationService",
    "ServiceConfig",
    "create_http_server",
    "feedback_from_payload",
    # durability + resilience
    "CircuitBreaker",
    "ClientRetryPolicy",
    "ResilientClient",
    "TornTailWarning",
    "WriteAheadLog",
    "verify_wal",
    # load harness
    "ReplayStats",
    "build_trace",
    "ingest_events",
    "replay",
    "request_json",
    "scores_body",
    # -- batch pipeline ----------------------------------------------------
    "CATALOG",
    "ScenarioRunConfig",
    "ScenarioRunResult",
    "run_scenario",
    "ScenarioTemplate",
    "load_template",
    "shared_simulations",
    "EXPERIMENTS",
    "RunResult",
    "get_experiment",
    "run_experiment",
    "run_experiment_structured",
    "Scenario",
    "ScenarioConfig",
    "ParamRange",
    "SweepExecutor",
    "SweepResult",
    "SweepSpec",
    "expand_tasks",
    "run_sweep",
    "format_sweep_summary",
    "format_table",
    "records_to_csv",
    "records_to_json",
    # experiment definitions (provisional tier)
    "ablations",
    "claims",
    "figure1",
    "figure2_left",
    "figure2_right",
    "privacy_eval",
    "reputation_eval",
    "robustness",
    "satisfaction_eval",
    # -- model substrate ---------------------------------------------------
    "SocialNetworkSpec",
    "generate_social_network",
    "clear_network_cache",
    "preset_spec",
    "ChurnModel",
    "InteractionSimulator",
    "SimulationConfig",
    "SimulationResult",
    "Feedback",
    "FeedbackBatch",
    "BetaReputation",
    "EigenTrust",
    "PowerTrust",
    "ReputationSystem",
    "ScoreView",
    "SimpleAverageReputation",
    "make_reputation_system",
    "pairwise_ranking_accuracy",
    "Audience",
    "NegotiationEngine",
    "Obligation",
    "OecdPrinciple",
    "Operation",
    "PolicyRule",
    "PriServService",
    "PrivacyPolicy",
    "Proposal",
    "Purpose",
    "check_compliance",
    "restrictive_policy",
    "Aggregator",
    "CompositeTrustMetric",
    "CouplingDynamics",
    "CouplingState",
    "coupling_matrix",
    "FacetConstraints",
    "FacetScores",
    "SettingsExplorer",
    "SystemSettings",
    "TrustModel",
    "TrustOptimizer",
    "TrustReport",
    # -- controls ----------------------------------------------------------
    "faults",
    "profiled",
    "CircuitOpenError",
    "ConfigurationError",
    "IntegrityError",
    "OverloadError",
    "ReadOnlyError",
    "ReproError",
    "RequestFailedError",
    "__version__",
]
