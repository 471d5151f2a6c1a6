"""The paper's contribution: the 3-facet characterization of trust.

* :mod:`repro.core.config` — :class:`SystemSettings`, the settable aspects of
  the system (information-sharing level, reputation mechanism, anonymity,
  facet weights and Area-A thresholds);
* :mod:`repro.core.facets` — :class:`FacetScores` and the evaluators that
  turn raw measurements into the privacy, reputation and satisfaction facet
  scores of Figure 2;
* :mod:`repro.core.metric` — :class:`CompositeTrustMetric`, the "generic
  metric that takes into account all these dimensions" (Section 4), with a
  family of aggregators;
* :mod:`repro.core.trust_model` — :class:`TrustModel` and
  :class:`TrustReport`, per-user and global trust towards the system;
* :mod:`repro.core.coupling` — the Section-3 interaction dynamics between
  trust, satisfaction, reputation efficiency, disclosure and privacy;
* :mod:`repro.core.tradeoff` — the settings explorer that sweeps the
  information-sharing knob, locates the Area-A tradeoff region and the
  maximal-trust setting (Figure 2);
* :mod:`repro.core.optimizer` — :class:`TrustOptimizer`, the automated
  "method to obtain the right settings" of Section 4, with per-facet
  application constraints.
"""

from repro.core.backend import PeerIndex
from repro.core.config import SystemSettings
from repro.core.coupling import CouplingDynamics, CouplingState, coupling_matrix
from repro.core.facets import (
    FacetScores,
    privacy_facet,
    reputation_facet,
    satisfaction_facet,
)
from repro.core.metric import Aggregator, CompositeTrustMetric
from repro.core.optimizer import (
    FacetConstraints,
    OptimizationResult,
    TrustOptimizer,
)
from repro.core.tradeoff import (
    AnalyticFacetModel,
    SettingsExplorer,
    TradeoffPoint,
)
from repro.core.trust_model import TrustModel, TrustReport

__all__ = [
    "Aggregator",
    "AnalyticFacetModel",
    "CompositeTrustMetric",
    "CouplingDynamics",
    "CouplingState",
    "FacetConstraints",
    "FacetScores",
    "OptimizationResult",
    "PeerIndex",
    "SettingsExplorer",
    "SystemSettings",
    "TradeoffPoint",
    "TrustModel",
    "TrustOptimizer",
    "TrustReport",
    "coupling_matrix",
    "privacy_facet",
    "reputation_facet",
    "satisfaction_facet",
]
