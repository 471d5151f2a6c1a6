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
