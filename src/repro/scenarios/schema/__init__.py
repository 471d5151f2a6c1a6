"""Declarative scenario schema: workloads as validated, versioned files.

The catalog's scenarios are Python-constructed; this package is the
zero-code on-ramp the ROADMAP asks for.  A *scenario template* is a YAML or
JSON document with a ``schema_version``, parsed into a frozen dataclass
model by a strict validator (unknown fields and wrong types are rejected
with a precise error path), and compiled onto the existing execution
objects — :class:`~repro.scenarios.runner.ScenarioRunConfig`,
:class:`~repro.scenarios.campaign.AttackCampaign`,
:class:`~repro.simulation.churn.PhasedChurnModel` — so a template run is
byte-identical to the equivalent Python-constructed run.

* :mod:`repro.scenarios.schema.model` — document model, strict parser,
  version migration hook;
* :mod:`repro.scenarios.schema.compile` — template → runnable config
  (catalog references and fully declarative campaigns);
* :mod:`repro.scenarios.schema.library` — the shipped ``templates/``
  catalog, loading, and catalog⇄template equivalence verification;
* :mod:`repro.scenarios.schema.cli` — ``scenario validate|verify|run|list``.
"""
