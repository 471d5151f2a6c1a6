"""Adversarial attack scenarios and robustness measurement.

A declarative catalog of named attack campaigns — collusion rings,
whitewashing waves, traitor oscillation, slander/ballot-stuffing, sybil
bursts, churn-layered composites — plus the machinery to run any of them
against any reputation mechanism and score the mechanism's attack
resistance (separation, rank correlation, time-to-detect, time-to-recover).

* :mod:`repro.scenarios.campaign` — the composable event/campaign model and
  the round-hook driver;
* :mod:`repro.scenarios.catalog` — the named scenarios and their knobs;
* :mod:`repro.scenarios.metrics` — the per-round trace and robustness
  metrics;
* :mod:`repro.scenarios.runner` — one-call scenario execution;
* :mod:`repro.scenarios.schema` — the declarative template front-end
  (versioned YAML/JSON scenario files compiling onto the same objects).
"""
