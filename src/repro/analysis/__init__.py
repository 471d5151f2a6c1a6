"""``repro-lint``: determinism/purity static analysis for the repro tree.

The package turns the repository's reproducibility conventions into
machine-enforced rules (see ``docs/INVARIANTS.md``):

========  ================  ====================================================
Rule id   Name              Invariant
========  ================  ====================================================
R1        determinism       randomness flows through named RandomStreams only
R2        ordering          sets are sorted before order reaches any output
R3        cache-discipline  mutations bump version/epoch counters
R5        float-equality    no exact ==/!= on computed floats
R6        typing            defs fully annotated, Optional explicit
R8        error-discipline  broad excepts re-raise or emit a structured record
R9        api-boundary      examples/benchmarks import only the public facade
========  ================  ====================================================

R4 (accel-purity) is retired with the acceleration switchboard it checked.
R7 (template-parity) is retired: ``repro scenario validate --catalog`` and
the template tests check that every catalog scenario has a template of a
supported ``schema_version``.  Neither id is reused.

Entry points: the ``repro-lint`` console script, ``python -m
repro.analysis``, or :func:`repro.analysis.framework.run_lint` in process.
Suppress a single finding with ``# repro-lint: ignore[RULE] reason``.
"""
