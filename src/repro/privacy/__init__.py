"""Privacy: policies, enforcement, accounting and metrics.

Section 2.3 of the paper grounds privacy in the OECD guidelines and in
P3P-style privacy policies, and cites PriServ as a privacy service for P2P
systems.  This subpackage implements that stack:

* :mod:`repro.privacy.purposes` — operations and access purposes;
* :mod:`repro.privacy.policy` — P3P-inspired privacy policies (authorized
  users, allowed operations, access purposes, access conditions, retention
  time, obligations, minimal trust level) and their evaluation;
* :mod:`repro.privacy.priserv` — a PriServ-like publish/request service that
  enforces policies, applies obligations and keeps an audit trail;
* :mod:`repro.privacy.disclosure` — the disclosure ledger that accounts for
  every piece of personal information that left its owner;
* :mod:`repro.privacy.oecd` — compliance checking against the eight OECD
  principles;
* :mod:`repro.privacy.negotiation` — requester/owner negotiation over access
  terms;
* :mod:`repro.privacy.metrics` — exposure and privacy-satisfaction measures
  feeding the trust model's privacy facet.
"""
