"""Peer-to-peer interaction simulation.

The paper argues for fully decentralized social systems whose participants
are "autonomous and potentially untrusted".  This subpackage provides the
controlled substrate on which reputation, privacy and satisfaction are
measured:

* :mod:`repro.simulation.rng` — seeded random streams so every experiment is
  reproducible;
* :mod:`repro.simulation.transaction` — transaction and feedback records;
* :mod:`repro.simulation.peer` / :mod:`repro.simulation.adversary` — peer
  behaviours (honest, malicious, selfish, traitor, whitewasher, colluder);
* :mod:`repro.simulation.churn` — session churn;
* :mod:`repro.simulation.events` / :mod:`repro.simulation.engine` — a small
  discrete-event engine and the round-based interaction simulator built on it;
* :mod:`repro.simulation.metrics` — measurement collection.
"""
