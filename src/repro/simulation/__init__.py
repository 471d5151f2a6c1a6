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
* :mod:`repro.simulation.engine` — the round-based interaction simulator,
  whose rounds run in a plain loop and which pickles itself to checkpoint;
* :mod:`repro.simulation.checkpoint` — the checkpoint file format only (it
  imports no simulation code, so the serving layer uses it too);
* :mod:`repro.simulation.metrics` — measurement collection.
"""
