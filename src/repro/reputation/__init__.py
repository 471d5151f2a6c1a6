"""Reputation mechanisms.

Section 2.2 of the paper surveys decentralized reputation systems and adopts
the three-block decomposition of Marti & Garcia-Molina: *information
gathering*, *scoring and ranking*, and *response*.  This subpackage
implements that architecture and the concrete mechanisms the paper cites:

* :class:`~repro.reputation.eigentrust.EigenTrust` — the PageRank-like global
  reputation of Kamvar et al.;
* :class:`~repro.reputation.powertrust.PowerTrust` — Zhou & Hwang's
  power-node based aggregation over a trust overlay;
* :class:`~repro.reputation.trustme.TrustMeReputation` — a TrustMe-like
  protocol: a transaction-certificate gate in front of the simple
  average's fold;
* :class:`~repro.reputation.beta.BetaReputation` and
  :class:`~repro.reputation.average.SimpleAverageReputation` — baselines;
* :class:`~repro.reputation.anonymous.AnonymousFeedbackReputation` — a
  privacy-preserving wrapper implementing blinded, randomized-response
  feedback in the spirit of reputation systems for anonymous networks.

The *response* block is the simulator's provider selection
(:meth:`~repro.simulation.engine.InteractionSimulator._select_from`), which
acts on the published scores.  :mod:`repro.reputation.accuracy` provides the
evaluation measures used to quantify "reputation power" (consistency with
reality), and :mod:`repro.reputation.registry` the name-to-mechanism registry
(``REPUTATION_FACTORIES``, ``make_reputation_system``).
"""
