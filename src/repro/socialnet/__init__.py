"""Synthetic social networks: users, profiles, graphs and presets.

The paper studies decentralized social-networking systems but provides no
dataset; this subpackage provides the laptop-scale synthetic substitute used
by every experiment.  It covers:

* :mod:`repro.socialnet.user` — users, profiles, sensitive attributes;
* :mod:`repro.socialnet.graph` — a :class:`SocialGraph` wrapper over
  :mod:`networkx` exposing the operations the rest of the library needs;
* :mod:`repro.socialnet.generators` — Erdős–Rényi, Barabási–Albert,
  Watts–Strogatz and stochastic-block-model topologies with populated users;
* :mod:`repro.socialnet.presets` — named network shapes at laptop scale.
"""
