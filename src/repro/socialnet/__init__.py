"""Synthetic social networks: users, profiles, graphs and presets.

The paper studies decentralized social-networking systems but provides no
dataset; this subpackage provides the laptop-scale synthetic substitute used
by every experiment.  It covers:

* :mod:`repro.socialnet.user` — users, profiles, sensitive attributes;
* :mod:`repro.socialnet.graph` — a :class:`SocialGraph` over its own
  adjacency dict, exposing the operations the rest of the library needs;
* :mod:`repro.socialnet.generators` — Erdős–Rényi, Barabási–Albert,
  Watts–Strogatz and stochastic-block-model topologies with populated users;
* :mod:`repro.socialnet.topology` — those four random graph models and
  connected components, ported from networkx 3.6.1 so the graphs are
  networkx's for the same seed without loading networkx;
* :mod:`repro.socialnet.presets` — named network shapes at laptop scale.
"""
