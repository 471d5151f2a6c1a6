"""Pure-Python reference implementations of the vectorized kernels.

Each function here is the loop form of a kernel in ``repro.core.backend``,
or of the path a mechanism takes through those kernels: dicts and explicit
loops, no NumPy.  Nothing under ``src/`` calls them.  They are the
references the property tests in ``tests/properties/test_property_oracles.py``
(and a few fixed-input tests, down to a whole sweep campaign) hold the
kernels to:

* :mod:`tests.oracles.reputation` — local trust, min-max rescaling and the
  EigenTrust, PowerTrust, Beta and simple-average scores;
* :mod:`tests.oracles.coupling` — the Section-3 coupling trajectories,
  equilibria and the Figure-1 sensitivity matrix;
* :mod:`tests.oracles.simulation` — the simulator's per-round interaction
  counts.
"""
