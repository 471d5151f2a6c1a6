"""Seeded random streams.

Every stochastic component (topology, behaviour, churn, workload) draws from
its own named stream derived from a single master seed.  This keeps
experiments reproducible while letting one component's draw count change
without perturbing the others — the standard trick for controlled
distributed-system simulations.
"""

from __future__ import annotations

import random


class RandomStreams:
    """A family of independent :class:`random.Random` streams.

    >>> streams = RandomStreams(42)
    >>> a = streams.stream("churn").random()
    >>> b = RandomStreams(42).stream("churn").random()
    >>> a == b
    True
    """

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = int(master_seed)
        self._streams: dict[str, random.Random] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the named stream."""
        if name not in self._streams:
            # Derive a per-stream seed deterministically from the master seed
            # and the stream name; hash() is salted per process, so use a
            # stable string hash instead.
            derived = self._master_seed
            for char in name:
                derived = (derived * 1000003 + ord(char)) % (2 ** 63)
            self._streams[name] = random.Random(derived)
        return self._streams[name]

    def uniforms(self, name: str, n: int) -> list[float]:
        """``n`` uniform draws from the named stream, as one vector.

        The draws come from the same underlying generator in the same order
        as ``n`` successive ``stream(name).random()`` calls, so batching a
        loop through this method never changes the stream's sequence — the
        contract the batched simulation round relies on for determinism
        against the per-peer code path.
        """
        draw = self.stream(name).random
        return [draw() for _ in range(n)]

    def reset(self) -> None:
        """Drop every derived stream so the next access re-seeds it."""
        self._streams.clear()
