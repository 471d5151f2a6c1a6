"""Random graph models and connected components on plain adjacency dicts.

A port of the networkx 3.6.1 code the generators call:
``gnp_random_graph``, ``barabasi_albert_graph`` (with its ``star_graph``
start and ``_random_subset``), ``watts_strogatz_graph``,
``stochastic_block_model`` (``sparse=True``) and ``connected_components``
(``_plain_bfs``).  networkx is distributed under the 3-clause BSD licence;
its notice is reproduced below.

A graph here is an :data:`Adjacency`: node -> {neighbour: None}, the shape
of ``nx.Graph._adj`` without edge data.  The port makes the same
``random.Random`` draws in the same order, and inserts nodes and edges in
the same order, so node order, each node's neighbour order and
:func:`edges` match networkx's for the same seed.  That includes
networkx's integer sets (BA targets, SBM partitions, components): they are
iterated as sets, in the order CPython gives a set of ints, which no hash
seed changes.  An integer seed becomes ``random.Random(seed)``, as
networkx's ``py_random_state`` makes it.

Copyright (c) 2004-2025, NetworkX Developers
Aric Hagberg <hagberg@lanl.gov>
Dan Schult <dschult@colgate.edu>
Pieter Swart <swart@lanl.gov>
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions are
met:

* Redistributions of source code must retain the above copyright notice,
  this list of conditions and the following disclaimer.
* Redistributions in binary form must reproduce the above copyright
  notice, this list of conditions and the following disclaimer in the
  documentation and/or other materials provided with the distribution.
* Neither the name of the NetworkX Developers nor the names of its
  contributors may be used to endorse or promote products derived from
  this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS
IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO,
THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR
PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT OWNER OR
CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL,
EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO,
PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR
PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF
LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING
NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS
SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import TypeVar

from repro.errors import ConfigurationError

#: An undirected simple graph: node -> {neighbour: None}, both insertion-ordered.
Adjacency = dict[int, dict[int, None]]

Node = TypeVar("Node", bound=Hashable)


def _empty_graph(nodes: Iterable[int]) -> Adjacency:
    return {node: {} for node in nodes}


def add_edge(adj: Adjacency, u: int, v: int) -> None:
    """``nx.Graph.add_edge``: a new endpoint goes last; a known edge keeps its place."""
    adj.setdefault(u, {})[v] = None
    adj.setdefault(v, {})[u] = None


def _complete_graph(n: int) -> Adjacency:
    adj = _empty_graph(range(n))
    for u, v in itertools.combinations(range(n), 2):
        add_edge(adj, u, v)
    return adj


def edges(adj: Mapping[Node, Iterable[Node]]) -> Iterator[tuple[Node, Node]]:
    """``nx.Graph.edges()``: each node's neighbours it has not yet visited."""
    seen: set[Node] = set()
    for node, neighbours in adj.items():
        for neighbour in neighbours:
            if neighbour not in seen:
                yield node, neighbour
        seen.add(node)


def gnp_random_graph(n: int, p: float, seed: int) -> Adjacency:
    """Erdős–Rényi G(n, p): one draw per node pair, in ``combinations`` order."""
    if p >= 1:
        return _complete_graph(n)
    adj = _empty_graph(range(n))
    if p <= 0:
        return adj
    rng = random.Random(seed)
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            add_edge(adj, u, v)
    return adj


def _random_subset(seq: list[int], m: int, rng: random.Random) -> set[int]:
    """``m`` distinct elements drawn from ``seq`` (which repeats elements)."""
    targets: set[int] = set()
    while len(targets) < m:
        targets.add(rng.choice(seq))
    return targets


def barabasi_albert_graph(n: int, m: int, seed: int) -> Adjacency:
    """Barabási–Albert preferential attachment from a star on ``m + 1`` nodes."""
    if m < 1 or m >= n:
        raise ConfigurationError(
            f"Barabási–Albert network must have m >= 1 and m < n, m = {m}, n = {n}"
        )
    rng = random.Random(seed)
    adj = _empty_graph(range(m + 1))
    for spoke in range(1, m + 1):
        add_edge(adj, 0, spoke)
    # Existing nodes, each repeated once per incident edge.
    repeated = [node for node, neighbours in adj.items() for _ in range(len(neighbours))]
    for source in range(m + 1, n):
        targets = _random_subset(repeated, m, rng)
        for target in targets:  # repro-lint: ignore[R2] int set: networkx's order, no hash salt
            add_edge(adj, source, target)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return adj


def watts_strogatz_graph(n: int, k: int, p: float, seed: int) -> Adjacency:
    """Watts–Strogatz: a ring of ``k`` nearest neighbours, each edge rewired with ``p``."""
    if k > n:
        raise ConfigurationError("k>n, choose smaller k or larger n")
    if k == n:
        return _complete_graph(n)
    rng = random.Random(seed)
    nodes = list(range(n))
    adj = _empty_graph(nodes)
    for j in range(1, k // 2 + 1):
        targets = nodes[j:] + nodes[0:j]
        for u, v in zip(nodes, targets, strict=True):
            add_edge(adj, u, v)
    for j in range(1, k // 2 + 1):
        targets = nodes[j:] + nodes[0:j]
        for u, v in zip(nodes, targets, strict=True):
            if rng.random() < p:
                w = rng.choice(nodes)
                # No self-loops or multiple edges.
                while w == u or w in adj[u]:
                    w = rng.choice(nodes)
                    if len(adj[u]) >= n - 1:
                        break  # u is saturated: skip this rewiring
                else:
                    del adj[u][v]
                    del adj[v][u]
                    add_edge(adj, u, w)
    return adj


def stochastic_block_model(
    sizes: list[int], p: list[list[float]], seed: int
) -> tuple[Adjacency, dict[int, int]]:
    """Stochastic block model: the graph and each node's block, in node order.

    networkx 3.6.1 runs its sparse pass after the dense one on a diagonal
    block too, over the spent pair iterator, so each diagonal block with
    ``0 < p < 1`` draws one ``random()`` more than it uses.  The port keeps
    that structure, and so that draw.
    """
    rng = random.Random(seed)
    bounds = list(itertools.accumulate(sizes, initial=0))
    parts = [set(range(bounds[x], bounds[x + 1])) for x in range(len(sizes))]
    adj: Adjacency = {}
    blocks: dict[int, int] = {}
    # Nodes enter block by block, each block in its int set's order.
    for block, part in enumerate(parts):
        for node in part:
            adj[node] = {}
            blocks[node] = block
    for i, j in itertools.combinations_with_replacement(range(len(sizes)), 2):
        pij = p[i][j]
        pairs: Iterator[tuple[int, int]]
        if i == j:
            pairs = itertools.combinations(parts[i], 2)
            for u, v in pairs:
                if rng.random() < pij:
                    add_edge(adj, u, v)
        else:
            pairs = itertools.product(parts[i], parts[j])
        if pij == 1:
            for u, v in pairs:
                add_edge(adj, u, v)
        elif pij > 0:
            # Geometric skips over the pairs: each draw jumps to the next edge.
            while True:
                try:
                    skip = math.floor(math.log(rng.random()) / math.log(1 - pij))
                    next(itertools.islice(pairs, skip, skip), None)
                    u, v = next(pairs)
                    add_edge(adj, u, v)
                except StopIteration:
                    break
    return adj, blocks


def _plain_bfs(adj: Mapping[Node, Iterable[Node]], n: int, source: Node) -> set[Node]:
    """The nodes reachable from ``source``; stops once ``n`` are seen."""
    seen = {source}
    next_level = [source]
    while next_level:
        this_level = next_level
        next_level = []
        for v in this_level:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    next_level.append(w)
            if len(seen) == n:
                return seen
    return seen


def connected_components(adj: Mapping[Node, Iterable[Node]]) -> Iterator[set[Node]]:
    """Each component as a set, in the order of its first node."""
    seen: set[Node] = set()
    n = len(adj)
    for v in adj:
        if v not in seen:
            component = _plain_bfs(adj, n - len(seen), v)
            seen.update(component)
            yield component
