"""Directed-graph model and the deterministic synchronous message fabric.

The fabric simulates a lockstep network: a message sent in round m is
delivered in round m+1, deliveries within a round are ordered by sender id,
and sends along non-edges are rejected.  All protocols in this package
(ratio consensus, max-consensus, leader election, token passing) run on it,
which keeps every run bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .exceptions import InvalidInputError, ProtocolViolationError
from .linalg import as_matrix


@dataclass(frozen=True)
class Digraph:
    """A directed graph on nodes 0..N-1 with no self-loops."""

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.node_count < 1:
            raise InvalidInputError("digraph needs at least one node")
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < self.node_count and 0 <= b < self.node_count):
                raise InvalidInputError(f"edge ({a}, {b}) out of range")
            if a == b:
                raise InvalidInputError(f"self-loop ({a}, {b}) not allowed")
            if (a, b) in seen:
                raise InvalidInputError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    def out_neighbors(self, j: int) -> tuple[int, ...]:
        return tuple(b for a, b in self.edges if a == j)

    def in_neighbors(self, j: int) -> tuple[int, ...]:
        return tuple(a for a, b in self.edges if b == j)

    def out_degree(self, j: int) -> int:
        return len(self.out_neighbors(j))


def digraph_from_weight_matrix(p) -> Digraph:
    """Recover the digraph from the support of a weight matrix.

    An off-diagonal entry p[l, j] > 0 encodes the directed edge j -> l.
    """
    m = as_matrix(p, "weight matrix")
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError("weight matrix must be square")
    n = m.shape[0]
    edges = [(j, l) for j in range(n) for l in range(n) if l != j and m[l, j] > 0]
    return Digraph(n, tuple(edges))


def out_weight_matrix(g: Digraph) -> np.ndarray:
    """Column-stochastic weights: p[l, j] = 1/(1 + outdeg(j)) on out(j) and self."""
    n = g.node_count
    p = np.zeros((n, n))
    for j in range(n):
        w = 1.0 / (1.0 + g.out_degree(j))
        p[j, j] = w
        for l in g.out_neighbors(j):
            p[l, j] = w
    return p


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every ordered node pair is joined by a directed path."""
    n = g.node_count
    if n == 1:
        return True
    if not g.edges:
        return False
    rows = [a for a, _ in g.edges]
    cols = [b for _, b in g.edges]
    adj = csr_matrix((np.ones(len(g.edges)), (rows, cols)), shape=(n, n))
    ncomp, _ = connected_components(adj, directed=True, connection="strong")
    return ncomp == 1


def bfs_distances(g: Digraph, source: int) -> list[int]:
    """Directed hop distances from source; unreachable nodes get -1."""
    dist = [-1] * g.node_count
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.out_neighbors(u):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def diameter(g: Digraph) -> int:
    """Exact directed diameter (max over all pairs of shortest-path length)."""
    best = 0
    for s in range(g.node_count):
        d = bfs_distances(g, s)
        if any(v < 0 for v in d):
            raise InvalidInputError("diameter undefined: graph not strongly connected")
        best = max(best, max(d))
    return best


@dataclass
class SyncFabric:
    """Per-round message buffers keyed by directed edge."""

    graph: Digraph
    round_index: int = 0
    sent_count: int = 0
    delivered_count: int = 0

    def _check_edge(self, src: int, dst: int):
        if (src, dst) not in self.graph.edges:
            raise ProtocolViolationError(
                f"node {src} attempted to send to non-neighbor {dst}"
            )


def round_exchange(
    fabric: SyncFabric,
    send: Callable[[int], Iterable[tuple[int, object]]],
    receive: Callable[[int, list[tuple[int, object]]], None],
) -> None:
    """Advance one synchronous round.

    ``send(j)`` yields (destination, payload) pairs for node j; every message
    is delivered exactly once via ``receive(j, inbox)`` in the next round,
    with inboxes sorted by sender id.
    """
    outgoing: list[tuple[int, int, object]] = []
    for j in range(fabric.graph.node_count):
        for dst, payload in send(j) or ():
            fabric._check_edge(j, dst)
            outgoing.append((j, dst, payload))
    fabric.sent_count += len(outgoing)
    fabric.round_index += 1
    inboxes: dict[int, list[tuple[int, object]]] = {
        j: [] for j in range(fabric.graph.node_count)
    }
    for src, dst, payload in sorted(outgoing, key=lambda t: (t[1], t[0])):
        inboxes[dst].append((src, payload))
    for j in range(fabric.graph.node_count):
        fabric.delivered_count += len(inboxes[j])
        receive(j, inboxes[j])
